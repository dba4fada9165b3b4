"""Exact evaluation against the `KElement` Horner loops it replaced.

`evaluation_oracle` evaluates by Horner on `KElement`s, reducing every
step; the library runs Horner on integers over Z[sqrt p] and divides
once.  Values must be the same canonical Fractions, and POLE must be
reported at exactly the same points.
"""

import random
from fractions import Fraction

import pytest

import evaluation_oracle as oracle
from padicglue import POLE, KElement, Poly, RationalMap, build_F, orbit, plan_gluing
from padicglue.presets import EX2_EPSILON, ex1_epsilon, ex1_census, ex1_models, ex2_models

SEED = 20261018
PRIMES = (2, 3, 5, 23)


def same(got, want):
    """Identical results: both POLE, or equal (a, b) Fractions over one p."""
    if want is POLE:
        return got is POLE
    return (
        isinstance(got, KElement)
        and got.p == want.p
        and type(got.a) is Fraction
        and type(got.b) is Fraction
        and (got.a, got.b) == (want.a, want.b)
    )


def rational(rng, p):
    if rng.random() < 0.25:
        return Fraction(0)
    den = rng.choice((1, 1, 2, 3, 7, p, p * p, p * 5))
    return Fraction(rng.randint(-60, 60), den)


def element(rng, p):
    b = rational(rng, p) if rng.random() < 0.6 else Fraction(0)
    return KElement(p, rational(rng, p), b)


def random_poly(rng, p, max_deg=6):
    return Poly(p, [element(rng, p) for _ in range(rng.randint(0, max_deg + 1))])


def random_map(rng, p):
    den = random_poly(rng, p, max_deg=4)
    if den.is_zero:
        den = Poly.one(p)
    return RationalMap(random_poly(rng, p), den)


def check_all(f, x):
    assert same(RationalMap(f.num).eval(x), oracle.poly_eval(f.num, x))
    assert same(RationalMap(f.den).eval(x), oracle.poly_eval(f.den, x))
    assert same(f.eval(x), oracle.ratmap_eval(f, x))
    assert same(f(x), oracle.ratmap_eval(f, x))
    assert same(f.derivative_at(x), oracle.derivative_at(f, x))


@pytest.mark.parametrize("p", PRIMES)
def test_random_maps_and_points(p):
    rng = random.Random(SEED * 100 + p)
    for _ in range(40):
        f = random_map(rng, p)
        for _ in range(5):
            check_all(f, element(rng, p))
        # plain ints and Fractions are points too
        check_all(f, rng.randint(-9, 9))
        check_all(f, rational(rng, p))


@pytest.mark.parametrize("p", PRIMES)
def test_zero_and_constant_polynomials(p):
    rng = random.Random(SEED + p)
    points = [element(rng, p) for _ in range(6)] + [KElement(p), 0, Fraction(1, p)]
    for x in points:
        assert same(RationalMap(Poly.zero(p)).eval(x), KElement(p))
        for c in (KElement(p, 1), KElement(p, Fraction(-3, 7), 2), KElement(p, 0, Fraction(1, p))):
            assert same(RationalMap(Poly.constant(p, c)).eval(x), c)
        for f in (
            RationalMap(Poly.zero(p)),
            RationalMap(Poly.constant(p, KElement(p, Fraction(5, 3), -1))),
            RationalMap(Poly.zero(p), Poly(p, (1, 1, 1))),
            RationalMap(Poly.x(p)),
        ):
            check_all(f, x)


@pytest.mark.parametrize("p", PRIMES)
def test_pole_at_a_root_of_the_denominator(p):
    z = Poly.x(p)
    roots = (
        KElement(p, Fraction(1, 3)),
        KElement(p, 0, 1),  # sqrt p
        KElement(p, Fraction(-2, p), Fraction(5, 7)),
    )
    for r in roots:
        den = (z - r) * (z * z + 1)
        f = RationalMap(z * z + KElement(p, 2, 1), den)
        assert oracle.poly_eval(f.den, r).is_zero
        for x in (r, r + 1, r + KElement(p, 0, p)):
            check_all(f, x)
        assert f.eval(r) is POLE and f.derivative_at(r) is POLE
        # z^2 - r^2 vanishes at -r as well
        g = RationalMap(z + 1, z * z - r * r)
        check_all(g, r)
        check_all(g, -r)
        assert g(-r) is POLE and g.derivative_at(-r) is POLE


def _glued_maps():
    models = ex2_models()
    yield build_F(models, plan_gluing(models, EX2_EPSILON)), models[0].domain.center
    models = ex1_models(3, Fraction(1, 3))
    yield build_F(models, plan_gluing(models, ex1_epsilon(models, ex1_census(models)))), 0


def test_high_height_orbit_points():
    # points reduced at precision 256 reach hundreds of bits per coordinate
    for F, ref in _glued_maps():
        p = F.p
        for start in (ref + 9, ref + KElement(p, Fraction(1, 2), 3)):
            steps = orbit(F, start, 12, ref=ref, precision=256)
            points = [s.point for s in steps if s.point is not None]
            assert max(x.a.numerator.bit_length() for x in points) > 64
            for x in points:
                check_all(F, x)
                check_all(F, x + KElement(p, 0, Fraction(1, p)))
