"""Newton refinement against the `KElement` loop it replaced.

`evaluation_oracle.hensel_fixed_point` steps by z - G(z) G'(z)^(-1) in
`KElement` arithmetic; the library takes each step as an orbit step of
Newton's map, built once as an unreduced quotient of integer polynomials
(`dynamics._newton_map`).  Both must return the same canonical
Fractions, or raise the same error with the same message, and Newton's
map must take the oracle's value z - G(z)/G'(z) wherever G' does not
vanish, and have a pole where it does.
"""

import functools
import random
from fractions import Fraction

import pytest

import evaluation_oracle as oracle
from conftest import orbit_pool, spy
from padicglue import algebra, dynamics
from padicglue import (
    ATTRACTING,
    INDIFFERENT,
    REPELLING,
    Ball,
    FieldConfig,
    FixedPointCensus,
    HenselConditionError,
    KElement,
    LocalModel,
    Poly,
    Radius,
    RationalMap,
    ValExp,
    Witness,
    build_F,
    epsilon_for_census,
    hensel_fixed_point,
    plan_gluing,
    suggest_witness,
)
from padicglue.algebra import _values
from padicglue.dynamics import _embedding_prover, _newton_map
from padicglue.field import _element, _point, _quotient
from padicglue.presets import EX2_EPSILON, ex1_census, ex1_epsilon, ex1_models, ex2_models

TARGETS = (10, 30, 64, 200)


def outcome(fn, *args, **kwargs):
    """(a, b) Fractions of the result, or the exception class and message."""
    try:
        z = fn(*args, **kwargs)
    except (HenselConditionError, ValueError) as exc:
        return type(exc), str(exc)
    assert type(z.a) is Fraction and type(z.b) is Fraction
    return z.p, z.a, z.b


def assert_same(F, start, target, **kwargs):
    want = outcome(oracle.hensel_fixed_point, F, start, target, **kwargs)
    assert outcome(hensel_fixed_point, F, start, target, **kwargs) == want
    return want


@functools.lru_cache(maxsize=None)
def fixed_point_instance(p: int):
    """Three balls B(a; p^-2) about distinct multiples of p with an
    attracting, a repelling and an indifferent fixed point at their
    centers, glued at the census tolerance (as the benchmark's orbits
    instances are built)."""
    rng = random.Random(f"hensel-differential/{p}")
    K = FieldConfig(p)
    z = Poly.x(p)
    a0, a1, a2 = rng.sample(range(0, p * p, p), 3)
    maps = (
        (z - a0) * (p * rng.randrange(1, p)) + (z - a0) * (z - a0) * rng.randrange(p) + a0,
        (z - a1) * Fraction(rng.randrange(1, p), p) + a1,
        (z - a2) * rng.randrange(2, p) + a2,
    )
    models = tuple(
        LocalModel(f=RationalMap(f), domain=Ball(K(a), Radius(2)))
        for f, a in zip(maps, (a0, a1, a2))
    )
    kinds = (ATTRACTING, REPELLING, INDIFFERENT)
    census = FixedPointCensus(
        counts=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        witnesses=tuple(
            Witness(ball_index=i, disk=suggest_witness(m, m.center, kind), expected=kind)
            for i, (m, kind) in enumerate(zip(models, kinds))
        ),
    )
    F = build_F(models, plan_gluing(models, epsilon_for_census(models, census)))
    return F, (a0, a1, a2)


@pytest.fixture(scope="module")
def glued_examples():
    ex2 = ex2_models()
    ex1 = ex1_models(3, Fraction(1, 3))
    return (
        build_F(ex2, plan_gluing(ex2, EX2_EPSILON)),
        build_F(ex1, plan_gluing(ex1, ex1_epsilon(ex1, ex1_census(ex1)))),
    )


@pytest.mark.parametrize("target", TARGETS)
def test_glued_examples_seeds_0_and_3(glued_examples, target):
    for F in glued_examples:
        for seed in (0, 3):
            assert_same(F, seed, target)


def test_builds_no_second_map(glued_examples, monkeypatch):
    # Newton steps on F itself: no G = F - z map, so no gcd and no RationalMap
    calls = []
    gcd, init = algebra.poly_gcd, RationalMap.__init__
    monkeypatch.setattr(algebra, "poly_gcd", lambda *a: calls.append("poly_gcd") or gcd(*a))
    monkeypatch.setattr(
        RationalMap, "__init__", lambda *a, **k: calls.append("RationalMap") or init(*a, **k)
    )
    for F in glued_examples:
        for seed in (0, 3):
            hensel_fixed_point(F, seed, 64)
    assert calls == []


@pytest.mark.parametrize("p", (3, 5, 7))
def test_three_ball_instances(p):
    F, (a0, a1, a2) = fixed_point_instance(p)
    K = FieldConfig(p)
    rng = random.Random(f"hensel-differential-seeds/{p}")
    # (seed, target); the oracle costs seconds per call beyond target 64
    cases = (
        (K(a0), 10),
        (K(a0 + p**3 * rng.randrange(1, p)), 30),
        (K(a0, p * p * rng.randrange(1, p)), 64),  # a sqrt p part inside the ball
        (K(a1), 30),
        (K(a2, Fraction(p**3, rng.randrange(1, p))), 30),
        (K(Fraction(1, p), 1), 10),  # outside every ball: the seed condition fails
    )
    results = [assert_same(F, seed, target) for seed, target in cases]
    assert [r[0] == p for r in results] == [True] * 5 + [False]
    assert results[-1][1].startswith("Hensel condition fails at seed")


def _newton_value(newton, x: KElement):
    """Newton's map at x through `_values`, None at a pole."""
    p = x.p
    n0, _, q0, _ = _values(newton, _point(p, x), False)
    return _element(p, *_quotient(p, n0, q0)) if any(q0) else None


def _seeded_points(p: int, centers, rng: random.Random):
    K = FieldConfig(p)
    for a in centers:
        a = a if isinstance(a, KElement) else K(a)
        yield a
        yield a + p**3 * rng.randrange(1, p)
        yield a + K(0, p * p * rng.randrange(1, p))  # a sqrt p part
        # denominators in both coordinates
        yield a + K(Fraction(rng.randrange(1, 50), p), Fraction(rng.randrange(1, 50), p**2))
        yield a + K(Fraction(1, rng.randrange(2, 9)), Fraction(rng.randrange(-9, 10), 7))


def assert_newton_map(F, points):
    newton = _newton_map(F)
    for x in points:
        if oracle.ratmap_eval(F, x) is not None:
            assert _newton_value(newton, x) == oracle.newton_step(F, x), (F, x)
    return newton


@pytest.mark.parametrize("p", (3, 5, 7))
def test_newton_map_of_three_ball_instances(p):
    F, centers = fixed_point_instance(p)
    newton = assert_newton_map(F, _seeded_points(p, centers, random.Random(f"newton-map/{p}")))
    # deg Q = m > deg N = n: degree at most n + m over 2m, in reach of the
    # embedding tier
    n, m = F.num.degree, F.den.degree
    assert newton.den.degree == 2 * m and newton.num.degree <= n + m
    assert _embedding_prover(newton, 8) is not None


def test_newton_map_of_glued_examples(glued_examples):
    rng = random.Random("newton-map/glued")
    ex2, ex1 = ex2_models(), ex1_models(3, Fraction(1, 3))
    for F, models in zip(glued_examples, (ex2, ex1)):
        centers = [m.domain.center for m in models]
        assert_newton_map(F, _seeded_points(3, centers, rng))


@pytest.mark.parametrize("F, zero", (
    (RationalMap(Poly.zero(3)), "num"),  # G = -z: Newton's map is 0
    (RationalMap(Poly.x(3) + 3), "den"),  # G' = 0 everywhere
    (RationalMap(Poly.x(3) * Poly.x(3)), None),  # G' vanishes at 1/2
    # G' = 2z/3 vanishes at 0
    (RationalMap(Poly.x(3) + (Poly.x(3) * Poly.x(3) + 1) * Fraction(1, 3)), None),
), ids=("zero", "constant-G", "square", "critical-at-0"))
def test_newton_map_edge_cases(F, zero):
    points = [KElement(3, x) for x in (0, 1, 2, Fraction(1, 2), 9, Fraction(5, 3))]
    points += list(_seeded_points(3, (0, 3), random.Random("newton-map/edge")))
    newton = assert_newton_map(F, points)
    assert (newton.num.is_zero, newton.den.is_zero) == (zero == "num", zero == "den")
    # for a polynomial F the numerator of its Newton map has the higher
    # degree, or one side is 0: the embedding tier declines
    assert _embedding_prover(newton, 8) is None


def _sqrt_p_maps(p: int, rng: random.Random):
    """Maps whose coefficients have sqrt p parts and denominators, over
    degree pairs with deg Q above, equal to and below deg N, a constant
    numerator and a zero one."""
    K = FieldConfig(p)

    def poly(n):
        return Poly(p, [K(Fraction(rng.randrange(-99, 100), rng.choice((1, p, 7))),
                          Fraction(rng.randrange(-9, 10), rng.choice((1, p**2))))
                        for _ in range(n)] + [K(rng.randrange(1, 9), rng.randrange(-3, 4))])

    for n, m in ((3, 5), (2, 2), (5, 1), (0, 4), (1, 0)):
        yield RationalMap(poly(n), poly(m))
    yield RationalMap(Poly.zero(p), poly(3))


def _pairs(newton) -> tuple:
    return tuple((P.D, P.pairs) for P in (newton.num, newton.den))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_newton_map_matches_the_four_product_form(p):
    # 2 N'Q - (N Q)' is N'Q - N Q' term for term, so the three products
    # give the very pairs that four gave, on the benchmark's 18 maps and
    # on maps with sqrt p parts
    maps = [F for _, _, F in orbit_pool() if F.p == p]
    maps += _sqrt_p_maps(p, random.Random(f"newton-products/{p}"))
    for F in maps:
        assert _pairs(_newton_map(F)) == _pairs(oracle.newton_map(F)), F


def test_error_cases_match():
    K3 = FieldConfig(3)
    z = Poly.x(3)
    cases = [
        # the seed is a pole of F
        (RationalMap(Poly.one(3), z), K3(0), "seed point is a pole of the map"),
        # G = 3 is constant, so G' = 0 everywhere
        (RationalMap(z + 3), K3(0), "G' vanishes at the seed point"),
        # v(G(2)) = 0 is not above 2 v(G'(2)) = 2
        (RationalMap(z * z), K3(2), "Hensel condition fails at seed: v(G) = 0, v(G') = 1"),
        # G = z^2 - z + 1: v(G(0)) = 0 equals 2 v(G'(0)) = 0, which is not enough
        (RationalMap(z * z + 1), K3(0), "Hensel condition fails at seed: v(G) = 0, v(G') = 0"),
        # G = (z - 3)/(z - 6): the first step from 0 lands on the pole 6
        (RationalMap(z * (z - 6) + z - 3, z - 6), K3(0), "iteration stepped onto a pole"),
        # G = (z^2 + 1)/3: the first step from 1 lands on the critical point 0
        (RationalMap(z + (z * z + 1) * Fraction(1, 3)), K3(1), "G' vanished during the iteration"),
    ]
    for F, seed, message in cases:
        kind, text = assert_same(F, seed, 10)
        assert kind is HenselConditionError and text.startswith(message)
    # F is the identity, so G = 0 and the seed is returned as it is
    assert assert_same(RationalMap(z), K3(5), 10) == (3, 5, 0)


def assert_same_within(monkeypatch, steps, F, start, target):
    # the library reads its step budget from dynamics.NEWTON_STEPS, the
    # oracle takes it as max_iter, the parameter the library used to have
    monkeypatch.setattr(dynamics, "NEWTON_STEPS", steps)
    want = outcome(oracle.hensel_fixed_point, F, start, target, max_iter=steps)
    assert outcome(hensel_fixed_point, F, start, target) == want
    return want


@pytest.mark.parametrize("steps", (-1, 0, 1, 2))
def test_no_convergence_at_small_max_iter(monkeypatch, steps):
    F, (a0, _, _) = fixed_point_instance(5)
    kind, text = assert_same_within(monkeypatch, steps, F, FieldConfig(5)(a0), 64)
    assert kind is HenselConditionError
    assert text == f"no convergence to exponent 64 in {steps} steps"


@pytest.mark.parametrize("steps", (-1, 0, 1, 2))
def test_no_step_past_max_iter(glued_examples, monkeypatch, steps):
    # ex1's glued F needs 4 Newton steps from 9 to v(G(z)) >= 64; the
    # refinement gives up after max(NEWTON_STEPS, 0) of them, each one
    # tested, as the oracle does, and never computes a step it does not test
    F = glued_examples[1]
    taken = spy(monkeypatch, dynamics, "_step")
    kind, text = assert_same_within(monkeypatch, steps, F, 9, 64)
    assert kind is HenselConditionError
    assert text == f"no convergence to exponent 64 in {steps} steps"
    assert len(taken) == max(steps, 0)
    taken.clear()
    assert_same_within(monkeypatch, 4, F, 9, 64)
    assert len(taken) == 4


def test_infinite_target_rejected():
    F = RationalMap(Poly.x(3) * Poly.x(3))
    assert assert_same(F, 4, ValExp.infinite()) == (ValueError, "target exponent must be finite")


LINEAR = RationalMap(Poly.x(3) * (1 + Fraction(1, 3**100)) + Fraction(1, 3**150))


@pytest.mark.parametrize("target", (-40, -60, -100, -140))
def test_working_precision_covers_a_large_derivative(target):
    # G = 3^-100 z + 3^-150 from 0: v(G) = -150 > 2 v(G') = -200, and one
    # exact Newton step lands on the fixed point -3^-50.  The working
    # precision must reach target - v(G'), since rounding at p^prec moves
    # G by p^(prec + v(G')); at 2 target + 128 + 1, the iterate rounded
    # to p^9 (target -60) left v(G) at -91 and never converged
    assert assert_same(LINEAR, 0, target) == (3, -Fraction(1, 3**50), 0)


def test_far_from_integral_map_converges_at_a_negative_target():
    # (z/3^200 + 1/3^300)/(1 + z^2) from 0 at target -250: v(G) = -300,
    # v(G') = -200; the iterate returned has v(G) = -100
    z = Poly.x(3)
    F = RationalMap(z * Fraction(1, 3**200) + Fraction(1, 3**300), z * z + 1)
    p, a, b = assert_same(F, 0, -250)
    x = KElement(p, a, b)
    assert (F(x) - x).valuation() == -100


def test_seed_outside_hensel_reach_still_fails():
    # v(G) = -100 > 2 v(G') = -182 at 0, but the coefficients are far from
    # integral and v(G(z_k)) stays at -100 at every step
    z = Poly.x(3)
    F = RationalMap(z * (1 + Fraction(1, 3**60)) + Fraction(1, 3**100) + z * z * 3**5, 1 + z * 3**9)
    assert assert_same(F, 0, 10) == (
        HenselConditionError, "no convergence to exponent 10 in 64 steps"
    )
