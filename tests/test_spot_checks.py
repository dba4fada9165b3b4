"""The certifier's integer spot-check predicates against their meaning.

`gluing._spot_checks` decides a sample on doubled integer exponents, and
`field._twice_val_at_least` decides image membership by divisibility.
Both are checked here against the formulation in K: the valuation of
F(z) - f_i(z) and of F(z) minus the image center, computed with KElement
arithmetic, compared as ValExps with the bound, epsilon and
`Ball._within`.  Inputs are seeded Z[sqrt p] pairs whose valuations sit
near each threshold, planted as the values of seeded rational maps at a
seeded point, so an off-by-one in a rounding, in the open-ball rule or in
the scaling of an evaluation changes some verdict.
"""

import random
from fractions import Fraction

import pytest

from conftest import spy
from padicglue import Ball, KElement, Poly, RationalMap, ValExp, gluing
from padicglue.field import _point, _quotient, _twice_val, _twice_val_at_least
from padicglue.gluing import Sample, _spot_checks

SEED = 20261019
CASES = 400


def element(p: int, x: tuple, scale: int = 1) -> KElement:
    return KElement(p, Fraction(x[0], scale), Fraction(x[1], scale))


def diff_exp(p: int, x: tuple, y: tuple, x2: tuple, y2: tuple) -> ValExp:
    # v(x/y - x2/y2), in K
    return (element(p, x) * element(p, y).inverse()
            - element(p, x2) * element(p, y2).inverse()).valuation()


def pair(rng, p: int, nonzero: bool = False) -> tuple:
    """(a, b) = p^k (a', b') with small k and a few zero coordinates, so
    valuations of sums and products vary around small thresholds."""
    while True:
        k = rng.randrange(4)
        a = rng.choice((0, rng.randrange(-40, 41))) * p**k
        b = rng.choice((0, 0, rng.randrange(-40, 41))) * p**rng.randrange(4)
        if any((a, b)) or not nonzero:
            return a, b


def point(rng, p: int) -> KElement:
    """An integer, a fraction whose denominator may hold p, or a point with
    a sqrt p part, so that evaluation meets w = 1, w > 1 and v != 0."""
    kind = rng.randrange(3)
    a = Fraction(rng.randrange(-30, 31), 1 if kind == 0 else rng.choice((1, p, 7, 3 * p)))
    return KElement(p, a, Fraction(rng.randrange(1, 9), rng.choice((1, p, 5))) if kind == 2 else 0)


def map_through(rng, p: int, z: KElement, num: tuple, den: tuple) -> RationalMap:
    """A rational map whose value at z is num/den: N = num + (z - z0) g and
    Q = den + (z - z0) h for seeded polynomials g and h of degree up to 2,
    either of them possibly 0, so that deg N and deg Q vary both ways."""
    X = Poly(p, (-z, 1))

    def tail() -> Poly:
        if rng.random() < 0.25:
            return Poly.zero(p)
        degree = rng.randrange(3)
        return Poly(p, [element(p, pair(rng, p), rng.choice((1, p))) for _ in range(degree + 1)])

    N = Poly.constant(p, element(p, num)) + X * tail()
    return RationalMap(N, Poly.constant(p, element(p, den)) + X * tail())


def near(rng, e: ValExp) -> Fraction:
    # a radius exponent at, just above or just below e, or far below it
    base = Fraction(0) if e.is_infinite else e.exp
    return base + rng.choice((Fraction(-1), Fraction(-1, 2), 0, Fraction(1, 2), 1, -20))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_membership_by_divisibility_is_a_valuation_test(p):
    rng = random.Random(f"{SEED}/divisibility/{p}")
    for _ in range(CASES):
        n, q = pair(rng, p), pair(rng, p, nonzero=True)
        cu, cv = pair(rng, p)
        cw = rng.choice((1, p, rng.randrange(1, 30)))
        c = (cu, cv, cw)
        t = (n[0] * cw - cu * q[0] - p * cv * q[1], n[1] * cw - cu * q[1] - cv * q[0])
        tv = _twice_val(p, t) if any(t) else None
        for r in range(-3, (tv or 6) + 3):
            expected = tv is None or tv >= r
            assert _twice_val_at_least(p, n, q, c, r) == expected, (n, q, c, r)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("closed", (True, False))
def test_spot_check_agrees_with_the_k_formulation(p, closed, monkeypatch):
    tests = spy(monkeypatch, gluing, "_twice_val_at_least")
    rng = random.Random(f"{SEED}/spot/{p}/{closed}")
    seen = set()
    for index in range(CASES):
        nF, qF = pair(rng, p), pair(rng, p, nonzero=True)
        nf, qf = pair(rng, p), pair(rng, p, nonzero=True)
        if index % 10 == 0:
            # F(z) = f_i(z): the difference pair is (0, 0)
            k = rng.randrange(1, 9)
            nf, qf = (nF[0] * k, nF[1] * k), (qF[0] * k, qF[1] * k)
        cu, cv = pair(rng, p)
        cw = rng.choice((1, p, rng.randrange(1, 30)))
        if index % 10 == 5:
            # F(z) is the image center itself
            cu, cv, cw = _quotient(p, nF, qF)
            if cw < 0:
                cu, cv, cw = -cu, -cv, -cw
        center = element(p, (cu, cv), cw)
        w = diff_exp(p, nF, qF, nf, qf)
        d = diff_exp(p, nF, qF, (cu, cv), (cw, 0))
        image = Ball(center, ValExp(near(rng, d)), closed=closed)
        bound = ValExp.infinite() if index % 7 == 0 else ValExp(near(rng, w))
        epsilon = ValExp(near(rng, w))

        expected = w >= bound and w > epsilon and image._within(d)
        z = point(rng, p)
        F, f = map_through(rng, p, z, nF, qF), map_through(rng, p, z, nf, qf)
        [sample], ok = _spot_checks(F, f, [(z, _point(p, z))], image, bound, epsilon)
        assert type(sample) is Sample and sample.point is z and sample.diff_exp == w
        assert ok == expected, (F, f, z, (cu, cv, cw), bound, epsilon, image)
        witness_ok = w >= bound and w > epsilon
        # the image test's R = r0 + 2 v(qF), when it ran
        R = tests.pop()[0][-1] if tests else None
        R_decides = R is not None and R <= 0
        seen.add((witness_ok, expected, w.is_infinite, bound.is_infinite, d.is_infinite, R_decides))
    # every case the predicates single out was drawn: a witness failing, and
    # one passing with F(z) inside and outside the image; an infinite
    # witness, bound and center distance; and R <= 0 deciding a pass
    assert {s[:2] for s in seen} == {(False, False), (True, False), (True, True)}
    assert any(s[2] for s in seen) and any(s[3] for s in seen)
    assert any(s[4] for s in seen) and any(s[0] and s[5] for s in seen)
