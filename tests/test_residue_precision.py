"""Residue passes at the modulus their own error bound requires.

`orbit` and `hensel_fixed_point` form N(z) and Q(z) mod p^K only, by baby
steps and giant steps over one table of X^0..X^s (`algebra._values_mod`),
and pick K from the valuations the residues show:
- a rounded step needs K = prec + ceil(2 v(Q) - min(v(N), v(Q)))
  (`dynamics._quotient_digits`), since residues mod p^K move N/Q by at
  least that much less than p^-prec;
- Hensel's convergence test 2 v(g0) >= r, g0 = w N - X Q, needs
  K = ceil(r/2) (`dynamics._residue_test`).
Each is checked here against exact evaluation: the table against
`_values`, the rounding against `reduce_mod` of the exact quotient, and
the test against the exact valuation of F(z) - z, on both sides of it.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest

import evaluation_oracle as oracle
from conftest import orbit_pool
from padicglue import KElement, Poly, RationalMap, dynamics, hensel_fixed_point
from padicglue.algebra import _values, _values_mod
from padicglue.dynamics import (
    _newton_map, _quotient_digits, _residue_step, _residue_test, _round_residues,
)
from padicglue.field import _element, _point, _quotient, _twice_val, reduce_mod
from test_hensel_differential import fixed_point_instance

PRIMES = (2, 3, 5, 7)


def _coeff(p: int, rng: random.Random) -> KElement:
    return KElement(
        p,
        Fraction(rng.randrange(-99, 100), rng.choice((1, 2, p, p**3))),
        Fraction(rng.randrange(-9, 10) * rng.randrange(2), rng.choice((1, p, 7))),
    )


def _poly(p: int, n: int, rng: random.Random) -> Poly:
    """Degree n exactly; n = -1 is the zero polynomial."""
    if n < 0:
        return Poly.zero(p)
    lead = rng.choice((1, -3, KElement(p, 2, 1), Fraction(1, 7), KElement(p, 0, Fraction(1, p))))
    return Poly(p, [_coeff(p, rng) for _ in range(n)] + [lead])


# (deg N, deg Q): N above Q, N below Q, constants, and a zero numerator
DEGREES = ((4, 1), (1, 4), (3, 3), (0, 2), (3, 0), (0, 0), (-1, 2))


def _maps(p: int, rng: random.Random):
    for n, m in DEGREES:
        yield RationalMap(_poly(p, n, rng), _poly(p, m, rng))


def _points(p: int, rng: random.Random):
    """`_point` triples with w = 1 and w > 1, sqrt p parts and signs."""
    for _ in range(12):
        u = rng.getrandbits(rng.randrange(1, 400)) * rng.choice((1, -1))
        v = rng.getrandbits(rng.randrange(1, 400)) * rng.choice((1, -1, 0))
        yield u, v, rng.choice((1, p, p**5, rng.randrange(2, 2**40)))


@pytest.mark.parametrize("p", PRIMES)
def test_table_evaluation_is_exact_values_reduced(p):
    rng = random.Random(f"values-mod/{p}")
    for F in _maps(p, rng):
        for point in _points(p, rng):
            n0, _, q0, _ = _values(F, point, False)
            for mod in (p, p**3, p**200, rng.randrange(2, 2**300)):
                want = tuple(tuple(x % mod for x in pair) for pair in (n0, q0))
                assert _values_mod(F, point, mod) == want, (F, point, mod)


# d + 1 = 1..4, then at, one below and one above a multiple of the block
# length s = isqrt(d + 1), so the top block holds s, s - 1 or 1 coefficients
BLOCK_DEGREES = (0, 1, 2, 3, 7, 8, 9, 10, 11, 12, 22, 23, 24, 25, 47, 48, 49)


def _block_points(p: int, rng: random.Random):
    """`_point` triples with v = 0 or v != 0, each with w = 1 and w != 1,
    w = 1 + p^3 among them: 1 mod p and mod p^3, but not mod p^200."""
    for v_on in (False, True):
        for w in (1, p, p**5, 1 + p**3, rng.randrange(2, 2**40)):
            u = rng.getrandbits(rng.randrange(1, 400)) * rng.choice((1, -1))
            v = rng.getrandbits(rng.randrange(1, 400)) * rng.choice((1, -1)) if v_on else 0
            yield u, v, w


@pytest.mark.parametrize("p", PRIMES)
def test_blocked_evaluation_at_every_block_shape(p):
    rng = random.Random(f"values-mod-blocks/{p}")
    shapes = set()
    for d in BLOCK_DEGREES:
        s = isqrt(d + 1)
        shapes.add((d + 1) % s in (0, 1, s - 1))
        # the longer of N and Q sets d; the other is shorter or constant,
        # on either side, and N may be zero
        for n, m in ((d, d), (d, d // 2), (d // 2, d), (d, 0), (d // 3 - 1, d)):
            F = RationalMap(_poly(p, n, rng), _poly(p, m, rng))
            for point in _block_points(p, rng):
                n0, _, q0, _ = _values(F, point, False)
                for mod in (p, p**3, p**200, 7, rng.randrange(2, 2**300)):
                    want = tuple(tuple(x % mod for x in pair) for pair in (n0, q0))
                    assert _values_mod(F, point, mod) == want, (F, point, mod)
    assert shapes == {True}


def test_blocked_evaluation_of_the_orbits_pool():
    # the benchmark's maps and their Newton maps, whose coefficients have
    # sqrt p parts, at points with v != 0 and w != 1, where every block's
    # cross term comes from the dot product of sums
    rng = random.Random("values-mod-pool")
    for _, _, F in orbit_pool():
        p = F.p
        for G in (F, _newton_map(F)):
            for w in (p, p**5, 1 + p**3, rng.randrange(2, 2**40)):
                point = (rng.getrandbits(300) - 2**299, rng.getrandbits(300) | 1, w)
                n0, _, q0, _ = _values(G, point, False)
                for mod in (p**64, p**288, rng.randrange(2, 2**300)):
                    want = tuple(tuple(x % mod for x in pair) for pair in (n0, q0))
                    assert _values_mod(G, point, mod) == want, (F, point, mod)


def _planted_pair(p: int, rng: random.Random, ta: int, tb: int) -> tuple:
    """A Z[sqrt p] pair with coordinate valuations ta and tb (None for a
    zero coordinate), so 2 v = min(2 ta, 2 tb + 1)."""
    def coord(t):
        if t is None:
            return 0
        c = rng.getrandbits(rng.randrange(1, 600)) * rng.choice((1, -1)) or 1
        while c % p == 0:
            c += 1
        return c * p**t
    return coord(ta), coord(tb)


def _valuation_cases(p: int, rng: random.Random):
    """(num, den) pairs with v(num) < v(den) and v(num) >= v(den), 2 v(den)
    odd and even, and sqrt p parts on either side."""
    for _ in range(40):
        tq_a, tq_b = rng.randrange(0, 40), rng.choice((None, rng.randrange(0, 40)))
        den = _planted_pair(p, rng, tq_a, tq_b)
        tq = _twice_val(p, den)
        for shift in (-tq, -3, -1, 0, 1, 5, 40):
            tn = max(tq + shift, 0)
            if rng.randrange(2):  # the odd part carries the valuation
                num = _planted_pair(p, rng, tn // 2 + 1 + rng.randrange(3), (tn - 1) // 2 if tn else 0)
            else:
                num = _planted_pair(p, rng, (tn + 1) // 2, tn // 2 + rng.randrange(3))
            yield num, den


@pytest.mark.parametrize("p", PRIMES)
def test_residues_at_the_quotient_digits_round_as_the_exact_quotient(p):
    rng = random.Random(f"quotient-digits/{p}")
    seen = set()
    for num, den in _valuation_cases(p, rng):
        tn, tq = _twice_val(p, num), _twice_val(p, den)
        seen.add((tn < tq, tq % 2))
        for prec in (1, 16, 64, 256):
            K = _quotient_digits(p, num, tq, prec)
            assert K == prec + tq - min(tn, tq) // 2
            cut_num, cut_den = (tuple(x % p**K for x in pair) for pair in (num, den))
            # the valuations read off the residues give the same K
            cut_tq = _twice_val(p, cut_den)
            assert cut_tq == tq and _quotient_digits(p, cut_num, cut_tq, prec) == K
            got = _round_residues(p, cut_num, cut_den, cut_tq, prec)
            want = reduce_mod(_element(p, *_quotient(p, num, den)), prec)
            assert (got.a, got.b) == (want.a, want.b), (num, den, prec, K)
    assert seen == {(True, 0), (True, 1), (False, 0), (False, 1)}


@pytest.mark.parametrize("p", PRIMES)
def test_residue_step_rounds_as_the_exact_map(p):
    # from any guess K the step redoes its pass until K covers the
    # quotient's own digits, and returns those digits as the next guess
    rng = random.Random(f"residue-step/{p}")
    decided = 0
    for F in _maps(p, rng):
        for point in _points(p, rng):
            n0, _, q0, _ = _values(F, point, False)
            if not any(q0):
                continue
            for prec, guess in ((8, -3), (16, 1), (64, 64), (200, 500)):
                got, K = _residue_step(F, point, guess, prec)
                if got is None:
                    assert not any(n0) or K == guess
                    continue
                decided += 1
                assert K == _quotient_digits(p, n0, _twice_val(p, q0), prec)
                want = reduce_mod(_element(p, *_quotient(p, n0, q0)), prec)
                assert (got.a, got.b) == (want.a, want.b), (F, point, prec)
    assert decided > 100


def _hensel_cases(p: int, rng: random.Random):
    """(F, z) with z no pole of F, on glued maps near their fixed points
    and on random maps at random points."""
    F, centers = fixed_point_instance(p) if p > 2 else (RationalMap(Poly.x(2) ** 2), (1,))
    for a in centers:
        for depth in (1, 3, 9, 30):
            yield F, KElement(p, a) + KElement(p, rng.randrange(1, 50), rng.randrange(2)) * p**depth
    for G in _maps(p, rng):
        for u, v, w in _points(p, rng):
            yield G, KElement(p, Fraction(u, w), Fraction(v, w))


@pytest.mark.parametrize("p", PRIMES)
def test_residue_test_against_the_exact_valuation(p):
    # at t = 2 v(F(z) - z) the test holds (vg = target), at t + 1 it fails
    # (vg = target - 1/2); an exact fixed point passes every t
    rng = random.Random(f"residue-test/{p}")
    sides = set()
    for F, z in _hensel_cases(p, rng):
        fz = oracle.ratmap_eval(F, z)
        if fz is None:
            continue
        vg2 = (fz - z).valuation().t
        point = _point(p, z)
        for t in ({vg2 - 1, vg2, vg2 + 1, rng.randrange(-20, 300)} if vg2 != float("inf") else {0, 99}):
            for guess in (0, 1, 40, 400):
                done, K = _residue_test(F, point, t, guess)
                if done is None:
                    # only where Q(z) = 0 mod p^guess, a guess below 1
                    # counting as 1
                    _, _, q0, _ = _values(F, point, False)
                    assert all(x % p ** max(guess, 1) == 0 for x in q0) and K == guess
                    continue
                assert done == (vg2 >= t), (F, z, t, guess)
                sides.add(done)
    assert sides == {True, False}


def test_residue_test_declines_where_Q_vanishes_mod_p_K():
    # Q's integer form carries p^40, so Q(z) = 0 mod p^K for every K <= 40:
    # the test cannot read v(Q(z)) and leaves the point to exact arithmetic.
    # From K = 41 on it reads 2 v(Q(z)) = 80 and decides at ceil((10 +
    # 80)/2) = 45 digits
    p, z, x = 3, Poly.x(3), KElement(3, 1)
    F = RationalMap(z * z * 3**40 + z, (z + 1) * 3**40)
    for K in (1, 40):
        assert _residue_test(F, _point(p, x), 10, K) == (None, K)
    assert _residue_test(F, _point(p, x), 10, 41) == ((F.eval(x) - x).valuation() >= 5, 45)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_hensel_with_every_test_exact_gives_the_same_point(p, monkeypatch):
    # where Q(z) = 0 mod p^K the loop falls back to the exact F(z); forcing
    # that fallback at every iterate must not change any result
    F, (a0, a1, _) = fixed_point_instance(p)
    starts = ((KElement(p, a0), 64), (KElement(p, a0 + p**3), 30), (KElement(p, a1), 30))
    want = [hensel_fixed_point(F, z, t) for z, t in starts]
    monkeypatch.setattr(dynamics, "_residue_test", lambda F, point, t, K: (None, K))
    assert [hensel_fixed_point(F, z, t) for z, t in starts] == want
