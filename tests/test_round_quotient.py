"""The rounding kernel of `orbit` and `hensel_fixed_point`.

Both round a step's quotient num/den of Z[sqrt p] pairs by one rule: the
point goes to `reduce_mod` exactly when its reduced height exceeds
H = HEIGHT_FACTOR prec bits.  `dynamics._step` decides it in two tiers.
A point that the real embeddings prove tall is rounded by
`dynamics._round_residues` from num and den mod p^K, K =
`dynamics._quotient_digits`, which must equal `reduce_mod` of the reduced
point; any other point is formed exactly as (xa + xb sqrt p)/d, and
`dynamics._round_quotient` decides the rule from one gcd of its first
nonzero coordinate with d, which must equal `_round_point` of the reduced
point.  Both are checked here on planted quotients, with norms that
cancel in many leading bits and common factors that hold powers of p,
on the exact steps of the benchmark's `orbits` pool, and the exact tier
at the boundary height H.
"""

import random
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from conftest import load_perfbench, orbit_pool, spy
from padicglue import KElement, Poly, dynamics, hensel_fixed_point, orbit
from padicglue.dynamics import (
    HEIGHT_FACTOR, _quotient_digits, _round_point, _round_quotient, _round_residues, _step,
)
from padicglue.field import _element, _quotient, _twice_val, reduce_mod

PRIMES = st.sampled_from((2, 3, 5, 7, 23))


def _cancelling(db: int, p: int, depth: int) -> tuple:
    # (da, db) with da = isqrt(p db^2) + 2^k, k = max(bitlen(db) - depth, 0)
    return isqrt(p * db * db) + (1 << max(db.bit_length() - depth, 0)), db


def _gcd_step(p: int, num: tuple, den: tuple, prec: int) -> tuple:
    """`_step` of the constant map num/den, where no tier proves anything:
    the exact quotient, rounded by `_round_quotient`."""
    const = SimpleNamespace(p=p, num=Poly(p, [KElement(p, *num)]), den=Poly(p, [KElement(p, *den)]))
    return _step(const, (0, 0, 1), None, prec, prec)


def _planted(rng_seed: int, bits: int, common: int, vp: tuple, p: int):
    """A quotient whose num, den and scale share the factor `common` and
    carry the powers p^vp[0], p^vp[1], p^vp[2]."""
    rng = random.Random(rng_seed)

    def pair(v):
        return tuple(
            rng.choice((1, -1)) * rng.getrandbits(rng.randrange(bits + 1)) * common * p**v
            for _ in range(2)
        )

    return pair(vp[0]), pair(vp[1]), (rng.randrange(1, 2**16) * common * p ** vp[2])


@given(
    PRIMES,
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from((8, 64, 1500)),
    st.integers(min_value=1, max_value=2**40),
    st.tuples(*(st.integers(min_value=0, max_value=40) for _ in range(3))),
    st.booleans(),
    st.integers(min_value=64, max_value=768),
    st.integers(min_value=1, max_value=64),
)
def test_kernel_rounds_as_the_reduced_point(p, seed, bits, common, vp, cancel, depth, prec):
    num, den, scale = _planted(seed, bits, common, vp, p)
    if cancel:
        # da = db sqrt p + 2^k: the norm da^2 - p db^2 cancels in about
        # `depth` leading bits
        den = _cancelling(den[1], p, depth)
    if not any(den):
        den = (common, 0)
    den = (den[0] * scale, den[1] * scale)
    z = _element(p, *_quotient(p, num, den))
    # the residues mod p^K, at the K that the embedding tier reads off
    # N(z) and Q(z) mod p^K
    K = _quotient_digits(p, num, _twice_val(p, den), prec)
    cut_num, cut_den = (tuple(x % p**K for x in pair) for pair in (num, den))
    got = _round_residues(p, cut_num, cut_den, _twice_val(p, cut_den), prec)
    want = reduce_mod(z, prec)
    assert (got.p, got.a, got.b) == (want.p, want.a, want.b)
    got, got_K = _gcd_step(p, num, den, prec)
    want = _round_point(z, prec)
    assert (got.p, got.a, got.b) == (want.p, want.a, want.b) and got_K == K


@pytest.mark.parametrize(
    "G, num, den",
    (
        (2**300 + 1, lambda G, t: (G, 0), lambda G, t: (G * t, 0)),
        (2**300 - 1, lambda G, t: (G * t, 0), lambda G, t: (G, 0)),
    ),
    ids=("short-numerator", "short-denominator"),
)
def test_height_exactly_H_is_kept(G, num, den):
    # G/(G t) and G t/G with t = 2^H - 1 reduce to points of height H,
    # which the rule keeps, though the unreduced quotient is far taller
    prec = 16
    t = 2 ** (HEIGHT_FACTOR * prec) - 1
    z, _ = _gcd_step(3, num(G, t), den(G, t), prec)
    assert z.b == 0 and z.a in (t, Fraction(1, t))
    # one bit more is rounded
    z, _ = _gcd_step(3, num(G, 2 * t), den(G, 2 * t), prec)
    assert z == reduce_mod(_element(3, *_quotient(3, num(G, 2 * t), den(G, 2 * t))), prec)


def assert_rounds_as_reduced(p: int, xa: int, xb: int, d: int, prec: int) -> KElement:
    got = _round_quotient(p, xa, xb, d, prec)
    want = _round_point(_element(p, xa, xb, d), prec)
    assert (got.p, got.a, got.b) == (want.p, want.a, want.b), (p, xa, xb, d, prec)
    assert type(got.a) is Fraction and type(got.b) is Fraction
    return got


def _unit(rng: random.Random, p: int, bits: int) -> int:
    # a nonzero integer of about `bits` bits prime to p, of either sign
    x = rng.getrandbits(bits) | 1
    while x % p == 0:
        x += 2
    return rng.choice((1, -1)) * x


@given(
    PRIMES,
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(("both", "xa=0", "xb=0", "zero")),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=4, max_value=200),
)
def test_exact_tier_rounds_as_the_reduced_point(p, seed, shape, vp, common_bits, prec):
    # coordinates and denominators of random heights around H, of either
    # sign, over a common factor that carries p^vp and may be taller than H
    rng = random.Random(seed)
    H = HEIGHT_FACTOR * prec
    common = p**vp * (_unit(rng, p, common_bits) if common_bits else 1)
    xa, xb, d = (_unit(rng, p, rng.randrange(1, 2 * H)) * p ** rng.randrange(4) for _ in range(3))
    xa *= shape in ("both", "xb=0")
    xb *= shape in ("both", "xa=0")
    assert_rounds_as_reduced(p, xa * common, xb * common, d * common, prec)


def _cases(p: int, prec: int):
    """(name, xa, xb, d, whether the point is rounded, whether the first
    nonzero coordinate decides it)."""
    H = HEIGHT_FACTOR * prec
    rng = random.Random(f"exact-tier/{p}/{prec}")
    tall, short = _unit(rng, p, H + 40), _unit(rng, p, H // 4)
    # a common factor with powers of p, taller than H on its own
    G = p**7 * _unit(rng, p, H + 10)
    yield "xa=0", 0, tall, short, True, True
    yield "xa=xb=0", 0, 0, -short, False, False
    yield "d<0", tall * p**3, short, -short * p**5, True, True
    yield "d<0 short", short, -short, -short * p**2, False, False
    # the unreduced quotient is far taller than H, the reduced one short
    yield "common factor", G * short, G * 3, G * p * 5, False, False
    # tall only after the common factor: the unit part and p^7 cancel
    yield "common factor tall", G * tall, G * short, G * p**2 * short, True, True
    # the first coordinate reduces to a short one, the second is tall
    yield "second tall", G * short, tall, G * 5, True, False
    yield "second tall, xa=0", 0, G * short, G * 5, False, False


@pytest.mark.parametrize("prec", (4, 16, 256))
@pytest.mark.parametrize("p", (2, 3, 7))
def test_exact_tier_cases(p, prec, monkeypatch):
    reduced = spy(monkeypatch, dynamics, "_element")
    rounded = spy(monkeypatch, dynamics, "reduce_mod")
    for name, xa, xb, d, tall, decided in _cases(p, prec):
        reduced.clear()
        rounded.clear()
        _round_quotient(p, xa, xb, d, prec)
        # a tall first coordinate rounds the unreduced quotient at once;
        # anything else is reduced, and rounded by `reduce_mod` if tall
        assert (len(reduced), len(rounded)) == ((0, 0) if decided else (1, int(tall))), name
        z = assert_rounds_as_reduced(p, xa, xb, d, prec)
        assert (z != _element(p, xa, xb, d)) == tall, name


def test_exact_steps_of_the_orbits_pool(monkeypatch):
    # Hensel to the benchmark's target, then its orbit, on each of the
    # pool's 18 maps: every quotient of the exact tier rounds as the
    # reduced point, and the tier keeps one short point and rounds one
    # tall one in each of the two calls
    inputs = load_perfbench("inputs")
    exact = spy(monkeypatch, dynamics, "_round_quotient")
    for key, inst, F in orbit_pool():
        exact.clear()
        zstar = hensel_fixed_point(F, inst.attracting_center, inputs.HENSEL_TARGET)
        orbit(F, inst.orbit_start, inputs.ORBIT_STEPS, ref=zstar, precision=inputs.ORBIT_PRECISION)
        kept = [assert_rounds_as_reduced(*args) == _element(*args[:4]) for args, _ in exact]
        assert kept == [True, False] * 2, key
