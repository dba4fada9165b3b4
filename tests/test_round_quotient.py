"""The rounding kernel of `orbit` and `hensel_fixed_point`.

`dynamics._quotient_bits` bounds the bit lengths of a quotient's integers
from the leading bits of its factors; a bound is either a range holding
the true bit length or None.  `dynamics._round_quotient` must round every
point num/(den scale) exactly as `_round_point` rounds the reduced point,
whether the leading bits prove it tall and it is rounded from residues or
it goes through the gcd.  Norms that cancel on either side of the kept
bits reach both tiers with tall points.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, strategies as st

from padicglue.algebra import _element, _quotient
from padicglue.dynamics import (
    _LEAD_BITS, _leading_bits_taller, _quotient_bits, _round_point, _round_quotient,
)

PRIMES = st.sampled_from((2, 3, 5, 7, 23))


def _factor(max_bits: int):
    """Signed integers of up to max_bits bits, zero included, drawn from a
    seeded stream so long ones cost hypothesis no bytes."""
    return st.builds(
        lambda bits, seed, sign: sign * random.Random(seed).getrandbits(bits),
        st.integers(min_value=0, max_value=max_bits),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from((1, -1)),
    )


def _near(target: int, slack_bits: int, seed: int) -> int:
    # target moved by less than 2^slack_bits, so a difference that should
    # cancel keeps only about slack_bits bits
    return target + random.Random(seed).getrandbits(slack_bits) - (1 << slack_bits) // 2


def _cancelling(db: int, p: int, depth: int) -> tuple:
    # (da, db) with da = isqrt(p db^2) + 2^k, k = max(bitlen(db) - depth, 0)
    return isqrt(p * db * db) + (1 << max(db.bit_length() - depth, 0)), db


@st.composite
def quotients(draw, max_bits: int = 20000):
    """(p, num, den, scale) with den != (0, 0), and one of the quotient's
    differences na da - p nb db, nb da - na db or da^2 - p db^2 planted
    near zero, or none."""
    p = draw(PRIMES)
    na, nb, da, db = (draw(_factor(max_bits)) for _ in range(4))
    slack = draw(st.integers(min_value=0, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    plant = draw(st.sampled_from(("none", "xa", "xb", "norm")))
    if plant == "xa" and da:
        # na da close to p nb db
        na = _near(p * nb * db // da, slack, seed)
    elif plant == "xb" and da:
        nb = _near(na * db // da, slack, seed)
    elif plant == "norm":
        # da^2 close to p db^2: da near db sqrt p
        da = _near(isqrt(p * db * db), slack, seed)
    if not (da or db):
        da = 1
    scale = draw(_factor(64).filter(bool))
    return p, (na, nb), (da, db), scale


@given(quotients())
# 2^10000 - 3: a difference just below a power of two, where rounding the
# short term's interval the wrong way at the coarser scale would show
@example((3, (2**5000, 1), (2**5000, 1), 1))
def test_bit_bounds_hold_or_say_unknown(case):
    p, num, den, scale = case
    xa, xb, d = _quotient(p, num, den)
    for bits, x in zip(_quotient_bits(p, num, den, scale), (xa, xb, d * scale)):
        assert bits is None or bits[0] <= x.bit_length() <= bits[1], (bits, x.bit_length())


def test_bit_bounds_unknown_past_the_kept_bits():
    # a cancellation deeper than the kept bits leaves the bound unknown,
    # an exact zero included; without cancellation the leading bits bound
    # each bit length to within one
    rng = random.Random("leading-bits")
    p = 3
    db = rng.getrandbits(5000)
    da = isqrt(p * db * db) + rng.getrandbits(_LEAD_BITS // 2)
    num = (p * db, da)  # na da - p nb db = 0 and nb da - na db = da^2 - p db^2
    xa, xb, d = _quotient(p, num, (da, db))
    assert xa == 0 and xb == d and d.bit_length() < 10000 - _LEAD_BITS
    assert _quotient_bits(p, num, (da, db), 1) == (None, None, None)
    num, den = (rng.getrandbits(5000), -rng.getrandbits(5000)), (da, -rng.getrandbits(4000))
    xa, xb, d = _quotient(p, num, den)
    for bits, x in zip(_quotient_bits(p, num, den, 7), (xa, xb, 7 * d)):
        assert bits[0] <= x.bit_length() <= bits[1] <= bits[0] + 1


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
    st.integers(min_value=64, max_value=2 * _LEAD_BITS),
    st.integers(min_value=1, max_value=64),
)
def test_kernel_rounds_as_the_reduced_point(p, seed, bits, common, vp, cancel, depth, prec):
    num, den, scale = _planted(seed, bits, common, vp, p)
    if cancel:
        # da = db sqrt p + 2^k: the norm da^2 - p db^2 cancels in about
        # `depth` leading bits, on either side of the kept bits
        den = _cancelling(den[1], p, depth)
    if not any(den):
        den = (common, 0)
    xa, xb, d = _quotient(p, num, den)
    want = _round_point(_element(p, xa, xb, d * scale), prec)
    got = _round_quotient(p, num, den, scale, prec)
    assert (got.p, got.a, got.b) == (want.p, want.a, want.b)


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
    # which the rule keeps; the quotient's bit lengths differ by exactly H
    # and sit just below powers of two, so each bound straddles one
    prec = 16
    t = 2 ** (8 * prec) - 1
    z = _round_quotient(3, num(G, t), den(G, t), 1, prec)
    want = _round_point(_element(3, *_quotient(3, num(G, t), den(G, t))), prec)
    assert (z.a, z.b) == (want.a, want.b) and z.a in (t, Fraction(1, t))


@pytest.mark.parametrize("depth, proved", ((300, True), (2 * _LEAD_BITS, False)))
def test_tall_points_on_either_side_of_the_kept_bits(depth, proved):
    # a tall point whose norm cancels in 300 bits, as orbit quotients of
    # glued maps do, is proved tall by the leading bits; a cancellation
    # deeper than the kept bits sends it to the gcd; either way it is
    # rounded as the reduced point
    rng = random.Random(f"cancel/{depth}")
    p, prec = 3, 16
    den = _cancelling(rng.getrandbits(2000) | 1 << 1999, p, depth)
    num = (rng.getrandbits(4000), rng.getrandbits(4000))
    assert _leading_bits_taller(8 * prec, p, num, den, 1) is proved
    xa, xb, d = _quotient(p, num, den)
    z = _element(p, xa, xb, d)
    want = _round_point(z, prec)
    got = _round_quotient(p, num, den, 1, prec)
    assert want != z and (got.p, got.a, got.b) == (want.p, want.a, want.b)
