"""The rounding kernel of `orbit` and `hensel_fixed_point`.

Both round a step's quotient num/den of Z[sqrt p] pairs by one rule: the
point goes to `reduce_mod` exactly when its reduced height exceeds
H = 8 prec bits.  `dynamics._step` decides it in two tiers.  A point that
the real embeddings prove tall is rounded by `dynamics._round_residues`
from num and den mod p^K, K = `dynamics._quotient_digits`, which must
equal `reduce_mod` of the reduced point; any other point is formed
exactly, reduced by gcd and handed to `_round_point`.  Both are checked
here on planted quotients, with norms that cancel in many leading bits,
and the gcd branch at the boundary height H.
"""

import random
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from padicglue import KElement, Poly
from padicglue.dynamics import _quotient_digits, _round_point, _round_residues, _step
from padicglue.field import _element, _quotient, _twice_val, reduce_mod

PRIMES = st.sampled_from((2, 3, 5, 7, 23))


def _cancelling(db: int, p: int, depth: int) -> tuple:
    # (da, db) with da = isqrt(p db^2) + 2^k, k = max(bitlen(db) - depth, 0)
    return isqrt(p * db * db) + (1 << max(db.bit_length() - depth, 0)), db


def _gcd_step(p: int, num: tuple, den: tuple, prec: int) -> tuple:
    """`_step` of the constant map num/den, where no tier proves anything:
    the exact quotient, reduced by gcd and rounded by `_round_point`."""
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
    t = 2 ** (8 * prec) - 1
    z, _ = _gcd_step(3, num(G, t), den(G, t), prec)
    assert z.b == 0 and z.a in (t, Fraction(1, t))
    # one bit more is rounded
    z, _ = _gcd_step(3, num(G, 2 * t), den(G, 2 * t), prec)
    assert z == reduce_mod(_element(3, *_quotient(3, num(G, 2 * t), den(G, 2 * t))), prec)
