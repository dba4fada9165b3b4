"""Exact arithmetic in K = Q(sqrt p): valuations, inverses, rounding."""

import math
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padicglue import FieldConfig, KElement, ValExp, is_prime, reduce_mod, uniformizer_power
from padicglue.field import _coords_mod, _digit_power, _int_val, _twice_val, _v2

K3 = FieldConfig(3)


def test_is_prime_small():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(-3)


def test_field_config_rejects_composite():
    with pytest.raises(ValueError):
        FieldConfig(6)


class TestValExp:
    def test_half_integer_grid_only(self):
        assert ValExp(Fraction(7, 2)).exp == Fraction(7, 2)
        with pytest.raises(ValueError):
            ValExp(Fraction(1, 3))

    def test_ordering_with_infinity(self):
        fin = ValExp(2)
        inf = ValExp.infinite()
        assert fin < inf
        assert inf > fin
        assert inf == ValExp(None)
        assert sorted([inf, ValExp(0), fin]) == [ValExp(0), fin, inf]

    def test_comparisons_against_plain_numbers(self):
        assert ValExp(Fraction(3, 2)) > 1
        assert ValExp(2) == 2
        assert ValExp.infinite() > 10**9

    def test_addition_absorbs_infinity(self):
        assert (ValExp(1) + ValExp(2)).exp == 3
        assert (ValExp(1) + ValExp.infinite()).is_infinite

    def test_negative_multiples_of_infinity_rejected(self):
        with pytest.raises(ValueError):
            ValExp.infinite() * 0

    def test_immutable(self):
        v = ValExp(1)
        with pytest.raises(AttributeError):
            v.exp = 2

    EXPS = st.one_of(st.none(), st.integers(-40, 40).map(lambda t: Fraction(t, 2)))
    NUMBERS = st.one_of(
        st.integers(-20, 20), st.fractions(min_value=-20, max_value=20, max_denominator=6)
    )

    @given(EXPS, EXPS, NUMBERS)
    def test_matches_a_fraction_reference(self, x, y, n):
        """ValExp(x) against x itself, a Fraction in (1/2)Z or None for
        infinity: comparisons with ValExps and plain numbers on either side,
        arithmetic, str and hash."""
        v, w = ValExp(x), ValExp(y)
        X, Y = (math.inf if e is None else e for e in (x, y))
        for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
            assert op(v, w) == op(X, Y)
            assert op(v, n) == op(X, n)
            assert op(n, v) == op(n, X)

        def outcome(f):
            # f()'s exponent, None for infinity, or ValueError
            try:
                r = f()
            except ValueError:
                return ValueError
            return r.exp if isinstance(r, ValExp) else r

        def grid(e):
            if e.denominator not in (1, 2):
                raise ValueError(e)
            return e

        def add(a, b):
            return None if a is None or b is None else grid(a + b)

        def sub(a, b):
            if b is None:
                raise ValueError(b)
            return None if a is None else grid(a - b)

        def mul(a, k):
            if a is None and k <= 0:
                raise ValueError(k)
            return None if a is None else grid(a * k)

        def neg(a):
            if a is None:
                raise ValueError(a)
            return -a

        assert outcome(lambda: v + w) == outcome(lambda: add(x, y))
        assert outcome(lambda: v + n) == outcome(lambda: add(x, n))
        assert outcome(lambda: v - w) == outcome(lambda: sub(x, y))
        assert outcome(lambda: v - n) == outcome(lambda: sub(x, grid(Fraction(n))))
        assert outcome(lambda: v * n) == outcome(lambda: n * v) == outcome(lambda: mul(x, n))
        assert outcome(lambda: -v) == outcome(lambda: neg(x))
        assert str(v) == ("inf" if x is None else str(x))
        assert hash(v) == hash(ValExp(x))
        if x is not None:
            assert v == x and hash(v) == hash(x)

    def test_each_refused_operation(self):
        inf = ValExp.infinite()
        with pytest.raises(ValueError):
            ValExp(1) - inf
        for k in (0, -1, Fraction(-1, 2)):
            with pytest.raises(ValueError):
                inf * k
        with pytest.raises(ValueError):
            -inf
        with pytest.raises(ValueError):
            ValExp(1) + Fraction(1, 3)
        with pytest.raises(ValueError):
            ValExp(Fraction(1, 2)) * Fraction(1, 2)


@given(
    st.sampled_from([2, 3, 5, 23]),
    st.integers(-10**6, 10**6), st.integers(0, 9),
    st.integers(-10**6, 10**6), st.integers(0, 9),
    st.integers(1, 10**6), st.integers(0, 9),
)
def test_valuation_kernels_agree(p, u, i, v, j, w, k):
    """For x = (u + v sqrt p)/w: the pair kernel less 2 v(w), the element
    kernel and KElement.valuation all give 2 v(x)."""
    u, v, w = u * p**i, v * p**j, w * p**k
    if u or v:
        x = KElement(p, Fraction(u, w), Fraction(v, w))
        assert _twice_val(p, (u, v)) - 2 * _int_val(w, p) == _v2(x) == x.valuation().t
    assert _v2(KElement(p)) == math.inf == KElement(p).valuation().t


class TestValuationOracles:
    def test_rational_powers(self):
        assert K3(9).valuation() == 2
        assert K3(Fraction(1, 3)).valuation() == -1
        assert K3(0).valuation().is_infinite

    def test_sqrt_p_has_valuation_one_half(self):
        assert K3(0, 1).valuation() == Fraction(1, 2)

    def test_mixed_term_takes_minimum(self):
        # v(1/3) = -1 beats v(sqrt 3) = 1/2; the two parts can never tie
        assert K3(Fraction(1, 3), 1).valuation() == -1
        assert K3(3, 1).valuation() == Fraction(1, 2)

    @given(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
           st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4))
    def test_parts_never_share_a_valuation(self, a, b):
        x = K3(a, b)
        if a and b:
            va = K3(a).valuation().exp
            vb = K3(0, b).valuation().exp
            assert va != vb
            assert x.valuation().exp == min(va, vb)


class TestFieldArithmetic:
    def test_inverse_oracle(self):
        x = K3(1, 1)
        assert x.inverse() == K3(Fraction(-1, 2), Fraction(1, 2))
        assert x * x.inverse() == K3(1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            K3(0).inverse()

    def test_integer_coercion_and_cross_prime_guard(self):
        assert K3(2) + 1 == K3(3)
        with pytest.raises(ValueError):
            K3(1) + FieldConfig(5)(1)

    def test_cross_prime_rational_equality(self):
        assert K3(7) == FieldConfig(5)(7)
        assert K3(0, 1) != FieldConfig(5)(0, 1)

    def test_pow_negative_exponent(self):
        x = K3(1, 1)
        assert x**-2 == (x.inverse()) ** 2
        assert x**0 == K3(1)

    def test_hash_matches_rational_equality(self):
        assert hash(K3(Fraction(5, 2))) == hash(Fraction(5, 2))
        assert K3(Fraction(5, 2)) == Fraction(5, 2)


def test_uniformizer_power_oracle():
    assert uniformizer_power(3, 1) == K3(3)
    assert uniformizer_power(3, Fraction(3, 2)) == K3(0, 3)
    assert uniformizer_power(3, Fraction(-1, 2)) == K3(0, Fraction(1, 3))
    with pytest.raises(ValueError):
        uniformizer_power(3, Fraction(1, 3))


@given(
    st.fractions(min_value=-10**8, max_value=10**8, max_denominator=10**6),
    st.fractions(min_value=-10**8, max_value=10**8, max_denominator=10**6),
    st.integers(min_value=1, max_value=12),
)
def test_reduce_mod_property(a, b, m):
    """The canonical representative differs from x by valuation >= m and
    has small coordinates."""
    x = K3(a, b)
    r = reduce_mod(x, m)
    assert (x - r).valuation() >= m


class TestIntVal:
    """`_int_val` against the one-division-per-factor loop it replaced."""

    PRIMES = (2, 3, 5, 7, 23)

    @staticmethod
    def linear(n, p):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    @pytest.mark.parametrize("p", PRIMES)
    def test_planted_valuations_on_long_integers(self, p):
        rng = random.Random(f"int-val/{p}")
        for bits in (1, 30, 64, 40_000):
            for v in (0, 1, 3, 4, 5, 7, 8, 9, 23, 24, 25, 100, 255, 256, 257, 600):
                unit = rng.getrandbits(bits) | 1
                while unit % p == 0:
                    unit += 2
                for n in (unit * p**v, -unit * p**v):
                    assert _int_val(n, p) == self.linear(n, p) == v

    @staticmethod
    def digit_exponent(p):
        # the largest k with p^k below 2^bits_per_digit, at least 1
        k = 1
        while p ** (k + 1) < 2**sys.int_info.bits_per_digit:
            k += 1
        return k

    def test_primes_above_half_a_digit_read_one_factor_per_word(self):
        # 46349^2 and 2^31 - 1 both exceed one 30-bit (or 15-bit) digit
        for p in (46349, 2**31 - 1):
            assert self.digit_exponent(p) == 1
            assert _digit_power(p)[:2] == (p, 1)

    @pytest.mark.parametrize("p", PRIMES + (46349, 2**31 - 1))
    def test_planted_valuations_at_the_digit_and_doubling_boundaries(self, p):
        # below k the valuation is read off n mod p^k; from k on, n is
        # divided by p^k, then by p^2k, p^4k, ... while they divide, so the
        # runs end at v = k, 3k, 7k, 15k, 31k: each is planted with its
        # neighbours on long and short units of both signs
        k = self.digit_exponent(p)
        assert _digit_power(p)[:2] == (p**k, k)
        edges = (k, 3 * k, 7 * k, 15 * k, 31 * k)
        vs = sorted({e + d for e in edges for d in (-1, 0, 1)})
        assert vs[0] == k - 1
        rng = random.Random(f"int-val-edges/{p}")
        for bits in (1, 31, 64, 5_000):
            for v in vs:
                unit = rng.getrandbits(bits) | 1
                while unit % p == 0:
                    unit += 2
                for n in (unit * p**v, -unit * p**v):
                    assert _int_val(n, p) == self.linear(n, p) == v, (p, bits, v)

    @given(st.integers().filter(bool), st.integers(0, 80), st.sampled_from(PRIMES))
    def test_matches_linear_loop(self, n, k, p):
        n *= p**k
        assert _int_val(n, p) == self.linear(n, p)


@given(
    st.integers(min_value=-(2**300), max_value=2**300),
    st.integers(min_value=1, max_value=2**300),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=2**80),
    st.sampled_from((2, 3, 5, 7, 23)),
    st.integers(min_value=1, max_value=40),
)
def test_coord_mod_ignores_common_factors(num, den, k, g, p, m):
    """Rounding reads only the value: num/den scaled by any common factor,
    powers of p included, rounds to the one canonical representative
    p^v u, 0 < u < p^(m - v), u prime to p, with v = v_p(num/den) < m
    and v_p(num/den - p^v u) >= m (0 when v >= m)."""
    g *= p**k
    (r,) = _coords_mod((num * g,), den * g, _int_val(den * g, p), p, m)
    q = Fraction(num, den)
    assert (r,) == _coords_mod((q.numerator,), q.denominator, _int_val(q.denominator, p), p, m)
    if not num or KElement(p, q).valuation() >= m:
        assert r == 0
        return
    v = KElement(p, q).valuation().exp
    u = r / Fraction(p) ** v
    assert u.denominator == 1 and 0 < u < p ** (m - v) and u % p
    assert KElement(p, q - r).valuation() >= m


def test_reduce_mod_fixes_small_integers():
    assert reduce_mod(K3(7, 2), 4) == K3(7, 2)
    assert reduce_mod(K3(3**9), 4) == K3(0)


@given(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
)
def test_ultrametric_and_multiplicativity(a, b, c, d):
    x, y = K3(a, b), K3(c, d)
    vx, vy = x.valuation(), y.valuation()
    assert (x * y).valuation() == vx + vy
    vsum = (x + y).valuation()
    assert vsum >= min(vx, vy)
    if vx != vy:
        assert vsum == min(vx, vy)
