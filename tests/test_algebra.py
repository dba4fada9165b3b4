"""Polynomials, root counts, Gauss norms and rational maps over K."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padicglue import (
    FieldConfig,
    KElement,
    Poly,
    RationalMap,
    ValExp,
    count_roots_with_min_valuation,
    gauss_norm_exp,
    poly_gcd,
)
from padicglue import algebra
from padicglue.algebra import _provably_coprime

K3 = FieldConfig(3)
Z = Poly.x(3)

small_coeffs = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=6), min_size=0, max_size=5
)


class TestPoly:
    def test_canonical_trailing_zeros_stripped(self):
        assert Poly(3, (1, 2, 0, 0)).degree == 1
        assert Poly(3, ()).is_zero
        assert Poly(3, (0,)).is_zero

    def test_str_brackets_sqrt_p_coefficients(self):
        # the zero polynomial prints 0; a coefficient with a sqrt p part
        # prints with a space, and is bracketed
        assert str(Poly.zero(3)) == "0"
        P = Poly(3, (K3(1, 2), K3(0, -1), K3(2, 1)))
        assert str(P) == "(1 + 2*sqrt(3)) + -sqrt(3)*z + (2 + sqrt(3))*z^2"

    def test_arithmetic_and_call(self):
        P = Z**2 + 2 * Z + 1
        assert RationalMap(P).eval(K3(2)) == K3(9)
        assert (P - P).is_zero
        assert (Z - 1) * (Z + 1) == Z**2 - 1

    def test_divmod_exact(self):
        A = (Z - 1) * (Z - 2) + 5
        q, r = divmod(A, Z - 1)
        assert q * (Z - 1) + r == A
        assert r.degree == 0

    @given(small_coeffs, small_coeffs)
    def test_divmod_round_trip(self, a, b):
        A, B = Poly(3, a), Poly(3, b)
        if B.is_zero:
            return
        q, r = divmod(A, B)
        assert q * B + r == A
        assert r.is_zero or r.degree < B.degree

    def test_exact_div_raises_on_remainder(self):
        with pytest.raises(ValueError, match="not exact"):
            (Z**2 + 1).exact_div(Z - 1)

    def test_recenter_oracle(self):
        # z^2 = (z-1)^2 + 2(z-1) + 1
        assert (Z**2).recenter(K3(1)) == Poly(3, (1, 2, 1))
        P = Z**3 - 2 * Z + 7
        a = K3(5)
        assert RationalMap(P.recenter(a)).eval(K3(2) - a) == RationalMap(P).eval(K3(2))

    def test_content_and_primitive(self):
        P = 6 * Z + 4
        assert P.content() == Fraction(2)
        Q = Poly(3, (Fraction(1, 2), Fraction(3, 4)))
        assert Q.content() == Fraction(1, 4)
        assert (Q * 4).content() == 1

    def test_another_prime_compares_unequal(self):
        # arithmetic across primes raises, but comparison answers, as
        # RationalMap's does
        assert Poly(3, [1]) != Poly(5, [1])
        assert Poly(3, [1]) not in [Poly(5, [1])]
        assert Poly(3, [1]) != KElement(5, 1)
        assert RationalMap(Poly(3, [1])) != RationalMap(Poly(5, [1]))
        with pytest.raises(ValueError, match="mixed primes"):
            Poly(3, [1]) + Poly(5, [1])

    @pytest.mark.parametrize(
        "c", [0, 2, -7, Fraction(1, 3), KElement(3, 2), KElement(3, 1, Fraction(1, 3))]
    )
    def test_constant_hashes_like_its_coefficient(self, c):
        P = Poly(3, [c])
        assert P == c and hash(P) == hash(c)
        assert len({P, c}) == 1


def _random_poly(rng, p):
    def coord():
        return Fraction(rng.randrange(-60, 61), rng.choice((1, 2, p, 4 * p, p**3, 35)))

    return Poly(p, [KElement(p, coord(), coord() if rng.random() < 0.5 else 0)
                    for _ in range(rng.randrange(0, 7))])


class TestIntegerForm:
    """P = (1/D) sum (A_k + B_k sqrt p) z^k, the one stored form."""

    @pytest.mark.parametrize("p", [2, 3, 5, 23])
    def test_pairs_over_D_are_the_coefficients(self, p):
        rng = random.Random(1300 + p)
        for _ in range(40):
            P = _random_poly(rng, p)
            D, pairs = P.D, P.pairs
            assert D >= 1 and len(pairs) == len(P.coeffs)
            for (A, B), c in zip(pairs, P.coeffs):
                assert KElement(p, Fraction(A, D), Fraction(B, D)) == c
            dens = [x.denominator for c in P.coeffs for x in (c.a, c.b)]
            assert all(D % d == 0 for d in dens)
            # D is the least such denominator
            assert math.gcd(D, *(x for pair in pairs for x in pair)) == 1

    def test_zero_polynomial(self):
        assert (Poly.zero(3).D, Poly.zero(3).pairs) == (1, ())
        assert (Z - Z).pairs == () and (Z - Z).D == 1

    def test_arithmetic_builds_no_k_element(self, monkeypatch):
        # sums, products, division, monic and content read and write the
        # pairs only; a Poly's coefficients become K elements when read
        A = Poly(3, (Fraction(1, 2), KElement(3, Fraction(2, 9), Fraction(-1, 4)), 5, K3(1, 1)))
        B = Poly(3, (K3(0, Fraction(1, 3)), Fraction(-7, 5), 3))
        built, init = [], KElement.__init__
        monkeypatch.setattr(
            KElement, "__init__", lambda self, *args: built.append(args) or init(self, *args)
        )
        out = [A + B, A - B, -A, A * B, A**3, *divmod(A, B), A % B, A.monic(), B.monic()]
        out.append((A * B).exact_div(B))
        assert A.content() == Fraction(1, 36) and out[-1] == A
        assert built == []
        assert out[5] * B + out[6] == A and out[8].lead == 1
        assert built

    def test_equality_hash_and_immutability_unchanged(self):
        P = Poly(3, (Fraction(1, 2), KElement(3, 1, Fraction(1, 3))))
        Q = Poly(3, (Fraction(1, 2), KElement(3, 1, Fraction(1, 3))))
        assert P.coeffs == Q.coeffs
        assert P == Q and hash(P) == hash(Q)
        assert P != Poly(3, (Fraction(1, 2), 1))
        for name in ("coeffs", "p", "D", "pairs", "_coeffs"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(P, name, None)
        assert (P.D, P.pairs) == (Q.D, Q.pairs) == (6, ((3, 0), (6, 2)))


class TestPolyGcd:
    def test_shared_linear_factor(self):
        A = (Z - 1) * (Z - 2) * (Z - 4)
        B = (Z - 2) * (Z + 1)
        assert poly_gcd(A, B) == Z - 2

    def test_coprime(self):
        assert poly_gcd(Z - 1, Z - 2).degree == 0

    def test_sqrt_p_coefficients(self):
        root = K3(0, 1)
        A = (Z - root) * (Z - 1)
        B = (Z - root) * (Z + 2)
        g = poly_gcd(A, B)
        assert g == Poly(3, (-root, 1))

    def test_pretest_certifies_coprime_only(self):
        A = (Z - 1) * (Z - 2)
        B = (Z - 1) * (Z + 5)
        assert not _provably_coprime(A, B)
        assert _provably_coprime(Z - 1, Z - 2)

    @given(small_coeffs, small_coeffs, small_coeffs)
    def test_gcd_divides_both(self, a, b, c):
        A, B, C = Poly(3, a), Poly(3, b), Poly(3, c)
        if A.is_zero or B.is_zero or C.is_zero:
            return
        g = poly_gcd(A * C, B * C)
        assert g % C.monic() == Poly.zero(3)
        assert (A * C) % g == Poly.zero(3)
        assert (B * C) % g == Poly.zero(3)


class TestCountRoots:
    def test_count_roots_with_min_valuation(self):
        P = Z**3 + 3 * Z + 9
        assert count_roots_with_min_valuation(P, Fraction(1), strict=False) == 1
        assert count_roots_with_min_valuation(P, Fraction(1, 2), strict=True) == 1
        assert count_roots_with_min_valuation(P, Fraction(1, 2), strict=False) == 3
        assert count_roots_with_min_valuation(P, Fraction(2), strict=False) == 0

    def test_root_at_zero_counted(self):
        # roots 0, 0 and 3: the zero coefficients c_0 and c_1 are skipped
        P = Z**3 - 3 * Z**2
        assert count_roots_with_min_valuation(P, Fraction(1), strict=False) == 3
        assert count_roots_with_min_valuation(P, Fraction(1), strict=True) == 2
        assert count_roots_with_min_valuation(P, Fraction(5), strict=False) == 2

    def test_all_terms_tie(self):
        # every term attains the min at e = 1: three roots of valuation 1
        P = Z**3 + 3 * Z**2 + 9 * Z + 27
        assert count_roots_with_min_valuation(P, Fraction(1), strict=False) == 3
        assert count_roots_with_min_valuation(P, Fraction(1), strict=True) == 0

    def test_unit_roots(self):
        assert count_roots_with_min_valuation(Z**4 + 1, 0, strict=False) == 4
        assert count_roots_with_min_valuation(Z**4 + 1, 0, strict=True) == 0

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            count_roots_with_min_valuation(Poly.zero(3), 0, strict=False)

    @pytest.mark.parametrize(
        "e, closed, open_",
        [(-2, 3, 3), (-1, 3, 2), (0, 2, 2), (1, 2, 1), (2, 1, 0), (3, 0, 0)],
    )
    def test_factored_oracle(self, e, closed, open_):
        # roots 3, 9, 1/3 with valuations 1, 2, -1
        P = (Z - 3) * (Z - 9) * (3 * Z - 1)
        assert count_roots_with_min_valuation(P, Fraction(e), strict=False) == closed
        assert count_roots_with_min_valuation(P, Fraction(e), strict=True) == open_

    def test_valexp_radius(self):
        # roots sqrt(3) and 3 sqrt(3) + 9, of valuations 1/2 and 3/2
        P = (Z - K3(0, 1)) * (Z - K3(9, 3))
        assert count_roots_with_min_valuation(P, ValExp(Fraction(1, 2)), strict=False) == 2
        assert count_roots_with_min_valuation(P, ValExp(Fraction(1, 2)), strict=True) == 1
        assert count_roots_with_min_valuation(P, ValExp(Fraction(3, 2)), strict=False) == 1
        assert count_roots_with_min_valuation(P, ValExp(2), strict=False) == 0

    def test_recentered_about_negative_valuation_center(self):
        # roots a, a + 9, a + 1 about a = 1/3, of valuation -1
        a = K3(Fraction(1, 3))
        Q = ((Z - a) * (Z - a - 9) * (Z - a - 1)).recenter(a)
        assert count_roots_with_min_valuation(Q, ValExp(2), strict=False) == 2
        assert count_roots_with_min_valuation(Q, ValExp(2), strict=True) == 1
        assert count_roots_with_min_valuation(Q, ValExp(0), strict=False) == 3
        assert count_roots_with_min_valuation(Q, ValExp(0), strict=True) == 2


class TestGaussNorm:
    def test_constant_term_included_by_default(self):
        P = Z**2 + 3
        assert gauss_norm_exp(P, Fraction(1)) == 1
        assert gauss_norm_exp(P, Fraction(1), from_k=1) == 2

    def test_min_over_shifted_points(self):
        P = 9 * Z + 3 * Z**2 + Z**5
        # at e_r = 1: min(2+1, 1+2, 0+5) = 3
        assert gauss_norm_exp(P, Fraction(1)) == 3

    def test_valexp_radius(self):
        P = 9 * Z + 3 * Z**2 + Z**5
        assert gauss_norm_exp(P, ValExp(1)) == 3
        # at e_r = 1/2 from k = 2: min(1+1, 0+5/2) = 2
        assert gauss_norm_exp(P, ValExp(Fraction(1, 2)), from_k=2) == 2

    def test_empty_tail_is_infinite(self):
        assert gauss_norm_exp(Poly.constant(3, 5), Fraction(1), from_k=1).is_infinite

    def test_infinite_radius_rejected(self):
        # p^(-inf) = 0 is no radius: both scans refuse it before reading P
        P = 9 * Z + 3 * Z**2 + Z**5
        with pytest.raises(ValueError, match="infinite"):
            gauss_norm_exp(P, ValExp(None))
        with pytest.raises(ValueError, match="infinite"):
            count_roots_with_min_valuation(P, ValExp(None), strict=False)


class TestRationalMap:
    def test_canonical_reduction_and_monic_den(self):
        f = RationalMap(Z**2 - 1, Z - 1)
        assert f.num == Z + 1
        assert f.den == Poly.one(3)
        g = RationalMap(Z, 2 * Z + 2)
        assert g.den.lead == 1
        assert g.den == Z + 1

    def test_str_and_repr(self):
        # a polynomial map prints as its numerator
        f, g = RationalMap(3 * Z, Z + 1), RationalMap(Z**2 + 1)
        assert (str(f), repr(f)) == ("(3*z) / (1 + z)", "RationalMap((3*z) / (1 + z))")
        assert (str(g), repr(g)) == ("1 + z^2", "RationalMap(1 + z^2)")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalMap(Z, Poly.zero(3))

    def test_eval_and_pole(self):
        f = RationalMap(Poly.one(3), Z)
        assert f.eval(K3(0)) is None
        assert f.eval(K3(3)) == K3(Fraction(1, 3))

    def test_derivative_at_matches_symbolic(self):
        f = RationalMap(Z**2 + 1, Z - 1)
        N, D = f.num, f.den
        # N' = 2z and D' = 1
        fp = RationalMap(2 * Z * D - N, D * D)
        for x in (K3(0), K3(5), K3(Fraction(1, 2)), K3(2, 1)):
            assert f.derivative_at(x) == fp.eval(x)

    def test_derivative_at_pole(self):
        f = RationalMap(Poly.one(3), Z)
        assert f.derivative_at(K3(0)) is None

    def test_degree_report(self):
        f = RationalMap(Z**3 + 1, Z)
        assert (f.num.degree, f.den.degree) == (3, 1)
        assert f.degree == 3


def _value_types():
    # one instance of each immutable value type; the Poly has its
    # coefficient view and valuations filled in, which a copy rebuilds on
    # demand
    P = 2 * Z**2 + K3(Fraction(1, 3), 1)
    assert P.coeffs and algebra._v2s(P)
    return (
        ValExp(Fraction(3, 2)), ValExp(None), K3(Fraction(-2, 9), 5), P,
        RationalMap(Z + 1, Z**2 - 3), RationalMap(Poly.zero(3)),
    )


@pytest.mark.parametrize(
    "value", _value_types(), ids=lambda v: type(v).__name__,
)
@pytest.mark.parametrize(
    "clone", (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))),
    ids=("copy", "deepcopy", "pickle"),
)
def test_value_types_copy_and_pickle(value, clone):
    out = clone(value)
    assert type(out) is type(value) and out == value and hash(out) == hash(value)
    if isinstance(value, Poly):
        assert (out.D, out.pairs) == (value.D, value.pairs)
