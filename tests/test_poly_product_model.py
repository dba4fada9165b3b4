"""Poly's integer-form arithmetic against models: products and powers
against `certifier_oracle.poly_mul`, the schoolbook loop of K
multiply-adds; division, `%` and `exact_div` against
`certifier_oracle.poly_divmod`, the long division loop in K; sums,
differences and negation against the Fraction coordinates added one by
one; `monic` against the product by the inverse of the leading
coefficient; `content` against the gcd of the coordinates' numerators over
the lcm of their denominators; equality, hashing, pickling and the
`coeffs` view against the stored (D, pairs); and `_coeffs_mod_q` against
every coordinate reduced mod q on its own, at the pretest's primes too.

Inputs are seeded and cover zero, constant and unequal-length factors,
coefficients with a sqrt p part, denominators divisible by p, the primes
2, 3, 5, 23 and 2^31 - 1, and coordinates of up to 10^4 bits (drawn as
`test_kelement_model` draws them).  One glue of degree above 60, with
sqrt p parts in its bump factors, is compared with the oracle's sum.
"""

import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

import certifier_oracle as oracle
from padicglue import KElement, Poly, build_F, plan_gluing
from padicglue.algebra import _coeffs_mod_q, _pretest_primes
from padicglue.field import is_prime
from padicglue.presets import EX2_EPSILON, ex2_models
from test_kelement_model import PRIMES, coordinate

SEED = 20261019
LENGTHS = (0, 1, 1, 2, 3, 6, 9)  # zero and constant polynomials included
CASES = 25  # per prime and test


def element(rng, p):
    # a sqrt p part about half the time
    return KElement(p, coordinate(rng, p), coordinate(rng, p) if rng.random() < 0.5 else 0)


def poly(rng, p, lengths=LENGTHS):
    return Poly(p, [element(rng, p) for _ in range(rng.choice(lengths))])


def model_content(P):
    nums = [abs(x.numerator) for c in P.coeffs for x in (c.a, c.b) if x]
    dens = [x.denominator for c in P.coeffs for x in (c.a, c.b) if x]
    return Fraction(gcd(*nums), lcm(*dens)) if nums else Fraction(1)


def model_sum(P, Q, t):
    """P + t Q, t = 1 or -1, one Fraction coordinate at a time."""
    n = max(len(P.coeffs), len(Q.coeffs))
    x, y = ([R.coeff(k) for k in range(n)] for R in (P, Q))
    return Poly(P.p, [KElement(P.p, a.a + t * b.a, a.b + t * b.b) for a, b in zip(x, y)])


def model_coeffs_mod_q(P, q, s):
    """Each coefficient a + b s mod q, a and b reduced on their own; a
    ValueError when q divides a denominator, None when the leading residue
    vanishes."""
    coords = [x for c in P.coeffs for x in (c.a, c.b)]
    if any(x.denominator % q == 0 for x in coords):
        raise ValueError("q divides a denominator")
    out = [
        (c.a.numerator * pow(c.a.denominator, -1, q)
         + c.b.numerator * pow(c.b.denominator, -1, q) * s) % q
        for c in P.coeffs
    ]
    return None if out and out[-1] == 0 else out


def model_pow(P, n):
    out = Poly.one(P.p)
    for _ in range(n):
        out = oracle.poly_mul(out, P)
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_product_is_the_schoolbook_product(p):
    rng = random.Random(f"{SEED}/mul/{p}")
    for _ in range(CASES):
        P, Q = poly(rng, p), poly(rng, p)
        expected = oracle.poly_mul(P, Q)
        assert P * Q == expected
        assert (P * Q).coeffs == expected.coeffs
        assert Q * P == expected
    # ((1 + sqrt p)(1 + z))^2, whose sqrt p parts meet: (1 + sqrt p)^2 = u
    u = KElement(p, 1 + p, 2)
    P = Poly(p, [KElement(p, 1, 1)] * 2)
    assert P * P == Poly(p, [u, 2 * u, u]) == oracle.poly_mul(P, P)


@pytest.mark.parametrize("p", PRIMES)
def test_sums_differences_and_negation_are_coordinatewise(p):
    rng = random.Random(f"{SEED}/add/{p}")
    for _ in range(CASES):
        P, Q, c = poly(rng, p), poly(rng, p), element(rng, p)
        assert P + Q == model_sum(P, Q, 1) == Q + P
        assert P - Q == model_sum(P, Q, -1)
        assert -P == model_sum(Poly.zero(p), P, -1)
        assert P + c == model_sum(P, Poly.constant(p, c), 1) == c + P
        assert c - P == model_sum(Poly.constant(p, c), P, -1)
        # leading terms that cancel leave the stored form of the rest
        R = poly(rng, p, (0, 1, 2))
        assert (P + R) - P == R and (P - P).is_zero and (P - P).D == 1


@pytest.mark.parametrize("p", PRIMES)
def test_division_is_the_long_division(p):
    rng = random.Random(f"{SEED}/divmod/{p}")
    for i in range(CASES):
        P, Q = poly(rng, p), poly(rng, p)
        if Q.is_zero:
            with pytest.raises(ZeroDivisionError):
                divmod(P, Q)
            continue
        # a divisor as drawn, monic, or a constant, in turn
        B = (Q, Q.monic(), Poly.constant(p, Q.lead))[i % 3]
        q, r = divmod(P, B)
        expected = oracle.poly_divmod(P, B)
        assert (q, r) == expected
        assert (q.coeffs, r.coeffs) == (expected[0].coeffs, expected[1].coeffs)
        assert r.degree < B.degree and P % B == r
        assert (P * B).exact_div(B) == P
        if not r.is_zero:
            with pytest.raises(ValueError, match="not exact"):
                P.exact_div(B)


@pytest.mark.parametrize("p", PRIMES)
def test_scalar_products(p):
    rng = random.Random(f"{SEED}/scalar/{p}")
    for _ in range(CASES):
        P, c = poly(rng, p), element(rng, p)
        for scalar in (c, c.a, 0, 1, -3):
            expected = oracle.poly_mul(P, Poly.constant(p, scalar))
            assert P * scalar == expected
            assert scalar * P == expected


@pytest.mark.parametrize("p", PRIMES)
def test_powers_are_repeated_products(p):
    rng = random.Random(f"{SEED}/pow/{p}")
    for _ in range(CASES):
        P = poly(rng, p, (0, 1, 2, 3))
        for n in range(5):
            assert P**n == model_pow(P, n)


@pytest.mark.parametrize("p", PRIMES)
def test_monic_scales_by_the_inverse_leading_coefficient(p):
    rng = random.Random(f"{SEED}/monic/{p}")
    for _ in range(CASES):
        P = poly(rng, p)
        if P.is_zero:
            assert P.monic() == P
            continue
        M = P.monic()
        assert M == oracle.poly_mul(P, Poly.constant(p, P.lead.inverse()))
        assert M.lead == 1


@pytest.mark.parametrize("p", PRIMES)
def test_content_is_gcd_of_numerators_over_lcm_of_denominators(p):
    rng = random.Random(f"{SEED}/content/{p}")
    for _ in range(CASES):
        P = poly(rng, p)
        c = P.content()
        assert c == model_content(P) and c > 0
        # P/c has integral coordinates with no common factor
        coords = [x for k in (P * (1 / c)).coeffs for x in (k.a, k.b)]
        assert all(x.denominator == 1 for x in coords)
        if coords:
            assert gcd(*(x.numerator for x in coords)) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_equality_hash_pickle_and_the_coefficient_view(p):
    rng = random.Random(f"{SEED}/eq/{p}")
    for _ in range(CASES):
        P = poly(rng, p)
        D, pairs, coeffs = P.D, P.pairs, P.coeffs
        # the stored form is least, and the view is built once from it
        assert D > 0 and gcd(D, *(x for pair in pairs for x in pair)) == 1
        assert not pairs or any(pairs[-1])
        assert coeffs == tuple(KElement(p, Fraction(A, D), Fraction(B, D)) for A, B in pairs)
        assert P.coeffs is coeffs
        if pairs:
            assert P.lead == coeffs[-1]
        # equal polynomials compare and hash alike however they were built
        for Q in (Poly(p, [*coeffs, 0, KElement(p)]), P * 1, P + 0, -(-P)):
            assert (Q.D, Q.pairs) == (D, pairs) and Q == P and hash(Q) == hash(P)
        assert P != P + 1 and P + 1 != P
        # a constant equals its coefficient, so it hashes like it
        if P.degree <= 0:
            c = coeffs[0] if coeffs else 0
            assert P == c and hash(P) == hash(c)
        # pickles carry the integer form only
        data = pickle.dumps(P)
        out = pickle.loads(data)
        assert b"KElement" not in data and b"Fraction" not in data
        assert (out.D, out.pairs) == (D, pairs) and out == P and hash(out) == hash(P)
        assert out.coeffs == coeffs


@pytest.mark.parametrize("p", PRIMES + [7, 17, 191])
def test_pretest_primes_are_the_first_with_a_square_root_of_p(p):
    primes = _pretest_primes(p)
    assert len(primes) == 4
    candidates = [q for q in range(10**6 + 3, primes[-1][0] + 1, 4) if is_prime(q)]
    assert [q for q, _ in primes] == [q for q in candidates if pow(p, (q - 1) // 2, q) == 1]
    assert all(s * s % q == p % q for q, s in primes)
    if p in (2, 3, 5, 7, 23):
        # the first prime of the fixed table the pretest once used
        table = (1000003, 1000039, 1000099, 1000151)
        assert primes[0][0] == next(q for q in table if pow(p, (q - 1) // 2, q) == 1)


@pytest.mark.parametrize("p", PRIMES)
def test_residues_mod_q(p):
    rng = random.Random(f"{SEED}/modq/{p}")
    for _ in range(CASES):
        P = poly(rng, p)
        for q in (1000003, 7, p, *(q for q, _ in _pretest_primes(p))):
            for s in (0, rng.randrange(1, q)):
                try:
                    expected = model_coeffs_mod_q(P, q, s)
                except ValueError:
                    with pytest.raises(ValueError):
                        _coeffs_mod_q(P, q, s)
                    continue
                assert _coeffs_mod_q(P, q, s) == expected


def test_high_degree_glue_equals_the_oracle_sum():
    # odd M, so every c^M has a sqrt 3 part; deg F = 3 M = 63
    models = ex2_models()
    plan = plan_gluing(models, EX2_EPSILON, M_override=[21] * 3)
    F = build_F(models, plan)
    assert F.degree >= 60
    assert any(c.b for c in F.num.coeffs + F.den.coeffs)
    assert F == oracle.glued_sum(models, plan)
