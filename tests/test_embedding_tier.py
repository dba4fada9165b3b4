"""The embedding tier of `dynamics.orbit` against exact arithmetic.

`orbit` and the Newton steps of `hensel_fixed_point` round a step from
N(z) and Q(z) mod p^K alone once the two real embeddings of K = Q(sqrt p)
prove F(z) tall (`_embedding_prover`).  The integer bounds that proof
rests on, `_real_bits` and `_top_term_bits`, are checked here against
exact signs in Z[sqrt p], at points where they are tight.  The prover is
checked against exact heights, on Newton's maps too, and orbits on
adversarial maps and starts must equal `evaluation_oracle.orbit` step for
step, each case saying whether the tier decided or declined.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest

import evaluation_oracle as oracle
from conftest import spy
from padicglue import FieldConfig, KElement, Poly, RationalMap, dynamics, orbit
from padicglue.algebra import _horner, _mul, _point, _quotient, _values
from padicglue.dynamics import _embedding_prover, _newton_map, _real_bits, _top_term_bits
from test_hensel_differential import fixed_point_instance


def _sign(p: int, a: int, b: int) -> int:
    """The sign of the real number a + b sqrt p, exactly."""
    if a >= 0 and b >= 0 or a <= 0 and b <= 0:
        return (a > 0 or b > 0) - (a < 0 or b < 0)
    return (1 if a > 0 else -1) if a * a > p * b * b else (1 if b > 0 else -1)


def _abs_cmp(p: int, x: tuple, y: tuple, scale: int = 1) -> int:
    """sign(|x| - scale |y|) for reals x, y in Z[sqrt p] given as pairs."""
    sx, sy = _sign(p, *x), _sign(p, *y)
    return _sign(p, sx * x[0] - scale * sy * y[0], sx * x[1] - scale * sy * y[1])


def _within(p: int, x: tuple, lo: int, hi: int) -> bool:
    """2^lo <= |x| < 2^hi, exactly, for x = (a, b) as a + b sqrt p."""
    # scale x by 2^t so that both powers are integers
    t = max(0, -lo, -hi)
    x = (x[0] << t, x[1] << t)
    return _abs_cmp(p, x, (2 ** (lo + t), 0)) >= 0 and _abs_cmp(p, x, (2 ** (hi + t), 0)) < 0


def _power(p: int, a: int, b: int, k: int) -> tuple:
    """(a + b sqrt p)^k as a pair."""
    x = (1, 0)
    for _ in range(k):
        x = _mul(p, x, (a, b))
    return x


PRIMES = (2, 3, 5, 7, 23)


def _real_cases(p: int, rng: random.Random):
    for e in range(12):
        yield 2**e, 0  # a power of two: 2^lo is |a| itself
        yield -(2**e), 0
        yield 0, 2**e
    for k in range(1, 40):
        # 2 + sqrt 3 has norm 1, so its conjugate powers are tiny
        yield _power(3, 2, 1, k) if p == 3 else _power(p, 1, 1, k)
    for _ in range(200):
        a, b = rng.getrandbits(rng.randrange(1, 300)), rng.getrandbits(rng.randrange(1, 300))
        yield a * rng.choice((1, -1)), b * rng.choice((1, -1))


@pytest.mark.parametrize("p", PRIMES)
def test_real_bits_bound_both_embeddings(p):
    rng = random.Random(f"real-bits/{p}")
    for a, b in _real_cases(p, rng):
        if not (a or b):
            continue
        for s in (1, -1):
            lo, hi = _real_bits(p, a, s * b)
            assert lo < hi and _within(p, (a, s * b), lo, hi), (p, a, s * b, lo, hi)


def test_real_bits_tight_on_powers_of_two():
    # 2^lo = |a| exactly, so a bound one bit higher would be false
    for e in range(10):
        assert _real_bits(3, 2**e, 0) == (e, e + 1)
        assert _real_bits(3, -(2**e), 0) == (e, e + 1)


def _lower_terms(p: int, n: int, G: int, sign: int, root: int) -> Poly:
    """c_n z^n plus lower terms each just under the bound that an exponent
    G allows, all opposing the top term (sign -1) or adding to it (+1)."""
    coeffs = [sign * (2 ** (G * (n - k)) - 1) for k in range(n)] + [2**G - 1]
    if root:
        coeffs = [KElement(p, 0, c) if k % 2 else c for k, c in enumerate(coeffs)]
    return Poly(p, coeffs)


def _sums(p: int, P: Poly, s: int, u: int, v: int, w: int) -> tuple:
    """The Horner sum T = sum c_k X^k w^(n - k) and X^n at X = u + v sqrt p,
    under sqrt p -> s sqrt p, as pairs."""
    _, n, ha, hb, _, _ = _horner(P, u, v, w, False)
    xn = _power(p, u, v, n)
    return (ha, s * hb), (xn[0], s * xn[1])


def _between(p: int, T: tuple, xn: tuple, lo: int, hi: int) -> bool:
    """2^lo |x^n| < |T| < 2^hi |x^n|, exactly."""
    t = max(0, -lo, -hi)
    T = (T[0] << t, T[1] << t)
    return _abs_cmp(p, T, xn, 2 ** (lo + t)) > 0 and _abs_cmp(p, T, xn, 2 ** (hi + t)) < 0


@pytest.mark.parametrize("p", (3, 5, 23))
@pytest.mark.parametrize("n", (1, 2, 3, 6))
@pytest.mark.parametrize("G", (1, 3, 8))
@pytest.mark.parametrize("sign", (-1, 1))
@pytest.mark.parametrize("root", (0, 1))
def test_top_term_bounds_from_the_threshold(p, n, G, sign, root):
    # 2^lo |x|^n < |T| < 2^hi |x|^n must hold from |x| = 2^(g + 1) w on,
    # the least |x| the bound admits, with the lower terms as large as it
    # allows and all opposing or all adding to the top term
    P = _lower_terms(p, n, G, sign, root)
    for s in (1, -1):
        lo, hi, g = _top_term_bits(p, P, s)
        for w in (1, 3, 4):
            for v in (0, 1, 7):
                # both embeddings of X = u + v sqrt p are at least 2^(g + 1) w
                u = 2 ** (g + 1) * w + v * (isqrt(p) + 1)
                assert _between(p, *_sums(p, P, s, u, v, w), lo, hi), (s, w, v)


@pytest.mark.parametrize("p", (3, 7))
def test_top_term_bits_of_glued_maps(p):
    # the pool's own N and Q at random points past the threshold
    F, _ = fixed_point_instance(p)
    rng = random.Random(f"top-term/{p}")
    for P in (F.num, F.den):
        for s in (1, -1):
            lo, hi, g = _top_term_bits(p, P, s)
            for _ in range(20):
                w = rng.choice((1, p, p**3, rng.randrange(1, 2**40)))
                v = rng.getrandbits(rng.randrange(1, 200))
                u = 2 ** (g + 1) * w + v * (isqrt(p) + 1) + rng.getrandbits(rng.randrange(1, 200))
                assert _between(p, *_sums(p, P, s, u, v, w), lo, hi)


def _height(z: KElement) -> int:
    return max(x.bit_length() for c in (z.a, z.b) for x in (c.numerator, c.denominator))


def _random_map(p: int, rng: random.Random) -> RationalMap:
    def poly(n):
        return Poly(p, [
            KElement(p, Fraction(rng.randrange(-99, 100), rng.choice((1, 1, 2, p))),
                     rng.randrange(-9, 10) * rng.randrange(2))
            for _ in range(n)
        ] + [rng.choice((1, -3, KElement(p, 2, 1), Fraction(1, 7)))])
    n = rng.randrange(0, 4)
    return RationalMap(poly(n), poly(n + rng.randrange(1, 5)))


def _random_points(p: int, rng: random.Random):
    x = (1, 0)
    for k in range(30):
        x = _mul(p, x, (1, 1))
        yield x[0], x[1], 1  # a unit power: one embedding is tiny
        yield x[0], -x[1], p
    for _ in range(60):
        u = rng.getrandbits(rng.randrange(1, 500)) * rng.choice((1, -1))
        v = rng.getrandbits(rng.randrange(1, 500)) * rng.choice((1, -1, 0))
        yield u, v, rng.choice((1, 2, p, p**4, rng.randrange(1, 2**64)))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_prover_claims_only_tall_points(p):
    # whenever the prover says F(x) is taller than h bits, the exactly
    # evaluated and reduced F(x) is, or N(x) = 0; and it does say so.  The
    # maps include Newton's map of the instance, an unreduced quotient
    rng = random.Random(f"prover/{p}")
    maps = [fixed_point_instance(p)[0]] if p > 2 else []
    maps += [_newton_map(F) for F in maps]
    maps += [_random_map(p, rng) for _ in range(6)]
    proved = 0
    for F in maps:
        for h in (8, 64, 512, 2048):
            taller = _embedding_prover(F, h)
            for u, v, w in _random_points(p, rng):
                if taller(u, v, w):
                    proved += 1
                    n0, _, q0, _ = _values(F, (u, v, w), False)
                    xa, xb, d = _quotient(p, n0, q0)
                    z = KElement(p, Fraction(xa, d), Fraction(xb, d))
                    assert z == 0 or _height(z) > h, (F, u, v, w, h)
    assert proved > 200


@pytest.mark.parametrize("F", [
    RationalMap(Poly(3, [1, 0, 1]), Poly(3, [1, 3, 3])),  # deg N = deg Q
    RationalMap(Poly(3, [1, 1, 3])),  # a polynomial
    RationalMap(Poly(3, [0, 0, 0, 1]), Poly(3, [1, 3])),  # deg N > deg Q
], ids=["equal-degrees", "polynomial", "numerator-higher"])
def test_tier_declines_unless_deg_Q_exceeds_deg_N(monkeypatch, F):
    assert _embedding_prover(F, 8) is None
    tier = spy(monkeypatch, dynamics, "_residue_step")
    for start in (KElement(3, 1, 1), KElement(3, Fraction(2, 3), 5)):
        for precision in (4, 64):
            want = oracle.orbit(F, start, 6, precision=precision)
            assert orbit(F, start, 6, precision=precision) == want
    assert tier == []


def _tiered_orbit(monkeypatch, F, start, steps, precision) -> tuple:
    """The orbit, checked against the oracle, with the points (u, v, w)
    that were evaluated exactly, the (point, decided, K) of every call of
    the embedding tier, and the moduli of its residue passes."""
    tier = spy(monkeypatch, dynamics, "_residue_step")
    values = spy(monkeypatch, dynamics, "_values")
    residues = spy(monkeypatch, dynamics, "_values_mod")
    got = orbit(F, start, steps, precision=precision)
    assert got == oracle.orbit(F, start, steps, precision=precision)
    exact = [args[1] for args, _ in values]
    decided = [(args[1], out is not None, K) for args, (out, K) in tier]
    # every step is decided by the tier or evaluated exactly, not both
    assert len(exact) + sum(ok for _, ok, _ in decided) == len(got) - 1
    return got, exact, decided, [args[2] for args, _ in residues]


@pytest.mark.parametrize("sign", (1, -1))
def test_start_with_a_tiny_embedding(monkeypatch, sign):
    # X = (2 + sqrt 3)^60 has norm 1, so one embedding of it is about
    # 2^-114: no top term dominates there, and the tier declines the first
    # step.  The rounded points after it are decided again; on the way one
    # has w = 3^5 and v(Q(z)) = 0, where K is the precision 64 itself, so
    # the guess for the next point, which needs K = 64 + 32, is too small
    # and its residue pass is redone
    F, _ = fixed_point_instance(3)
    x = _power(3, 2, 1, 60)
    start = KElement(3, x[0], sign * x[1])
    assert not _embedding_prover(F, 8 * 64)(x[0], sign * x[1], 1)
    _, exact, decided, mods = _tiered_orbit(monkeypatch, F, start, 10, 64)
    assert exact[0] == _point(3, start)
    assert sum(ok for _, ok, _ in decided) >= 5
    assert {64, 96} <= {K for _, _, K in decided} and len(mods) > len(decided)


def test_points_with_denominators_and_sqrt_p_parts(monkeypatch):
    # at v(z) = -1 this map keeps v(F(z)) = -1, so every point has w = 5
    # and a sqrt 5 part; the tier decides once the points are tall
    p, z = 5, Poly.x(5)
    F = RationalMap(z + 1, z**5 * p**5 + z**2 * p**3 + p)
    got, _, decided, _ = _tiered_orbit(
        monkeypatch, F, KElement(p, Fraction(7, 5), Fraction(3, 5)), 12, 64
    )
    assert all(s.point.valuation() == -1 for s in got)
    assert sum(ok and w > 1 and v != 0 for (_, v, w), ok, _ in decided) >= 8


def test_vden_jump_redoes_the_residue_pass(monkeypatch):
    # an orbit started at a tall point is decided from its first step on,
    # where the guess K = 256 is too small: the residues show 2 v(Q(z)) =
    # 63 <= 2 v(N(z)), so the pass is redone once at p^K, K = 256 +
    # ceil(2 v(Q(z)) - min(v(N(z)), v(Q(z)))) = 256 + ceil(63/2) = 288, and
    # never again while K holds
    p = 5
    F, (a0, _, _) = fixed_point_instance(p)
    tall = orbit(F, FieldConfig(p)(a0 + p**3), 8, precision=256)[-1].point
    _, exact, decided, mods = _tiered_orbit(monkeypatch, F, tall, 4, 256)
    assert exact == [] and [(ok, K) for _, ok, K in decided] == [(True, 288)] * 4
    assert mods == [p**256] + [p**288] * 4
