"""KElement against a model written here: a pair (a, b) of Fractions for
a + b sqrt p, with the field operations spelled out from sqrt(p)^2 = p
and the valuation v(a + b sqrt p) = min(v(a), v(b) + 1/2) read off the
coordinates by repeated division.  Any representation of K elements must
give the model's coordinates, valuations, equalities and hashes, and
reduce_mod must stay within p^m of its argument and round each coordinate
to the model's canonical representative.  The kernels of `field` that hold
an element as its integer triple (u, v, w), for (u + v sqrt p)/w, or
compute on Z[sqrt p] pairs are checked against the same model.  Every
arithmetic result is a K element of its operands' prime with Fraction
coordinates, and arithmetic inside K checks no prime.

Inputs are seeded and cover the primes 2, 3, 5, 23 and 2^31 - 1,
denominators w > 1, a nonzero sqrt p part, negative valuations and
coordinates of up to 10^4 bits.
"""

import math
import random
from fractions import Fraction

import pytest

from conftest import spy
from padicglue import KElement, field, reduce_mod
from padicglue.field import (
    _element, _inverse_pair, _mul, _point, _quotient, _sub, _twice_val_over, _v2,
)

SEED = 20261019
PRIMES = [2, 3, 5, 23, 2**31 - 1]
BITS = [1, 8, 64, 1_000, 10_000]  # coordinate sizes drawn from


def model_mul(p, x, y):
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 + p * b1 * b2, a1 * b2 + b1 * a2


def model_inverse(p, x):
    # (a + b s)(a - b s) = a^2 - p b^2, a nonzero rational for x != 0
    a, b = x
    n = a * a - p * b * b
    return a / n, -b / n


def model_pow(p, x, n):
    base = model_inverse(p, x) if n < 0 else x
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = model_mul(p, out, base)
    return out


def rational_val(p, q):
    """v_p(q) for a nonzero rational q, one division by p at a time."""
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def model_val(p, x):
    """The valuation of a + b sqrt p, None for 0: v(a) is an integer and
    v(b sqrt p) a half-integer, so the two never tie."""
    a, b = x
    vals = [Fraction(rational_val(p, a)) if a else None,
            rational_val(p, b) + Fraction(1, 2) if b else None]
    vals = [v for v in vals if v is not None]
    return min(vals) if vals else None


def coordinate(rng, p):
    """A rational of up to 10^4 bits, zero now and then, whose numerator or
    denominator carries a power of p; the denominator is often > 1."""
    if rng.random() < 0.15:
        return Fraction(0)
    bits = rng.choice(BITS)
    num = rng.getrandbits(bits) | 1
    den = rng.getrandbits(rng.choice(BITS[:3])) | 1 if rng.random() < 0.6 else 1
    e = rng.randint(-6, 6)
    scale = Fraction(p**e) if e >= 0 else Fraction(1, p**-e)
    return rng.choice((-1, 1)) * Fraction(num, den) * scale


def pair(rng, p):
    # the sqrt p part is nonzero two times in three
    return coordinate(rng, p), coordinate(rng, p) if rng.random() < 0.67 else Fraction(0)


def coords(x):
    return x.a, x.b


def check_valuation(p, x, want):
    v = x.valuation()
    if want is None:
        assert v.is_infinite and x.is_zero
    else:
        assert v.exp == want


def closed(p, x):
    """The coordinates of an arithmetic result, which must be a K element
    of its operands' p with Fraction coordinates, as `__init__` stores
    them: the operators build through the trusted `KElement._of`."""
    assert type(x) is KElement and x.p == p
    assert type(x.a) is type(x.b) is Fraction
    return coords(x)


@pytest.mark.parametrize("p", PRIMES)
def test_kelement_matches_the_pair_model(p):
    rng = random.Random(f"{SEED}/{p}")
    for _ in range(30):
        mx, my = pair(rng, p), pair(rng, p)
        x, y = KElement(p, *mx), KElement(p, *my)
        assert coords(x) == mx
        n, q = rng.randint(-10**6, 10**6), Fraction(rng.randint(1, 99), rng.randint(1, 99))

        assert closed(p, x + y) == (mx[0] + my[0], mx[1] + my[1])
        assert closed(p, x - y) == (mx[0] - my[0], mx[1] - my[1])
        assert closed(p, -x) == (-mx[0], -mx[1])
        assert closed(p, x * y) == model_mul(p, mx, my)
        assert closed(p, n + x) == (n + mx[0], mx[1])
        assert closed(p, q - x) == (q - mx[0], -mx[1])
        assert closed(p, x * q) == (mx[0] * q, mx[1] * q)

        for e in (0, 1, 2, 5):
            assert closed(p, x**e) == model_pow(p, mx, e)
        if x.is_zero:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            with pytest.raises(ZeroDivisionError):
                x**-1
        else:
            assert closed(p, x.inverse()) == model_inverse(p, mx)
            for e in (-1, -2, -3):
                assert closed(p, x**e) == model_pow(p, mx, e)

        for z, mz in ((x, mx), (y, my), (x * y, model_mul(p, mx, my)), (x - x, (0, 0))):
            check_valuation(p, z, model_val(p, mz))


@pytest.mark.parametrize("p", PRIMES)
def test_arithmetic_inside_k_validates_nothing(p, monkeypatch):
    # validation runs where a value enters K; sums, differences, products,
    # negations and inverses of elements of one prime check no prime
    rng = random.Random(f"{SEED}/trusted/{p}")
    xs = [KElement(p, *pair(rng, p)) for _ in range(8)]
    checked = spy(monkeypatch, field, "_check_prime")
    for x, y in zip(xs, xs[1:]):
        results = [
            x + y, x - y, x * y, -x,
            y.__radd__(x), y.__rsub__(x), y.__rmul__(x),
        ]
        if not x.is_zero:
            results.append(x.inverse())
        for r in results:
            closed(p, r)
    assert checked == []
    # an int or a Fraction operand enters K through `_coerce`
    x = xs[0]
    closed(p, x + 1)
    closed(p, x * Fraction(1, 3))
    assert [args for args, _ in checked] == [(p,), (p,)]
    with pytest.raises(ValueError, match=f"mixed primes: {p} and 7"):
        x + KElement(7, 1)  # 7 is not among PRIMES


@pytest.mark.parametrize("p", PRIMES)
def test_equality_and_hash_follow_the_coordinates(p):
    rng = random.Random(f"{SEED}/eq/{p}")
    assert hash(KElement(p, 2)) == hash(2) and KElement(p, 2) == 2
    assert hash(KElement(p, Fraction(-7, 3))) == hash(Fraction(-7, 3))
    for _ in range(30):
        mx, my = pair(rng, p), pair(rng, p)
        x, y = KElement(p, *mx), KElement(p, *my)
        assert (x == y) == (mx == my)
        # one value reached two ways: equal, with equal hashes
        s, t = (x + y) * y, x * y + y * y
        assert s == t and hash(s) == hash(t)
        assert x != x + KElement(p, 0, 1) and x != x + 1
        if mx[1] == 0:
            assert x == mx[0] and hash(x) == hash(mx[0])
            # a rational value is the same number in every field
            assert x == KElement(7, mx[0])  # 7 is not among PRIMES
        else:
            assert x != mx[0] and x != KElement(7, *mx)


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_mod_stays_within_p_to_the_m(p):
    rng = random.Random(f"{SEED}/reduce/{p}")
    for _ in range(30):
        mx = pair(rng, p)
        x = KElement(p, *mx)
        m = rng.randint(-8, 40)
        r = reduce_mod(x, m)
        diff = (mx[0] - r.a, mx[1] - r.b)
        v = model_val(p, diff)
        assert v is None or v >= m, (str(x), m)
        # canonical: it depends only on the class of x modulo p^m
        y = KElement(p, rng.randint(1, p * p) * Fraction(p) ** m,
                     rng.randint(1, p * p) * Fraction(p) ** m)
        assert reduce_mod(x + y, m) == r
        assert reduce_mod(r, m) == r


def model_round(p, q, m):
    """The canonical representative of a rational q modulo p^m: 0 when
    v(q) >= m, else p^v times the residue in [1, p^(m - v)) of the unit
    q / p^v, v = v(q)."""
    if not q:
        return Fraction(0)
    v = rational_val(p, q)
    if v >= m:
        return Fraction(0)
    unit, mod = q / Fraction(p) ** v, p ** (m - v)
    return Fraction(p) ** v * (unit.numerator * pow(unit.denominator, -1, mod) % mod)


def over(x, d):
    # the model pair of (x_0 + x_1 sqrt p)/d for integers
    return Fraction(x[0], d), Fraction(x[1], d)


@pytest.mark.parametrize("p", PRIMES)
def test_triples_round_trip(p):
    rng = random.Random(f"{SEED}/triple/{p}")
    for _ in range(30):
        mx = pair(rng, p)
        x = KElement(p, *mx)
        u, v, w = _point(p, x)
        assert w > 0 and over((u, v), w) == mx
        # the least common denominator: no prime divides all three
        assert math.gcd(u, v, w) == 1
        assert _point(p, mx[0]) == _point(p, KElement(p, mx[0]))
        y = _element(p, u, v, w)
        assert y == x and coords(y) == mx
        # an unreduced triple, scaled by a power of p and a cofactor, is the same element
        k = rng.choice((-1, 1)) * p ** rng.randint(0, 4) * rng.randint(1, 10**6)
        assert coords(_element(p, u * k, v * k, w * k)) == mx
    with pytest.raises(ValueError, match="mixed primes"):
        _point(p, KElement(7, 1, 1))  # 7 is not among PRIMES


@pytest.mark.parametrize("p", PRIMES)
def test_the_valuation_formula(p):
    # 2 v((u + v sqrt p)/w) = _twice_val - 2 v_p(w), on reduced and
    # unreduced triples alike, and infinite at 0
    rng = random.Random(f"{SEED}/twice/{p}")
    for _ in range(30):
        mx = pair(rng, p)
        u, v, w = _point(p, KElement(p, *mx))
        want = model_val(p, mx)
        want = math.inf if want is None else 2 * want
        k = p ** rng.randint(0, 6) * rng.randint(1, 10**6)
        assert _twice_val_over(p, (u, v), w) == _twice_val_over(p, (u * k, v * k), w * k) == want
        assert _v2(KElement(p, *mx)) == want
    assert _twice_val_over(p, (0, 0), p**5) == math.inf


@pytest.mark.parametrize("p", PRIMES)
def test_pair_kernels_match_fraction_arithmetic(p):
    rng = random.Random(f"{SEED}/pairs/{p}")
    for _ in range(30):
        x, y = (_point(p, KElement(p, *pair(rng, p)))[:2] for _ in range(2))
        mx, my = over(x, 1), over(y, 1)
        assert over(_mul(p, x, y), 1) == model_mul(p, mx, my)
        assert over(_sub(x, y), 1) == (mx[0] - my[0], mx[1] - my[1])
        if not any(y):
            continue
        *q, d = _quotient(p, x, y)
        assert d != 0 and over(q, d) == model_mul(p, mx, model_inverse(p, my))
        c, d = _inverse_pair(p, y)
        assert d != 0 and over(c, d) == model_inverse(p, my)


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_mod_rounds_each_coordinate_canonically(p):
    # the two coordinates' denominators carry different powers of p, so
    # the common denominator w has the p-power of one of them only, and
    # the rounding must divide by all of it
    rng = random.Random(f"{SEED}/round/{p}")
    for trial in range(40):
        i, j = rng.sample(range(0, 7), 2)
        if trial % 2:
            i, j = j, i
        a, b = (coordinate(rng, p) / p**k for k in (i, j))
        if trial % 5 == 0:
            a = Fraction(0)
        m = rng.randint(-max(i, j) - 2, 12)
        r = reduce_mod(KElement(p, a, b), m)
        assert coords(r) == (model_round(p, a, m), model_round(p, b, m)), (trial, m)
