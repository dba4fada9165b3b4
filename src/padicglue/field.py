"""Exact arithmetic in K = Q(sqrt p), the coefficient field of the construction.

With rational ball centers and radius exponents restricted to integers,
every constant the planner needs (half-integral powers of p in particular)
lies in the ramified quadratic extension K.  Its value group is (1/2)Z, so
a valuation e is held exactly as the integer 2e (ValExp), K's own
valuation with v(sqrt p) = 1; the valuation of 0 is math.inf.

Elements are immutable pairs (a, b) of Fractions denoting a + b*sqrt(p).
The kernels hold one as its integer triple (u, v, w) for (u + v sqrt p)/w
(`_point`, `_element`) and compute on Z[sqrt p] pairs; every valuation is
2 v((u + v sqrt p)/w) = `_twice_val` - 2 v_p(w) (`_twice_val_over`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm

from .errors import LimitExceeded

__all__ = [
    "FieldConfig",
    "KElement",
    "ValExp",
    "is_prime",
    "reduce_mod",
    "uniformizer_power",
]


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for the small primes used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_prime(p) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"p must be a prime integer, got {p!r}")


@lru_cache(maxsize=None)
def _digit_power(p: int) -> tuple:
    """(q, k, logs, rungs): q = p^k the largest power of p below
    2^bits_per_digit, so that q fits one CPython digit, with k >= 1 (a
    prime too large for one digit, 2^31 - 1 on 30-bit digits, gets q = p),
    logs mapping p^j to j for j <= k, and rungs the list q, q^2, q^4, ...
    that `_int_val` climbs and descends, squared on demand and kept."""
    q, k, top = p, 1, 1 << sys.int_info.bits_per_digit
    while q * p < top:
        q, k = q * p, k + 1
    return q, k, {p**j: j for j in range(k + 1)}, [q]


def _int_val(n: int, p: int) -> int:
    """The p-adic valuation of a nonzero integer n.

    One division by the one-digit q = p^k (`_digit_power`) leaves r = n mod
    q, and a valuation below k is read off the word-size r at once: it is
    the exponent of gcd(r, q) = p^v.  Only a run of k or more factors
    climbs: n is divided by q, q^2, q^4, ... (the rungs) while they divide.
    The remainder of the first that does not has n's valuation and is far
    shorter; the descent through the lower rungs divides it where a rung
    divides and keeps the remainder where it does not, so the valuation is
    read in binary, and the last remainder mod q, one word, gives the rest.
    """
    q, k, logs, rungs = _digit_power(p)
    r = n % q
    if r:
        return logs[gcd(r, q)]
    n, v, i = n // q, k, 1
    while True:
        if i == len(rungs):
            rungs.append(rungs[-1] * rungs[-1])
        t, r = divmod(n, rungs[i])
        if r:
            break
        n, v, i = t, v + (k << i), i + 1
    # v_q(r) < 2^i: each lower rung either divides r or leaves a remainder
    # of the same valuation
    while i:
        i -= 1
        t, s = divmod(r, rungs[i])
        if s:
            r = s
        else:
            r, v = t, v + (k << i)
    return v + logs[gcd(r % q, q)]


def _v2(c: KElement):
    """2 v(c), an integer, or math.inf for c = 0, so that bounds add and
    compare as they are: the valuation of c's `_point` triple."""
    u, v, w = _point(c.p, c)
    return _twice_val_over(c.p, (u, v), w)


def _twice_val(p: int, x: tuple) -> int:
    """2 v(a + b sqrt p) = min(2 v(a), 2 v(b) + 1) for an integer pair
    x = (a, b) != (0, 0): the two terms' valuations differ in parity.

    Valuations below k, for the one-digit q = p^k, are read off residues
    mod q (a residue of 0 reads k and loses), and below 2k off those of
    a/q and b/q.  Past that, one ladder reads v(b), and a mod p^(v(b) + 1)
    decides: 0 when 2 v(b) + 1 wins, else a short remainder of a's
    valuation.
    """
    a, b = x
    if not b:
        return 2 * _int_val(a, p)
    if not a:
        return 2 * _int_val(b, p) + 1
    q, k, logs, _ = _digit_power(p)
    ra, rb = a % q, b % q
    if ra or rb:
        return min(2 * logs[gcd(ra, q)], 2 * logs[gcd(rb, q)] + 1)
    a, b = a // q, b // q
    ra, rb = a % q, b % q
    if ra or rb:
        return 2 * k + min(2 * logs[gcd(ra, q)], 2 * logs[gcd(rb, q)] + 1)
    vb = _int_val(b, p)
    r = a % p ** (vb + 1)
    return 2 * k + (2 * _int_val(r, p) if r else 2 * vb + 1)


def _twice_val_over(p: int, x: tuple, d: int):
    """2 v((a + b sqrt p)/d) = `_twice_val(p, x)` - 2 v_p(d) for an integer
    pair x = (a, b) and an integer d != 0, or math.inf for x = (0, 0)."""
    return _twice_val(p, x) - 2 * _int_val(d, p) if any(x) else inf


class ValExp:
    """Valuation exponent: an exact element of (1/2)Z, or +infinity (for 0).

    Encodes |x| = p^(-e); a larger exponent means a smaller absolute value.
    This one type carries every such quantity: valuations, sup-norm bounds,
    and the radii, separations and tolerances of the gluing construction.
    It holds t = 2e, K's own integer valuation (v(sqrt p) = 1), or math.inf
    for an infinite exponent, so comparisons and addition run on ints and
    infinity absorbs addition and compares above every finite exponent.
    Comparisons and addition also accept plain ints and Fractions, and the
    constructor accepts an existing ValExp.
    """

    __slots__ = ("t",)

    t: int | float

    def __init__(self, exp: "ValExp | Fraction | int | str | None"):
        if isinstance(exp, ValExp):
            t = exp.t
        elif exp is None:
            t = inf
        else:
            e = Fraction(exp)
            if e.denominator not in (1, 2):
                raise ValueError(f"valuation exponent must lie in (1/2)Z, got {e}")
            t = 2 * e.numerator // e.denominator
        object.__setattr__(self, "t", t)

    @classmethod
    def twice(cls, t: int | float) -> ValExp:
        """The exponent t/2, for an int t or math.inf, unchecked."""
        v = object.__new__(cls)
        object.__setattr__(v, "t", t)
        return v

    def __setattr__(self, name, value):
        raise AttributeError("ValExp is immutable")

    def __reduce__(self):
        return ValExp.twice, (self.t,)

    @classmethod
    def infinite(cls) -> "ValExp":
        return cls.twice(inf)

    @property
    def exp(self) -> Fraction | None:
        return None if self.t == inf else Fraction(self.t, 2)

    @property
    def is_infinite(self) -> bool:
        return self.t == inf

    @staticmethod
    def _other_t(other):
        if isinstance(other, ValExp):
            return other.t
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return 2 * other
        return None

    def __eq__(self, other):
        t = self._other_t(other)
        return NotImplemented if t is None else self.t == t

    def __hash__(self):
        return hash(("ValExp", "inf")) if self.t == inf else hash(Fraction(self.t, 2))

    def __lt__(self, other):
        t = self._other_t(other)
        return NotImplemented if t is None else self.t < t

    def __le__(self, other):
        t = self._other_t(other)
        return NotImplemented if t is None else self.t <= t

    def __gt__(self, other):
        t = self._other_t(other)
        return NotImplemented if t is None else self.t > t

    def __ge__(self, other):
        t = self._other_t(other)
        return NotImplemented if t is None else self.t >= t

    def __add__(self, other):
        if isinstance(other, ValExp):
            return ValExp.twice(self.t + other.t)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self if self.t == inf else ValExp(self.exp + other)
        return NotImplemented

    def __sub__(self, other):
        o = other if isinstance(other, ValExp) else ValExp(other)
        if o.t == inf:
            raise ValueError("cannot subtract an infinite exponent")
        return ValExp.twice(self.t - o.t)

    def __mul__(self, k):
        if not isinstance(k, (int, Fraction)) or isinstance(k, bool):
            return NotImplemented
        if self.t == inf:
            if k <= 0:
                raise ValueError("cannot scale an infinite exponent by a nonpositive factor")
            return self
        return ValExp.twice(self.t * k) if type(k) is int else ValExp(self.exp * k)

    __rmul__ = __mul__

    def __neg__(self):
        if self.t == inf:
            raise ValueError("cannot negate an infinite exponent")
        return ValExp.twice(-self.t)

    def __str__(self):
        return "inf" if self.t == inf else str(Fraction(self.t, 2))

    def __repr__(self):
        return f"ValExp({self})"


# spot-check witnesses and orbit tables repeat a few exponents from sample
# to sample and from step to step; one shared (immutable) ValExp per
# exponent builds each once and keeps a table that its caller holds on to
# about 15% smaller
_shared_exp = lru_cache(maxsize=1024)(ValExp.twice)


class KElement:
    """An element a + b*sqrt(p) of K, with exact rational a and b."""

    __slots__ = ("p", "a", "b")

    p: int
    a: Fraction
    b: Fraction

    def __init__(self, p: int, a=0, b=0):
        _check_prime(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    @classmethod
    def _of(cls, p: int, a: Fraction, b: Fraction) -> KElement:
        """a + b sqrt p for a prime p and Fractions a and b, stored as they
        are: the trusted constructor, without `__init__`'s prime check and
        conversions, for kernels whose p and coordinates are known good.
        K's own sums, differences, products, negations and inverses build
        through it: `_coerce` has matched the primes, and Fraction
        arithmetic returns Fractions.  Values are validated where they
        enter K: `__init__`, `_coerce` of an int or Fraction, `_element`
        and the JSON readers."""
        x = object.__new__(cls)
        object.__setattr__(x, "p", p)
        object.__setattr__(x, "a", a)
        object.__setattr__(x, "b", b)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("KElement is immutable")

    def __reduce__(self):
        return KElement, (self.p, self.a, self.b)

    # -- basic predicates -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, KElement):
            if other.p != self.p:
                raise ValueError(f"mixed primes: {self.p} and {other.p}")
            return other
        if isinstance(other, bool):
            return None
        if isinstance(other, (int, Fraction)):
            return KElement(self.p, other)
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return KElement._of(self.p, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return KElement._of(self.p, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a1 + b1 s)(a2 + b2 s) with s^2 = p
        return KElement._of(
            self.p,
            self.a * o.a + self.p * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "KElement":
        if self.is_zero:
            raise ZeroDivisionError("division by zero in K")
        # 1/(a + b s) = (a - b s)/(a^2 - p b^2); the norm is a nonzero rational
        # because sqrt(p) is irrational.
        n = self.a * self.a - self.p * self.b * self.b
        return KElement._of(self.p, self.a / n, -self.b / n)

    def __neg__(self):
        return KElement._of(self.p, -self.a, -self.b)

    def __pow__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        out = KElement(self.p, 1)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- valuation ----------------------------------------------------------

    def valuation(self) -> ValExp:
        """Exact valuation in (1/2)Z, with v(sqrt p) = 1/2; v(0) = infinity."""
        return ValExp.twice(_v2(self))

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, KElement):
            if self.a != other.a or self.b != other.b:
                return False
            # same rational value counts as equal across primes; a sqrt part
            # only matches within the same field
            return self.b == 0 or self.p == other.p
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.p))

    # -- display --------------------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        if self.a:
            parts.append(_rational_str(self.a))
        if self.b:
            b = abs(self.b)
            mag = f"{_rational_str(b)}*sqrt({self.p})" if b != 1 else f"sqrt({self.p})"
            if not parts:
                parts.append(mag if self.b > 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if self.b > 0 else f"- {mag}")
        return " ".join(parts)

    def __repr__(self):
        return f"KElement(p={self.p}, a={self.a}, b={self.b})"


def _rational_str(q: Fraction) -> str:
    """str(q) for a coordinate; every printed or written K element goes
    through here.  Python refuses to print an integer of more digits than
    sys.get_int_max_str_digits(), and that ValueError becomes LimitExceeded."""
    try:
        return str(q)
    except ValueError:
        raise LimitExceeded(
            f"a value of more than {sys.get_int_max_str_digits()} digits cannot be printed"
        ) from None


# -- the integer form: triples and Z[sqrt p] pairs ------------------------------


def _point(p: int, x) -> tuple:
    """Integers (u, v, w), w > 0, with x = (u + v sqrt p)/w."""
    if not isinstance(x, KElement):
        x = KElement(p, x)
    elif x.p != p:
        raise ValueError(f"mixed primes: {p} and {x.p}")
    a, b = x.a, x.b
    da, db = a.denominator, b.denominator
    if da == db:
        return a.numerator, b.numerator, da
    w = lcm(da, db)
    return a.numerator * (w // da), b.numerator * (w // db), w


def _gap(p: int, x: tuple, y: tuple) -> ValExp:
    """v(x - y) for `_point` triples x = (u, v, w) and y = (u', v', w'):
    x - y = (u w' - u' w + (v w' - v' w) sqrt p)/(w w'), as a shared
    ValExp (`_shared_exp`)."""
    (u, v, w), (u1, v1, w1) = x, y
    return _shared_exp(_twice_val_over(p, (u * w1 - u1 * w, v * w1 - v1 * w), w * w1))


def _element(p: int, xa: int, xb: int, den: int) -> KElement:
    """The reduced K element (xa + xb sqrt p)/den."""
    return KElement(p, Fraction(xa, den), Fraction(xb, den))


def _mul(p: int, x: tuple, y: tuple) -> tuple:
    """The product of two Z[sqrt p] pairs."""
    (a, b), (c, d) = x, y
    return a * c + p * b * d, a * d + b * c


def _sub(x: tuple, y: tuple) -> tuple:
    return x[0] - y[0], x[1] - y[1]


def _inverse_pair(p: int, x: tuple) -> tuple:
    """(c, d) with 1/(a + b sqrt p) = (c_0 + c_1 sqrt p)/d for a pair
    x = (a, b) != (0, 0): c = (1, 0) and d = a when b = 0, else the
    conjugate and the norm a^2 - p b^2, nonzero as sqrt p is irrational."""
    a, b = x
    return ((1, 0), a) if not b else ((a, -b), a * a - p * b * b)


def _quotient(p: int, num: tuple, den: tuple) -> tuple:
    """num/den for Z[sqrt p] pairs, den != (0, 0), in one division.

    Returns integers (xa, xb, d), d != 0, with num/den = (xa + xb sqrt p)/d,
    not reduced to lowest terms.  Multiplies through by the conjugate of
    den = a + b sqrt p; its norm a^2 - p b^2 is nonzero since sqrt p is
    irrational."""
    (na, nb), (da, db) = num, den
    return na * da - p * nb * db, nb * da - na * db, da * da - p * db * db


def _twice_val_at_least(p: int, n: tuple, q: tuple, c: tuple, r: int) -> bool:
    """Whether 2 v(n cw - (cu + cv sqrt p) q) >= r, for Z[sqrt p] pairs n
    and q and a point triple c = (cu, cv, cw), decided by divisibility.

    The difference is a pair (x, y) with 2 v(x + y sqrt p) =
    min(2 v(x), 2 v(y) + 1), so the test is that p^ceil(r/2) divides x and
    p^floor(r/2) divides y; r <= 0 always passes.  Every input is reduced
    mod p^ceil(r/2) first, so the products stay short however long n and q
    are, and no valuation is computed.
    """
    if r <= 0:
        return True
    m = p ** ((r + 1) // 2)
    (na, nb), (qa, qb), (cu, cv, cw) = n, q, c
    na, nb, qa, qb, cu, cv, cw = na % m, nb % m, qa % m, qb % m, cu % m, cv % m, cw % m
    if (na * cw - cu * qa - p * cv * qb) % m:
        return False
    return (nb * cw - cu * qb - cv * qa) % (m if r % 2 == 0 else m // p) == 0


def _unit_inverse(a: int, p: int, s: int) -> int:
    # a^-1 mod p^s, s >= 1, for an integer a prime to p: from a^-1 mod p,
    # each x <- x (2 - a x) doubles the digits that are right, which beats
    # pow(a, -1, p^s) several times over at hundreds of digits
    x, k = pow(a % p, -1, p), 1
    while k < s:
        k = min(2 * k, s)
        m = p**k
        x = x * (2 - a % m * x) % m
    return x


def _coords_mod(nums: tuple, den: int, vden: int, p: int, m: int) -> tuple:
    # canonical representative of num/den modulo p^m for each num in nums,
    # for integers num and den != 0 in any common scale and vden = v_p(den):
    # p^v * (unit residue) with v = v_p(num/den), exact and congruent:
    # v_p(num/den - result) >= m.  Only num mod p^(m + vden) and den mod
    # p^(m + 2 vden) decide it, so long inputs are cut to those first.  A
    # result needs its unit residue mod p^(m - v) only, so the unit part of
    # den is inverted once, mod p^(m - min v) over the nonzero results.
    # The residue depends only on the value num/den, so reduced and
    # unreduced inputs give the same result.
    t = m + vden
    if t <= 0:
        return (Fraction(0),) * len(nums)  # v >= -vden >= m
    mod_t = p**t
    cut = [num % mod_t for num in nums]
    # v_p(num) >= t, so v >= m, exactly where num is 0 mod p^t
    vnums = [_int_val(num, p) if num else t for num in cut]
    s = t - min(vnums)
    if s <= 0:
        return (Fraction(0),) * len(nums)
    pv = p**vden
    inv = _unit_inverse(den % (pv * p**s) // pv, p, s)
    out = []
    for num, vnum in zip(cut, vnums):
        if vnum == t:
            out.append(Fraction(0))
            continue
        v = vnum - vden
        r = num // p**vnum * inv % p ** (m - v)
        out.append(Fraction(r * p**v) if v >= 0 else Fraction(r, p**(-v)))
    return tuple(out)


def reduce_mod(x: KElement, m: int) -> KElement:
    """Canonical small representative congruent to x modulo p^m.

    The difference x - reduce_mod(x, m) has valuation >= m.  Used to keep
    Newton iterates and orbit points at bounded height; all recorded
    valuations stay exact as long as they sit below the working precision.
    """
    p = x.p
    u, v, w = _point(p, x)
    return KElement(p, *_coords_mod((u, v), w, _int_val(w, p), p, m))


def uniformizer_power(p: int, e) -> KElement:
    """The canonical element of valuation e: sqrt(p)^(2e) for e in (1/2)Z.

    Integral e gives p^e; half-integral e gives p^floor(e) * sqrt(p).
    """
    _check_prime(p)
    t = ValExp(e).t
    if t == inf:
        raise ValueError("no uniformizer power has infinite valuation")
    if t % 2 == 0:
        return KElement(p, Fraction(p) ** (t // 2))
    return KElement(p, 0, Fraction(p) ** ((t - 1) // 2))


@dataclass(frozen=True)
class FieldConfig:
    """A choice of prime p, fixing the field K = Q(sqrt p)."""

    p: int

    def __post_init__(self):
        _check_prime(self.p)

    def __call__(self, a=0, b=0) -> KElement:
        return KElement(self.p, a, b)
