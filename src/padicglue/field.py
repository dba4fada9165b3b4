"""Exact arithmetic in K = Q(sqrt p), the coefficient field of the construction.

With rational ball centers and radius exponents restricted to integers,
every constant the planner needs (half-integral powers of p in particular)
lies in the ramified quadratic extension K.  Its value group is (1/2)Z, so
valuations are represented as exact half-integers, never floats.

Elements are immutable pairs (a, b) of Fractions denoting a + b*sqrt(p).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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


# factors of p stripped one at a time before _int_val starts doubling
_LINEAR_VAL = 4


def _int_val(n: int, p: int) -> int:
    # p-adic valuation of a nonzero integer: one division per factor while
    # the valuation is small, then O(log v) divisions instead of v
    v = 0
    while n % p == 0:
        n //= p
        v += 1
        if v == _LINEAR_VAL:
            break
    else:
        return v
    # strip p^b for b = 8, 16, 32, ... while it divides; the first that does
    # not leaves r = n mod p^b, far shorter than a long n, with v_p(r) < b
    b = 2 * _LINEAR_VAL
    while True:
        q, r = divmod(n, p**b)
        if r:
            return v + _int_val(r, p)
        n = q
        v += b
        b *= 2


def _rat_val(q: Fraction, p: int) -> int:
    # p-adic valuation of a nonzero rational
    return _int_val(q.numerator, p) - _int_val(q.denominator, p)


class ValExp:
    """Valuation exponent: an exact element of (1/2)Z, or +infinity (for 0).

    Encodes |x| = p^(-e); a larger exponent means a smaller absolute value.
    This one type carries every such quantity: valuations, sup-norm bounds,
    and the radii, separations and tolerances of the gluing construction.
    Infinity absorbs addition and compares above every finite exponent.
    Comparisons and addition also accept plain ints and Fractions, and the
    constructor accepts an existing ValExp.
    """

    __slots__ = ("exp",)

    exp: Fraction | None

    def __init__(self, exp: "ValExp | Fraction | int | str | None"):
        if isinstance(exp, ValExp):
            exp = exp.exp
        if exp is None:
            object.__setattr__(self, "exp", None)
            return
        e = Fraction(exp)
        if e.denominator not in (1, 2):
            raise ValueError(f"valuation exponent must lie in (1/2)Z, got {e}")
        object.__setattr__(self, "exp", e)

    def __setattr__(self, name, value):
        raise AttributeError("ValExp is immutable")

    @classmethod
    def infinite(cls) -> "ValExp":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.exp is None

    def _key(self):
        return (1, Fraction(0)) if self.exp is None else (0, self.exp)

    @staticmethod
    def _other_key(other):
        if isinstance(other, ValExp):
            return other._key()
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return (0, Fraction(other))
        return None

    def __eq__(self, other):
        k = self._other_key(other)
        return NotImplemented if k is None else self._key() == k

    def __hash__(self):
        if self.exp is None:
            return hash(("ValExp", "inf"))
        return hash(self.exp)

    def __lt__(self, other):
        k = self._other_key(other)
        return NotImplemented if k is None else self._key() < k

    def __le__(self, other):
        k = self._other_key(other)
        return NotImplemented if k is None else self._key() <= k

    def __gt__(self, other):
        k = self._other_key(other)
        return NotImplemented if k is None else self._key() > k

    def __ge__(self, other):
        k = self._other_key(other)
        return NotImplemented if k is None else self._key() >= k

    def __add__(self, other):
        if isinstance(other, ValExp):
            if self.exp is None or other.exp is None:
                return ValExp(None)
            return ValExp(self.exp + other.exp)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if self.exp is None:
                return ValExp(None)
            return ValExp(self.exp + Fraction(other))
        return NotImplemented

    def __sub__(self, other):
        o = other if isinstance(other, ValExp) else ValExp(other)
        if o.exp is None:
            raise ValueError("cannot subtract an infinite exponent")
        if self.exp is None:
            return ValExp(None)
        return ValExp(self.exp - o.exp)

    def __mul__(self, k):
        if not isinstance(k, (int, Fraction)) or isinstance(k, bool):
            return NotImplemented
        if self.exp is None:
            if k <= 0:
                raise ValueError("cannot scale an infinite exponent by a nonpositive factor")
            return ValExp(None)
        return ValExp(self.exp * Fraction(k))

    __rmul__ = __mul__

    def __neg__(self):
        if self.exp is None:
            raise ValueError("cannot negate an infinite exponent")
        return ValExp(-self.exp)

    def __str__(self):
        return "inf" if self.exp is None else str(self.exp)

    def __repr__(self):
        return f"ValExp({self})"


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

    def __setattr__(self, name, value):
        raise AttributeError("KElement is immutable")

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
        return KElement(self.p, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return KElement(self.p, self.a - o.a, self.b - o.b)

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
        return KElement(
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
        return KElement(self.p, self.a / n, -self.b / n)

    def __neg__(self):
        return KElement(self.p, -self.a, -self.b)

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
        if self.is_zero:
            return ValExp(None)
        cands = []
        if self.a:
            cands.append(Fraction(_rat_val(self.a, self.p)))
        if self.b:
            cands.append(_rat_val(self.b, self.p) + Fraction(1, 2))
        # The two candidate exponents always differ (one is integral, the
        # other is not), so the minimum is attained exactly once and no
        # cancellation can raise the valuation.
        return ValExp(min(cands))

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


def _coord_mod(num: int, den: int, vden: int, p: int, m: int) -> Fraction:
    # canonical representative of num/den modulo p^m, for integers num and
    # den != 0 in any common scale and vden = v_p(den): p^v * (unit residue)
    # with v = v_p(num/den), exact and congruent: v_p(num/den - result) >= m.
    # Only num mod p^(m + vden) decides it, so a long num is cut to that
    # first.  The residue depends only on the value num/den, so reduced and
    # unreduced inputs give the same result.
    t = m + vden
    if t <= 0:
        return Fraction(0)  # v >= -vden >= m
    num %= p**t
    if not num:
        return Fraction(0)  # v_p(num) >= t, so v >= m
    vnum = _int_val(num, p)
    v = vnum - vden
    mod = p ** (m - v)
    unit_den = den % (p**vden * mod) // p**vden
    r = num // p**vnum * pow(unit_den, -1, mod) % mod
    if v >= 0:
        return Fraction(r * p**v)
    return Fraction(r, p**(-v))


def reduce_mod(x: KElement, m: int) -> KElement:
    """Canonical small representative congruent to x modulo p^m.

    The difference x - reduce_mod(x, m) has valuation >= m.  Used to keep
    Newton iterates and orbit points at bounded height; all recorded
    valuations stay exact as long as they sit below the working precision.
    """
    p = x.p
    return KElement(
        p,
        _coord_mod(x.a.numerator, x.a.denominator, _int_val(x.a.denominator, p), p, m),
        _coord_mod(x.b.numerator, x.b.denominator, _int_val(x.b.denominator, p), p, m),
    )


def uniformizer_power(p: int, e) -> KElement:
    """The canonical element of valuation e: sqrt(p)^(2e) for e in (1/2)Z.

    Integral e gives p^e; half-integral e gives p^floor(e) * sqrt(p).
    """
    _check_prime(p)
    e = ValExp(e).exp
    if e is None:
        raise ValueError("no uniformizer power has infinite valuation")
    t = e.numerator if e.denominator == 2 else 2 * e.numerator
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
