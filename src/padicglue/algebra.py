"""Polynomials and rational maps over K, with valuation-theoretic tools.

Root counting never factorizes anything: root counts in a ball and Gauss
norms over it are both read off one min-plus scan of the recentered
coefficients (see count_roots_with_min_valuation), exactly.  A Poly is
stored in integers, as (1/D) sum (A_k + B_k sqrt p) z^k, and sums,
products, division, contents and evaluations all run on that form; only
the Taylor shift runs on K elements, read off the Poly's `coeffs` view.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, inf, isqrt, lcm
from operator import add, mul

from .field import (
    KElement, ValExp, _element, _int_val, _inverse_pair, _mul, _point, _quotient, _sub,
    _twice_val, _v2, is_prime,
)

__all__ = [
    "Poly",
    "RationalMap",
    "count_roots_with_min_valuation",
    "gauss_norm_exp",
    "poly_gcd",
]


class Poly:
    """Dense polynomial over K with exact coefficients.

    Stored as P = (1/D) sum (A_k + B_k sqrt p) z^k in integers: `pairs` is
    ((A_0, B_0), ...) with trailing zeros stripped, and D > 0 the least
    common denominator, so the zero polynomial has no pairs, D = 1 and
    degree -1.  `coeffs` views the same coefficients as K elements,
    ascending; it is built on first read and kept.
    """

    __slots__ = ("p", "D", "pairs", "_coeffs", "_v2s", "_shifts")

    p: int
    D: int
    pairs: tuple

    def __new__(cls, p: int, coeffs=()):
        points = [_point(p, c) for c in coeffs]
        D = lcm(*[w for _, _, w in points])
        return _poly(p, D, [(u * (D // w), v * (D // w)) for u, v, w in points])

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # the view, the valuations and the shifts are rebuilt on demand
        return _poly, (self.p, self.D, self.pairs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "Poly":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "Poly":
        return cls(p, (1,))

    @classmethod
    def constant(cls, p: int, c) -> "Poly":
        return cls(p, (c,))

    @classmethod
    def x(cls, p: int) -> "Poly":
        return cls(p, (0, 1))

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        if not hasattr(self, "_coeffs"):
            view = tuple(_element(self.p, A, B, self.D) for A, B in self.pairs)
            object.__setattr__(self, "_coeffs", view)
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self.pairs

    @property
    def degree(self) -> int:
        return len(self.pairs) - 1

    @property
    def lead(self) -> KElement:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return _element(self.p, *self.pairs[-1], self.D)

    def coeff(self, k: int) -> KElement:
        return self.coeffs[k] if 0 <= k < len(self.pairs) else KElement(self.p)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.p != self.p:
                raise ValueError(f"mixed primes: {self.p} and {other.p}")
            return other
        if isinstance(other, bool):
            return None
        if isinstance(other, (int, Fraction, KElement)):
            return Poly(self.p, (other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D = lcm(self.D, o.D)  # over the least common denominator
        return _poly(self.p, D, _comb(D // self.D, self.pairs, D // o.D, o.pairs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + -self

    def __neg__(self):
        return _poly(self.p, -self.D, self.pairs)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _poly(self.p, self.D * o.D, _convolve(self.p, self.pairs, o.pairs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            return NotImplemented
        out, base = _poly(self.p, 1, [(1, 0)]), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        """(quotient, remainder) in integers.  With 1/b = c/d for the
        divisor's leading pair b, a step scales the whole list by d, cancels
        its top pair r by r c times the divisor's pairs and keeps r c D' (D'
        the divisor's D) as the quotient's pair, all over D d^steps."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        p, n, (c, d) = self.p, o.degree, _inverse_pair(self.p, o.pairs[-1])
        w, D = list(self.pairs), self.D
        for top in range(len(w) - 1, n - 1, -1):
            if not any(w[top]):
                continue
            t = _mul(p, w[top], c)
            w = [(d * x, d * y) for x, y in w]
            for j, b in enumerate(o.pairs[:-1], top - n):
                w[j] = _sub(w[j], _mul(p, t, b))
            w[top] = t[0] * o.D, t[1] * o.D
            D *= d
        return _poly(p, D, w[n:]), _poly(p, D, w[:n])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    # -- Taylor shift ---------------------------------------------------------

    def recenter(self, a) -> "Poly":
        """Coefficients of the same polynomial in powers of (z - a): the
        lazy shift _Prefix with every pass run; exact."""
        if not isinstance(a, KElement):
            a = KElement(self.p, a)
        shifted = _Prefix(self, a)
        return Poly(self.p, [shifted.coeff(k) for k in range(len(self.pairs))])

    # -- normal forms ------------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integral parts:
        the gcd of the pairs over D."""
        g = gcd(*(x for pair in self.pairs for x in pair))
        return Fraction(g, self.D) if g else Fraction(1)

    def monic(self) -> "Poly":
        # P / (b/D) = sum (A_k + B_k sqrt p) c/d for the leading pair b
        if self.is_zero or self.pairs[-1] == (self.D, 0):
            return self
        c, d = _inverse_pair(self.p, self.pairs[-1])
        return _poly(self.p, d, [_mul(self.p, x, c) for x in self.pairs])

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (Poly, KElement)) and other.p != self.p:
            return False  # arithmetic across primes raises; comparison does not
        o = self._coerce(other) if isinstance(other, (Poly, int, Fraction, KElement)) else None
        if o is None:
            return NotImplemented
        return self.D == o.D and self.pairs == o.pairs

    def __hash__(self):
        # a constant equals its coefficient, so it hashes like it
        if self.degree <= 0:
            return hash(self.lead if self.pairs else 0)
        return hash((self.p, self.D, self.pairs))

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            cs = str(c)
            if " " in cs:
                cs = f"({cs})"
            if k == 0:
                terms.append(cs)
            elif k == 1:
                terms.append("z" if cs == "1" else f"{cs}*z")
            else:
                terms.append(f"z^{k}" if cs == "1" else f"{cs}*z^{k}")
        return " + ".join(terms)

    def __repr__(self):
        return f"Poly(p={self.p}, {self})"


def _poly(p: int, D: int, pairs) -> Poly:
    """The Poly (1/D) sum (A_k + B_k sqrt p) z^k, for integers D != 0 and
    pairs (A_k, B_k), in its stored form: trailing zeros stripped, and D
    and every pair divided by their gcd, signed like D."""
    pairs = list(pairs)
    while pairs and not any(pairs[-1]):
        pairs.pop()
    g = gcd(D, *(x for pair in pairs for x in pair)) * (-1 if D < 0 else 1)
    if g != 1:
        D, pairs = D // g, [(A // g, B // g) for A, B in pairs]
    P = object.__new__(Poly)
    object.__setattr__(P, "p", p)
    object.__setattr__(P, "D", D)
    object.__setattr__(P, "pairs", tuple(pairs))
    return P


# -- exact evaluation in integers ----------------------------------------------
#
# Every evaluation runs in Z[sqrt p]: the point is x = (u + v sqrt p)/w and
# the polynomial is P = (1/D) sum (A_k + B_k sqrt p) z^k, all integers.
# Horner on integer pairs then yields P(x) with the single denominator
# D w^deg, so a result costs one gcd per coordinate instead of one per step.


def _horner(P: Poly, u: int, v: int, w: int, deriv: bool) -> tuple:
    """Horner's rule for P at x = (u + v sqrt p)/w, in integers.

    Returns (D, n, ha, hb, ga, gb) with n = max(deg P, 0) and
    P(x) = (ha + hb sqrt p)/(D w^n); when deriv is set, also
    P'(x) = (ga + gb sqrt p)/(D w^(n-1)), else ga = gb = 0.

    An integer point (v = 0, w = 1) without deriv, the case of every spot
    check at an integer center with radius p^-e, e >= 0 an integer, runs
    without the sqrt p cross terms and the w^k scaling.
    """
    D, cs = P.D, P.pairs
    if not cs:
        return 1, 0, 0, 0, 0, 0
    ha, hb = cs[-1]
    ga = gb = 0
    rest = cs[-2::-1]
    if v or deriv or w != 1:
        pv = P.p * v
        wk = 1
        for ca, cb in rest:
            # with x = X/w: H_k = X H_(k+1) + C_k w^(n-k), G_k = X G_(k+1) + H_(k+1)
            wk *= w
            if deriv:
                ga, gb = ga * u + gb * pv + ha, ga * v + gb * u + hb
            ha, hb = ha * u + hb * pv + ca * wk, ha * v + hb * u + cb * wk
    else:
        for ca, cb in rest:
            ha, hb = ha * u + ca, hb * u + cb
    return D, len(cs) - 1, ha, hb, ga, gb


def _values(f: "RationalMap", point: tuple, deriv: bool) -> tuple:
    """N(x), N'(x), Q(x), Q'(x) for f = N/Q at the point
    x = (u + v sqrt p)/w given as its `_point` triple (u, v, w), as
    Z[sqrt p] pairs n0, n1, q0, q1, all over one common nonzero integer S.
    So f(x) = n0/q0, f'(x) = (n1 q0 - n0 q1)/q0^2, and x is a pole exactly
    when q0 = (0, 0).  Without deriv, n1 = q1 = (0, 0).

    `_horner` gives N(x) over Dn w^n and N'(x) over Dn w^(n-1), likewise
    Q(x) and Q'(x) over Dd w^m and Dd w^(m-1); S = Dn Dd w^max(n, m).
    Only this function, `_values_mod` and `gluing._spot_checks` know these
    scales.
    """
    u, v, w = point
    dn, n, na, nb, gna, gnb = _horner(f.num, u, v, w, deriv)
    dd, m, da, db, gda, gdb = _horner(f.den, u, v, w, deriv)
    k = max(n, m)
    sn, sd = dd * w ** (k - n), dn * w ** (k - m)
    return (
        (na * sn, nb * sn), (gna * sn * w, gnb * sn * w),
        (da * sd, db * sd), (gda * sd * w, gdb * sd * w),
    )


def _values_mod(f: "RationalMap", point: tuple, mod: int) -> tuple:
    """n0 and q0 of `_values(f, point, False)`, reduced mod `mod` > 1.

    With d = max(deg N, deg Q, 0), X = u + v sqrt p and the stored pairs
    A_k of N and B_k of Q, n0 = Dd H(A) and q0 = Dn H(B) for the sums
    H(A) = sum A_k X^k w^(d - k), evaluated by baby steps and giant steps
    (Paterson and Stockmeyer, SIAM J. Comput. 2(1), 1973).  With
    s = isqrt(d + 1), the indices fall into m blocks of s from the bottom,
    the top one holding the L <= s left over.  Block j is the dot product
    C_j = sum_i A_(js+i) X^i w^(s-1-i) (the top block's weights are
    w^(L-1-i)) of short coefficients with one table of residues; its two
    parts come from three dot products, a x, b y and (a + b)(x + y) over
    the pairs (a, b) and the entries (x, y), as the table's own steps do.
    Horner runs over the blocks, H_j = X^s H_(j+1) + w^(L + (m-2-j) s) C_j.
    So one table of X^0..X^s serves both sums, and each costs m - 1 full
    residue products (and as many scalings by powers of w when w != 1),
    about d/s, instead of d.
    """
    p, (u, v, w) = f.p, point
    (dn, ncs), (dd, dcs) = (f.num.D, f.num.pairs), (f.den.D, f.den.pairs)
    d = max(len(ncs), len(dcs), 1) - 1
    s = isqrt(d + 1)
    top = (d // s) * s  # the top block's first index
    L = d + 1 - top
    u, v, w = u % mod, v % mod, w % mod
    xa, xb, uv, ta, tb = 1, 0, u + v, [1], [0]
    for _ in range(s):
        # three products: xa v + xb u = (xa + xb)(u + v) - xa u - xb v
        au, bv = xa * u, xb * v
        xa, xb = (au + p * bv) % mod, ((xa + xb) * uv - au - bv) % mod
        ta.append(xa)
        tb.append(xb)
    ga, gb, gab = xa, xb, xa + xb  # the giant step X^s
    ya, yb, za, zb, wl, ws = ta, tb, ta, tb, 1, 1
    if w != 1:
        wk = [1]
        for _ in range(s):
            wk.append(wk[-1] * w % mod)
        wl, ws = wk[L], wk[s]

        def weigh(t: list, n: int) -> list:  # X^i w^(n-1-i) for i < n
            return [x * wk[n - 1 - i] % mod for i, x in enumerate(t[:n])]

        ya, yb, za, zb = weigh(ta, s), weigh(tb, s), weigh(ta, L), weigh(tb, L)
    # the sums x_a + x_b of each table entry, for the blocks' cross terms
    yab, zab = list(map(add, ya, yb)), list(map(add, za, zb))

    def horner(D: int, cs) -> tuple:
        if not cs:
            return 0, 0
        ca, cb = zip(*cs)
        cab = list(map(add, ca, cb))
        # the top block with its own table and weight 1, then the full
        # blocks down to index 0, weighted w^L, w^(L + s), ...
        ha = hb = 0
        sa, sb, sab, we = za, zb, zab, 1
        for lo in range(top, -1, -s):
            ax = sum(map(mul, ca[lo:lo + s], sa))
            by = sum(map(mul, cb[lo:lo + s], sb))
            ba, bb = ax + p * by, sum(map(mul, cab[lo:lo + s], sab)) - ax - by
            if we != 1:
                ba, bb = ba * we, bb * we
            au, bv = ha * ga, hb * gb
            ha, hb = (au + p * bv + ba) % mod, ((ha + hb) * gab - au - bv + bb) % mod
            sa, sb, sab, we = ya, yb, yab, wl if lo == top else we * ws % mod
        return ha * D % mod, hb * D % mod

    return horner(dd, ncs), horner(dn, dcs)


def _convolve(p: int, xs, ys) -> list:
    """The product of two polynomials whose ascending coefficients are
    Z[sqrt p] pairs, as a list of pairs; no `KElement` is formed."""
    n = max(len(xs) + len(ys) - 1, 0)
    oa, ob = [0] * n, [0] * n
    for i, (a, b) in enumerate(xs):
        for j, (c, d) in enumerate(ys):
            oa[i + j] += a * c + p * b * d
            ob[i + j] += a * d + b * c
    return list(zip(oa, ob))


def _comb(s: int, xs, t: int, ys) -> list:
    """s xs + t ys for lists of Z[sqrt p] pairs, the shorter padded with
    zeros."""
    pairs = zip_longest(xs, ys, fillvalue=(0, 0))
    return [(s * x + t * u, s * y + t * v) for (x, y), (u, v) in pairs]


@lru_cache(maxsize=None)
def _pretest_primes(p: int) -> tuple:
    """The first four primes q = 3 mod 4 above 10^6 mod which p is a
    nonzero square, each as (q, s) with s^2 = p mod q: q = 3 mod 4 makes s
    a single pow()."""
    out, q = [], 10**6 + 3
    while len(out) < 4:
        if is_prime(q) and pow(p, (q - 1) // 2, q) == 1:
            out.append((q, pow(p, (q + 1) // 4, q)))
        q += 4
    return tuple(out)


def _coeffs_mod_q(P: Poly, q: int, s: int):
    # P's coefficients mod q, sqrt p -> s
    d = pow(P.D, -1, q)  # ValueError when q divides a coefficient denominator
    out = [(A + B * s) * d % q for A, B in P.pairs]
    if out and out[-1] == 0:
        return None  # leading coefficient vanished; degree argument breaks
    return out


def _gcd_degree_mod_q(av, bv, q: int) -> int:
    while bv:
        inv_lead = pow(bv[-1], -1, q)
        av = list(av)
        while len(av) >= len(bv):
            factor = av[-1] * inv_lead % q
            shift = len(av) - len(bv)
            for i, bc in enumerate(bv):
                av[i + shift] = (av[i + shift] - factor * bc) % q
            while av and av[-1] == 0:
                av.pop()
        av, bv = bv, av
    return len(av) - 1


def _provably_coprime(A: Poly, B: Poly) -> bool:
    """Sound one-sided test: True certifies gcd(A, B) = 1 over K.

    Reduces both polynomials modulo a prime q of `_pretest_primes` (sending
    sqrt(p) to a square root of p mod q) and runs Euclid there.  A trivial gcd mod q
    forces a nonzero resultant, hence coprimality over K.  Any failed
    reduction just tries the next q; False means only "not certified"."""
    for q, s in _pretest_primes(A.p):
        try:
            av = _coeffs_mod_q(A, q, s)
            bv = _coeffs_mod_q(B, q, s)
        except ValueError:
            continue  # q divides some coefficient denominator
        if av is None or bv is None:
            continue
        return _gcd_degree_mod_q(av, bv, q) == 0
    return False


def poly_gcd(A: Poly, B: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm.

    A modular pretest certifies the (typical) coprime case cheaply; the
    exact remainder sequence runs otherwise, each remainder made monic.
    Monic remainders are quotients of subresultants, so their coefficients
    stay polynomial in size even when scalars of K with a sqrt p part
    enter (Collins, J. ACM 1967).
    """
    if A.p != B.p:
        raise ValueError("mixed primes")
    if A.is_zero:
        return B.monic()
    if B.is_zero:
        return A.monic()
    if A.degree == 0 or B.degree == 0:
        return Poly.one(A.p)
    if _provably_coprime(A, B):
        return Poly.one(A.p)
    A, B = A.monic(), B.monic()
    while not B.is_zero:
        A, B = B, (A % B).monic()
    return A


def _v2s(P: Poly) -> tuple:
    """(_v2(c_0), _v2(c_1), ...) for P, read off the pairs as
    2 v(A_k + B_k sqrt p) - 2 v(D), computed once per Poly and kept in a
    private slot of it."""
    try:
        return P._v2s
    except AttributeError:
        pass
    vD = 2 * _int_val(P.D, P.p)
    v2s = tuple(_twice_val(P.p, x) - vD if any(x) else inf for x in P.pairs)
    object.__setattr__(P, "_v2s", v2s)
    return v2s


def _bounds(P) -> tuple:
    # lower bounds of 2 v(c_k) for a Poly, where they are exact, or a source
    return _v2s(P) if isinstance(P, Poly) else P.bounds


class _Prefix:
    """P in powers of (z - a), one coefficient c'_k at a time: the lazy
    Taylor shift, a coefficient source for _min_plus.

    It keeps the state of an in-place synthetic division by (z - a);
    pass k yields c'_k for deg P - k products, and Poly.recenter runs
    every pass.  Since c'_k = sum over j >= k of C(j, k) c_j a^(j-k), the
    ultrametric inequality bounds every c'_k before any pass runs, by the
    tail bound L_k = min over j >= k of v(c_j) + (j - k) v(a) <= v(c'_k),
    and L_k = min(v(c_k), L_(k+1) + v(a)).  The scans read P's one
    _Prefix about a through _shifted, so a later scan, in the same call or
    another, extends the prefix an earlier one left.  About a = 0 P is its
    own shift: every coefficient is final, and its bound is its valuation,
    so no pass runs and no valuation is read again.
    """

    __slots__ = ("a", "_w", "_done", "_vals", "bounds")

    def __init__(self, P: Poly, a: KElement):
        # _w[:_done] are c'_0, ..., the rest the quotient still to divide;
        # _vals keeps the doubled valuations read so far, by index
        self.a, self._w, self._done, self._vals = a, list(P.coeffs), 0, {}
        if a.is_zero:
            self._done, self.bounds = len(self._w), list(_v2s(P))
            self._vals = dict(enumerate(self.bounds))
            return
        va, low, bounds = _v2(a), inf, []  # doubled, as _min_plus reads them
        for vc in reversed(_v2s(P)):
            low = min(vc, low + va)
            bounds.append(low)
        self.bounds = bounds[::-1]

    @property
    def p(self) -> int:
        return self.a.p

    def coeff(self, k: int) -> KElement:
        w, a = self._w, self.a
        while self._done <= k < len(w):
            for i in range(len(w) - 2, self._done - 1, -1):
                w[i] = w[i] + a * w[i + 1]
            self._done += 1
        return w[k] if k < len(w) else KElement(a.p)

    def val(self, k: int):
        # a finished coefficient never changes, so its valuation is kept
        try:
            return self._vals[k]
        except KeyError:
            v = self._vals[k] = _v2(self.coeff(k))
            return v


def _shifted(P: Poly, a: KElement) -> _Prefix:
    """P's lazy shift about a, started once per (P, a) and kept in a
    private slot of P for as long as P lives; a copy of P starts with none.
    Equal KElements of different primes hash alike, so a's prime is
    checked before the lookup."""
    if a.p != P.p:
        raise ValueError(f"mixed primes: {P.p} and {a.p}")
    try:
        shifts = P._shifts
    except AttributeError:
        shifts = {}
        object.__setattr__(P, "_shifts", shifts)
    shift = shifts.get(a)
    if shift is None:
        shift = shifts[a] = _Prefix(P, a)
    return shift


def _min_plus(P, e, from_k: int = 0) -> tuple:
    """(m, first, last): m = min over k >= from_k of 2 v(c_k) + 2k*e, the
    doubled minimum, an integer, taken over the nonzero coefficients c_k
    of P, and the first and last index attaining it; math.inf, None and
    None when there is no such coefficient.  e is a finite exponent in
    (1/2)Z, a ValExp, an int or a Fraction.

    P is a Poly or a coefficient source, whose `bounds[k]` <= 2 v(c_k)
    holds for every index k and whose `val(k)` computes 2 v(c_k) on demand.
    The scan reads c_k only where bounds[k] + 2k*e does not exceed the
    least value so far; no other index can attain the minimum, so the
    result is a full scan's, and a lazy shift computes only the prefix up
    to the last index read.
    """
    e2 = ValExp(e).t
    if e2 == inf:
        raise ValueError("the radius exponent is infinite: a ball of radius 0 has no Newton line")
    bounds = _bounds(P)
    val = bounds.__getitem__ if isinstance(P, Poly) else P.val
    m, first, last = inf, None, None
    for k in range(from_k, len(bounds)):
        if bounds[k] + k * e2 > m:
            continue
        t = val(k) + k * e2
        if t < m:
            m, first, last = t, k, k
        elif t == m < inf:
            last = k
    return m, first, last


def count_roots_with_min_valuation(P, min_exp, strict: bool) -> int:
    """Roots of P (with multiplicity, in an algebraic closure) of valuation
    >= min_exp, or > min_exp when strict.  min_exp is a finite exponent,
    and P a Poly or a coefficient source (see _min_plus).

    The line of slope -min_exp supporting the Newton polygon of P touches it
    exactly at the indices k attaining min v(c_k) + k*min_exp.  The last of
    them counts the roots of valuation >= min_exp, the first those of
    valuation > min_exp; a root at 0 is counted because zero coefficients
    are skipped.
    """
    _, first, last = _min_plus(P, min_exp)
    if first is None:
        raise ValueError("the zero polynomial vanishes everywhere")
    return first if strict else last


def gauss_norm_exp(P, radius_exp, from_k: int = 0) -> ValExp:
    """Exponent of the Gauss norm of P at radius p^(-radius_exp).

    Returns min over k >= from_k of v(c_k) + k*radius_exp, which encodes the
    sup of |P| over the closed ball of that radius about 0 (restricted to the
    terms of index >= from_k).  Infinite when no such term exists.
    radius_exp is a finite exponent, and P a Poly or a coefficient source
    (see _min_plus).
    """
    return ValExp.twice(_min_plus(P, radius_exp, from_k)[0])


class RationalMap:
    """Quotient of polynomials in canonical form: reduced, monic denominator."""

    __slots__ = ("num", "den")

    num: Poly
    den: Poly

    def __init__(self, num: Poly, den: Poly | None = None):
        if not isinstance(num, Poly):
            raise TypeError("num must be a Poly")
        if den is None:
            den = Poly.one(num.p)
        if not isinstance(den, Poly):
            raise TypeError("den must be a Poly")
        if num.p != den.p:
            raise ValueError("mixed primes")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            num, den = Poly.zero(num.p), Poly.one(num.p)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            if den.pairs[-1] != (den.D, 0):
                s = den.lead.inverse()
                num, den = num * s, den * s
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMap is immutable")

    def __reduce__(self):
        return RationalMap, (self.num, self.den)

    @property
    def p(self) -> int:
        return self.num.p

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree, 0)

    # -- evaluation -----------------------------------------------------------

    def eval(self, x):
        """Value at x, or None at a pole: a root of the reduced denominator."""
        p = self.p
        n0, _, q0, _ = _values(self, _point(p, x), False)
        return _element(p, *_quotient(p, n0, q0)) if any(q0) else None

    __call__ = eval

    def derivative_at(self, x):
        """Derivative value at x without building the reduced derivative map;
        None at a pole."""
        return self._value_and_derivative(x)[1]

    def _value_and_derivative(self, x) -> tuple:
        """(f(x), f'(x)) from one `_values` pass with derivatives, f'(x) =
        (n1 q0 - n0 q1)/q0^2, or (None, None) at a pole."""
        p = self.p
        n0, n1, q0, q1 = _values(self, _point(p, x), True)
        if not any(q0):
            return None, None
        t = _sub(_mul(p, n1, q0), _mul(p, n0, q1))
        return _element(p, *_quotient(p, n0, q0)), _element(p, *_quotient(p, t, _mul(p, q0, q0)))

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        return self.p == other.p and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalMap({self})"
