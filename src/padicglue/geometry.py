"""Ultrametric balls in K and exact analytic geometry over them.

Balls are the ones the rest of the library reasons about: radii are powers
p^(-e) with e in (1/2)Z, and every containment or image computation is a
finite comparison of exact exponents.  The key facts used throughout:

* two balls are either nested or disjoint, and every point of a ball is a
  center of it;
* a rational map with no poles on a ball sends the ball exactly onto a
  ball, whose center is the image of the center and whose radius comes out
  of a Gauss norm;
* root counting in a ball reduces to one min-plus scan of the recentered
  polynomial: the number of roots is the last (closed ball) or first
  (open ball) index k attaining min v(c_k) + k*e for radius p^(-e).

A LocalExpansion rewrites a map's numerator and denominator in powers of
(z - a) about a ball's center a; the pole test, the image, sup norms and
root counts on that ball are all scans of the shifted coefficients.  The
shift is lazy (algebra._Prefix): it yields the coefficients one at a
time and bounds all of them up front by the ultrametric inequality, so
each scan computes only the prefix whose coefficients might still reach
its minimum.  The shift does not depend on the radius, so balls about one
center share it (see Expansions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import (
    Poly,
    RationalMap,
    _bounds,
    _Prefix,
    count_roots_with_min_valuation,
    gauss_norm_exp,
)
from .errors import PoleInBallError, _power_str, _show
from .field import KElement, ValExp, _v2

__all__ = [
    "Ball",
    "LocalExpansion",
    "Radius",
    "count_roots_in_ball",
    "distance_exp",
    "image_of_ball",
    "pairwise_deltas",
    "pole_free_on_ball",
    "sample_points",
    "sup_norm_exp_on_ball",
    "wdeg",
]


# A radius p^(-e) is held as its exponent e, ordered like every other
# exponent: a larger e is a smaller radius.
Radius = ValExp


def distance_exp(x: KElement, y: KElement) -> ValExp:
    """Valuation of x - y; encodes the ultrametric distance |x - y|."""
    return (x - y).valuation()


@dataclass(frozen=True)
class Ball:
    """A closed ball B(center, r) or an open ball D(center, r) in C_v.

    Set semantics: methods compare balls as subsets of C_v, so balls with
    different marked centers can be equal.
    """

    center: KElement
    radius: ValExp
    closed: bool = True

    def __post_init__(self):
        if self.radius.is_infinite:
            raise ValueError("a radius must be positive")

    @property
    def p(self) -> int:
        return self.center.p

    @property
    def kind(self) -> str:
        return "closed" if self.closed else "open"

    def _within(self, d: ValExp) -> bool:
        # whether a point at distance exponent d from the center lies in
        # the ball: the one closed/open comparison rule
        return d >= self.radius if self.closed else d > self.radius

    def contains_point(self, x: KElement) -> bool:
        return self._within(distance_exp(x, self.center))

    def contains_ball(self, other: "Ball") -> bool:
        within = self._within(distance_exp(other.center, self.center))
        if self.closed:
            return other.radius >= self.radius and within
        # open outer ball: a closed inner ball must be strictly smaller
        if other.closed and not other.radius > self.radius:
            return False
        if not other.closed and not other.radius >= self.radius:
            return False
        return within

    def same_set(self, other: "Ball") -> bool:
        # over C_v a closed ball of radius in the value group never equals
        # an open one, so kinds must agree
        if self.closed != other.closed or self.radius != other.radius:
            return False
        return self._within(distance_exp(other.center, self.center))

    def properly_contains(self, other: "Ball") -> bool:
        return self.contains_ball(other) and not self.same_set(other)

    def intersects(self, other: "Ball") -> bool:
        # in an ultrametric, intersecting balls are nested, so it suffices
        # to test whether either center lies in the other ball
        return self.contains_point(other.center) or other.contains_point(self.center)

    def disjoint_from(self, other: "Ball") -> bool:
        return not self.intersects(other)

    def __str__(self):
        tag = "B" if self.closed else "D"
        return f"{tag}({self.center}; {_power_str(self.p, self.radius)})"


def pairwise_deltas(centers) -> list:
    """delta_i = min over j != i of |a_i - a_j|, returned as exponents.

    Needs at least two centers; duplicate centers are rejected.
    """
    centers = list(centers)
    if len(centers) < 2:
        raise ValueError("need at least two centers to form pairwise distances")
    out = []
    for i, a in enumerate(centers):
        best = None
        for j, b in enumerate(centers):
            if i == j:
                continue
            d = distance_exp(a, b)
            if d.is_infinite:
                raise ValueError(f"duplicate centers at indices {i} and {j}")
            if best is None or d > best:
                best = d
        out.append(best)
    return out


def _roots_in_ball(shifted: Poly, ball: Ball) -> int:
    # roots of a polynomial already written in powers of (z - center)
    return count_roots_with_min_valuation(shifted, ball.radius, strict=not ball.closed)


def count_roots_in_ball(P: Poly, ball: Ball) -> int:
    """Number of roots of P in the ball, with multiplicity, over C_v.

    Scans P's lazy shift about the ball's center and counts the roots of
    valuation >= exp for a closed ball, > exp for an open one
    (see count_roots_with_min_valuation).
    """
    if P.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    return _roots_in_ball(_Prefix(P, ball.center), ball)


def _products(X, Y, k: int) -> range:
    # the indices i for which X_i * Y_(k-i) is a term of coefficient k of X*Y
    return range(max(0, k - len(_bounds(Y)) + 1), min(k + 1, len(_bounds(X))))


class _Diff:
    """The coefficient source of A*B - C*D, for Poly or _Prefix factors.
    Coefficient k sums products X_i * Y_(k-i), so the least bound of
    v(X_i) + v(Y_(k-i)) bounds it, and reading it exactly reads the
    factors up to index k only."""

    __slots__ = ("_factors", "bounds")

    def __init__(self, A, B, C, D):
        self._factors, self.bounds = (A, B, C, D), []
        for X, Y in ((A, B), (C, D)):
            for i, u in enumerate(_bounds(X)):
                for j, w in enumerate(_bounds(Y)):
                    if i + j == len(self.bounds):
                        self.bounds.append(u + w)
                    elif u + w < self.bounds[i + j]:
                        self.bounds[i + j] = u + w

    def val(self, k: int):
        A, B, C, D = self._factors
        return _v2(sum(A.coeff(i) * B.coeff(k - i) for i in _products(A, B, k))
                   - sum(C.coeff(i) * D.coeff(k - i) for i in _products(C, D, k)))


def _shift(f: RationalMap, center: KElement) -> tuple:
    """f = P/Q rewritten in powers of (z - a) about a point a: the pair
    (Pr, Qr) of one _Prefix each for P and Q (a constant is its own), whose
    constant terms are P(a) and Q(a).  Nothing here depends on a radius, so
    every ball about a reads the same prefixes, and each scan extends them
    only as far as it must."""
    return tuple(P if P.degree <= 0 else _Prefix(P, center) for P in (f.num, f.den))


class LocalExpansion:
    """A rational map f = P/Q rewritten in powers of (z - a) about the
    center a of a ball.

    Every question about the ball is a scan of the shifted Pr and Qr, whose
    constant terms are P(a) and Q(a), or of a _Diff of them, which computes
    only the prefix that its tail bound cannot rule out.  The shift may be
    one that other balls about a share (see Expansions); the radius and the
    kind of the ball only enter the scans.
    """

    def __init__(self, f: RationalMap, ball: Ball, shift: tuple | None = None):
        # a shift passed in is f's about ball.center (Expansions keys it so)
        self.f = f
        self.ball = ball
        self._num, self._den = _shift(f, ball.center) if shift is None else shift

    @cached_property
    def pole_free(self) -> bool:
        """True when the reduced denominator has no zero in the ball."""
        return self.f.den.degree == 0 or _roots_in_ball(self._den, self.ball) == 0

    def _require_pole_free(self) -> None:
        if not self.pole_free:
            raise PoleInBallError(f"map has a pole on {_show(self.ball)}")

    @cached_property
    def image(self) -> Ball:
        """The exact image f(ball), which is again a ball of the same kind.

        Center: f(a) = P(a)/Q(a). Radius: the numerator of f(z) - f(a) is
        g(z) = P(z)Q(a) - P(a)Q(z), which vanishes at a, and in powers of
        (z - a) it is the combination Pr*Q(a) - Qr*P(a) of the two shifted
        polynomials.  The image radius is the Gauss norm of g over the terms
        of index >= 1, divided by |Q(a)|^2 (|Q| is constant on the ball).
        """
        self._require_pole_free()
        N, D, p = self._num, self._den, self.f.p
        pa, qa = N.coeff(0), D.coeff(0)
        g = _Diff(N, Poly.constant(p, qa), D, Poly.constant(p, pa))
        e = gauss_norm_exp(g, self.ball.radius, from_k=1)
        if e.is_infinite:
            raise ValueError("constant map: the image of the ball is a point, not a ball")
        return Ball(pa * qa.inverse(), e - qa.valuation() * 2, closed=self.ball.closed)

    def sup_norm_exp(self, minus: "LocalExpansion | None" = None) -> ValExp:
        """Exponent of sup |f - g| over the ball (maximum for closed balls),
        where g is the map of `minus`, an expansion about the same ball, or
        g = 0 when it is omitted.

        Both maps must be pole-free on the ball.  A denominator without
        zeros on the ball has constant absolute value there, equal to its
        value at the center, so the sup is the Gauss norm of the shifted
        numerator divided by that constant.  With f = N/D and g = n/d the
        difference is taken unreduced, as (N*d - n*D) / (D*d): any common
        factor of numerator and denominator is a divisor of D*d, hence has
        no zero on the ball, and since the Gauss norm is multiplicative its
        norm cancels between numerator and denominator.  The bound is the
        one the reduced difference gives.
        """
        self._require_pole_free()
        N, D = self._num, self._den
        num, den_val = N, D.coeff(0).valuation()
        if minus is not None:
            if minus.ball != self.ball:
                raise ValueError(f"expansions about different balls: {self.ball} and {minus.ball}")
            minus._require_pole_free()
            n, d = minus._num, minus._den
            num = _Diff(N, d, n, D)
            den_val = den_val + d.coeff(0).valuation()
        return gauss_norm_exp(num, self.ball.radius, from_k=0) - den_val

    def wdeg(self, b: KElement) -> int:
        """Number of solutions of f(z) = b in the ball, with multiplicity.

        b must lie in the image of the ball.  Counts roots of Pr - b*Qr, the
        shifted numerator of f(z) - b; the denominator contributes none
        since f is pole-free there.
        """
        img = self.image
        if not img.contains_point(b):
            raise ValueError(f"target {b} lies outside the image {img}")
        p = self.f.p
        g = _Diff(self._num, Poly.one(p), self._den, Poly.constant(p, b))
        return _roots_in_ball(g, self.ball)


class Expansions:
    """The LocalExpansions of one map f, with one Taylor shift per center.

    Calling it with a ball returns f's expansion about that ball; balls
    with the same center share the shifted numerator and denominator, and
    only their radius and kind enter the scans.  It
    caches one computation: whoever makes it decides how long the shifts
    live, and it is never kept on a map or a model.
    """

    def __init__(self, f: RationalMap):
        self.f = f
        self._shifts = {}

    def __call__(self, ball: Ball) -> LocalExpansion:
        shift = self._shifts.get(ball.center)
        if shift is None:
            shift = self._shifts[ball.center] = _shift(self.f, ball.center)
        return LocalExpansion(self.f, ball, shift)

    @staticmethod
    def of(f: RationalMap, expansions: "Expansions | None") -> "Expansions":
        """The given expansions, which must be f's, or new ones for f."""
        if expansions is None:
            return Expansions(f)
        if expansions.f is not f:
            raise ValueError("the expansions belong to another map")
        return expansions


def pole_free_on_ball(f: RationalMap, ball: Ball) -> bool:
    """True when the reduced denominator of f has no zero in the ball."""
    return LocalExpansion(f, ball).pole_free


def sup_norm_exp_on_ball(f: RationalMap, ball: Ball) -> ValExp:
    """Exponent of sup |f| over the ball (maximum for closed balls).

    Requires f pole-free on the ball; see LocalExpansion.sup_norm_exp.
    """
    return LocalExpansion(f, ball).sup_norm_exp()


def image_of_ball(f: RationalMap, ball: Ball) -> Ball:
    """The exact image f(ball), which is again a ball of the same kind;
    see LocalExpansion.image."""
    return LocalExpansion(f, ball).image


def wdeg(f: RationalMap, b: KElement, ball: Ball) -> int:
    """Number of solutions of f(z) = b in the ball, with multiplicity.

    b must lie in the image of the ball; see LocalExpansion.wdeg.
    """
    return LocalExpansion(f, ball).wdeg(b)


def sample_points(ball: Ball, budget: int) -> list:
    """Deterministic K-rational points of the ball: the center first, then
    shells of decreasing radius, breadth-first, so the first k points of a
    larger budget are the points of budget k.

    Shell j contributes center + u * pi^(2j) for u = 1..p-1, where pi is
    sqrt(p); shells start at the ball's radius exponent (one step inside
    for an open ball) and shrink by a factor of p each round.  The offset
    u * pi^(2j) is u * p^floor(j), added to the rational coordinate of the
    center for integral j and to its sqrt p coordinate otherwise, so each
    point is built from two Fractions without a multiplication in K.
    """
    if budget < 1:
        return []
    p, a, b = ball.p, ball.center.a, ball.center.b
    pts = [ball.center]
    t = (ball.radius if ball.closed else ball.radius + 1).t  # t = 2j
    while len(pts) < budget:
        k = t // 2
        step = p**k if k >= 0 else Fraction(1, p**-k)
        for u in range(1, p):
            off = step * u
            pts.append(KElement(p, a + off, b) if t % 2 == 0 else KElement(p, a, b + off))
            if len(pts) >= budget:
                break
        t += 2
    return pts
