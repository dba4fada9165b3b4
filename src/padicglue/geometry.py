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

A LocalExpansion recenters a map's numerator and denominator once about a
ball's center; the pole test, the image, sup norms and root counts on
that ball are all read off the shifted coefficients.  The shift does not
depend on the radius, so balls about one center can share it (see
Expansions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import (
    Poly,
    RationalMap,
    count_roots_with_min_valuation,
    gauss_norm_exp,
)
from .errors import PoleInBallError, _power_str, _show
from .field import KElement, ValExp

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


def _shift(P: Poly, a: KElement) -> Poly:
    # a constant is its own Taylor expansion about any point
    return P if P.degree <= 0 else P.recenter(a)


def count_roots_in_ball(P: Poly, ball: Ball) -> int:
    """Number of roots of P in the ball, with multiplicity, over C_v.

    Recenters P at the ball's center and counts the roots of valuation
    >= exp for a closed ball, > exp for an open one
    (see count_roots_with_min_valuation).
    """
    if P.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    return _roots_in_ball(P.recenter(ball.center), ball)


class _Shift:
    """A rational map f = P/Q rewritten in powers of (z - a) about a point a.

    P and Q are each Taylor-shifted at most once, on first use, into Pr and
    Qr, whose constant terms are P(a) and Q(a).  The image numerator
    Pr*Q(a) - Qr*P(a) is formed at most once as well.  Nothing here
    depends on a radius, so every ball about a can read the same shift.
    """

    def __init__(self, f: RationalMap, center: KElement):
        self.f = f
        self.center = center

    @cached_property
    def num(self) -> Poly:
        return _shift(self.f.num, self.center)

    @cached_property
    def den(self) -> Poly:
        return _shift(self.f.den, self.center)

    @cached_property
    def image_num(self) -> Poly:
        # f(z) - f(a) has the numerator P(z)Q(a) - P(a)Q(z), which vanishes
        # at a; in powers of (z - a) it is Pr*Q(a) - Qr*P(a)
        return self.num * self.den.coeff(0) - self.den * self.num.coeff(0)


class LocalExpansion:
    """A rational map f = P/Q rewritten in powers of (z - a) about the
    center a of a ball.

    P and Q are each Taylor-shifted at most once, on first use, and every
    question about the ball is answered from the shifted coefficients Pr
    and Qr, whose constant terms are P(a) and Q(a).  The shift may be one
    that other balls about a share (see Expansions); the radius and the
    kind of the ball only enter the scans.
    """

    def __init__(self, f: RationalMap, ball: Ball, shift: _Shift | None = None):
        # a shift passed in is f's about ball.center (Expansions keys it so)
        self.f = f
        self.ball = ball
        self._shift = _Shift(f, ball.center) if shift is None else shift

    @property
    def num(self) -> Poly:
        return self._shift.num

    @property
    def den(self) -> Poly:
        return self._shift.den

    @cached_property
    def pole_free(self) -> bool:
        """True when the reduced denominator has no zero in the ball."""
        return self.f.den.degree == 0 or _roots_in_ball(self.den, self.ball) == 0

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
        pa = self.num.coeff(0)
        qa = self.den.coeff(0)
        e = gauss_norm_exp(self._shift.image_num, self.ball.radius, from_k=1)
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
        num = self.num
        den_val = self.den.coeff(0).valuation()
        if minus is not None:
            if minus.ball != self.ball:
                raise ValueError(f"expansions about different balls: {self.ball} and {minus.ball}")
            minus._require_pole_free()
            num = self.num * minus.den - minus.num * self.den
            den_val = den_val + minus.den.coeff(0).valuation()
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
        return _roots_in_ball(self.num - self.den * b, self.ball)


class Expansions:
    """The LocalExpansions of one map f, with one Taylor shift per center.

    Calling it with a ball returns f's expansion about that ball; balls
    with the same center share the shifted numerator, denominator and
    image numerator, and only their radius and kind enter the scans.  It
    caches one computation: whoever makes it decides how long the shifts
    live, and it is never kept on a map or a model.
    """

    def __init__(self, f: RationalMap):
        self.f = f
        self._shifts = {}

    def __call__(self, ball: Ball) -> LocalExpansion:
        shift = self._shifts.get(ball.center)
        if shift is None:
            shift = self._shifts[ball.center] = _Shift(self.f, ball.center)
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
    j = (ball.radius if ball.closed else ball.radius + 1).exp
    while len(pts) < budget:
        k = math.floor(j)
        step = p**k if k >= 0 else Fraction(1, p**-k)
        for u in range(1, p):
            off = step * u
            pts.append(KElement(p, a + off, b) if j.denominator == 1 else KElement(p, a, b + off))
            if len(pts) >= budget:
                break
        j += 1
    return pts
