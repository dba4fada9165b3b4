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

Four functions ask the questions of a map on a ball: `pole_free_on_ball`,
`image_of_ball`, `sup_norm_exp_on_ball` and `wdeg`.  Each rewrites the
map's numerator and denominator in powers of (z - a) about the ball's
center a, and answers by a scan of the shifted coefficients.  The shift
is lazy (algebra._Prefix): it yields the coefficients one at a
time and bounds all of them up front by the ultrametric inequality, so
each scan computes only the prefix whose coefficients might still reach
its minimum.  The shift does not depend on the radius, so the polynomial
keeps its one shift per center (algebra._shifted): every ball about that
center, in this call or a later one, reads and extends the same prefix,
and the prefixes live as long as the polynomial.

The shift's passes are the only K arithmetic here.  A combination of
shifted polynomials (`_Diff`) reads its coefficients on integer
`_point` triples, the image center is one integer quotient of P(a) and
Q(a), and `sample_points` hands the spot checks each point's triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Poly,
    RationalMap,
    _bounds,
    _shifted,
    count_roots_with_min_valuation,
    gauss_norm_exp,
)
from .errors import PoleInBallError, _power_str, _show
from .field import KElement, ValExp, _element, _gap, _point, _quotient, _twice_val_over

__all__ = [
    "Ball",
    "Radius",
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
    return _gap(x.p, _point(x.p, x), _point(x.p, y))


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

    @property
    def _key(self) -> int:
        # the one size order of balls over C_v: B(e) > D(e) > B(e') for
        # e < e', as 2*2e for a closed ball and 2*2e + 1 for an open one, so
        # a larger key is a smaller ball.  Balls that meet are nested, so
        # each relation of two balls compares keys once and tests one center
        return 2 * self.radius.t + (not self.closed)

    def _within(self, d: ValExp) -> bool:
        # whether a point at distance exponent d from the center lies in
        # the ball: d >= e when closed, d > e when open
        return 2 * d.t >= self._key

    def contains_point(self, x: KElement) -> bool:
        return self._within(distance_exp(x, self.center))

    def contains_ball(self, other: "Ball") -> bool:
        return self._key <= other._key and self.contains_point(other.center)

    def same_set(self, other: "Ball") -> bool:
        return self._key == other._key and self.contains_point(other.center)

    def properly_contains(self, other: "Ball") -> bool:
        return self._key < other._key and self.contains_point(other.center)

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


def _products(X, Y, k: int) -> range:
    # the indices i for which X_i * Y_(k-i) is a term of coefficient k of X*Y
    return range(max(0, k - len(_bounds(Y)) + 1), min(k + 1, len(_bounds(X))))


class _Diff:
    """The coefficient source of A*B - C*D, for Poly or _Prefix factors.
    Coefficient k sums products X_i * Y_(k-i), so the least bound of
    v(X_i) + v(Y_(k-i)) bounds it, and reading it exactly reads the
    factors up to index k only."""

    __slots__ = ("_p", "_factors", "bounds")

    def __init__(self, A, B, C, D):
        self._p, self._factors, self.bounds = A.p, (A, B, C, D), []
        for X, Y in ((A, B), (C, D)):
            for i, u in enumerate(_bounds(X)):
                for j, w in enumerate(_bounds(Y)):
                    if i + j == len(self.bounds):
                        self.bounds.append(u + w)
                    elif u + w < self.bounds[i + j]:
                        self.bounds[i + j] = u + w

    def val(self, k: int):
        # the sum on `_point` triples, over one running denominator W: a
        # product over another denominator w brings the sum to W*w, and
        # the C*D products enter negated; the sum builds no K element
        p, (A, B, C, D) = self._p, self._factors
        X = Y = 0
        W = 1
        for L, R, sign in ((A, B, 1), (C, D, -1)):
            for i in _products(L, R, k):
                (a, b, u), (c, d, v) = _triple(L, i), _triple(R, k - i)
                x, y, w = sign * (a * c + p * b * d), sign * (a * d + b * c), u * v
                if w == W:
                    X, Y = X + x, Y + y
                else:
                    X, Y, W = X * w + x * W, Y * w + y * W, W * w
        return _twice_val_over(p, (X, Y), W)


def _triple(X, i: int) -> tuple:
    # coefficient i of a Poly, read off its pairs, or of a _Prefix, as a
    # `_point` triple (u, v, w) for (u + v sqrt p)/w
    if isinstance(X, Poly):
        return (*X.pairs[i], X.D)
    return _point(X.p, X.coeff(i))


def _shift(f: RationalMap, center: KElement) -> tuple:
    """f = P/Q rewritten in powers of (z - a) about a point a: the pair
    (Pr, Qr) of P's and Q's one _Prefix about a (a constant is its own),
    whose constant terms are P(a) and Q(a).  Nothing here depends on a
    radius, so every ball about a reads the same prefixes, and each scan
    extends them only as far as it must."""
    return tuple(P if P.degree <= 0 else _shifted(P, center) for P in (f.num, f.den))


def _require_pole_free(f: RationalMap, ball: Ball) -> tuple:
    """f's shifted pair (Pr, Qr) about the ball's center (see _shift), or
    PoleInBallError when f has a pole in the ball."""
    if not pole_free_on_ball(f, ball):
        raise PoleInBallError(f"map has a pole on {_show(ball)}")
    return _shift(f, ball.center)


def pole_free_on_ball(f: RationalMap, ball: Ball) -> bool:
    """True when the reduced denominator of f has no zero in the ball."""
    _, Q = _shift(f, ball.center)
    return f.den.degree == 0 or not count_roots_with_min_valuation(Q, ball.radius, not ball.closed)


def image_of_ball(f: RationalMap, ball: Ball) -> Ball:
    """The exact image f(ball), which is again a ball of the same kind.

    Center: f(a) = P(a)/Q(a). Radius: the numerator of f(z) - f(a) is
    g(z) = P(z)Q(a) - P(a)Q(z), which vanishes at a, and in powers of
    (z - a) it is the combination Pr*Q(a) - Qr*P(a) of the two shifted
    polynomials.  The image radius is the Gauss norm of g over the terms
    of index >= 1, divided by |Q(a)|^2 (|Q| is constant on the ball); g is
    0 only when f is constant, which raises ValueError before any scan.
    Raises PoleInBallError when f has a pole in the ball.
    """
    if f.degree == 0:
        raise ValueError("constant map: the image of the ball is a point, not a ball")
    N, D = _require_pole_free(f, ball)
    p, pa, qa = f.p, N.coeff(0), D.coeff(0)
    g = _Diff(N, Poly.constant(p, qa), D, Poly.constant(p, pa))
    e = gauss_norm_exp(g, ball.radius, from_k=1)
    # P(a)/Q(a) = (u + v sqrt p) w' / ((u' + v' sqrt p) w), one division
    (u, v, w), (u1, v1, w1) = _point(p, pa), _point(p, qa)
    center = _element(p, *_quotient(p, (u * w1, v * w1), (u1 * w, v1 * w)))
    return Ball(center, e - qa.valuation() * 2, closed=ball.closed)


def sup_norm_exp_on_ball(f: RationalMap, ball: Ball, minus: RationalMap | None = None) -> ValExp:
    """Exponent of sup |f - g| over the ball (maximum for closed balls),
    where g is the map `minus`, or g = 0 when it is omitted.

    Both maps must be pole-free on the ball; PoleInBallError otherwise.  A
    denominator without zeros on the ball has constant absolute value
    there, equal to its value at the center, so the sup is the Gauss norm
    of the shifted numerator divided by that constant.  With f = N/D and
    g = n/d the difference is taken unreduced, as (N*d - n*D) / (D*d): any
    common factor of numerator and denominator is a divisor of D*d, hence
    has no zero on the ball, and since the Gauss norm is multiplicative its
    norm cancels between numerator and denominator.  The bound is the one
    the reduced difference gives.
    """
    N, D = _require_pole_free(f, ball)
    num, den_val = N, D.coeff(0).valuation()
    if minus is not None:
        n, d = _require_pole_free(minus, ball)
        num = _Diff(N, d, n, D)
        den_val = den_val + d.coeff(0).valuation()
    return gauss_norm_exp(num, ball.radius, from_k=0) - den_val


def wdeg(f: RationalMap, b: KElement, ball: Ball) -> int:
    """Number of solutions of f(z) = b in the ball, with multiplicity.

    Counts roots of Pr - b*Qr, the shifted numerator of f(z) - b; the
    denominator contributes none, since f must be pole-free there
    (PoleInBallError otherwise).  b must lie in the image of the ball,
    which holds exactly when the count is at least 1, so the image is
    built only to word the error.
    """
    N, D = _require_pole_free(f, ball)
    if f.degree > 0:
        g = _Diff(N, Poly.one(f.p), D, Poly.constant(f.p, b))
        count = count_roots_with_min_valuation(g, ball.radius, strict=not ball.closed)
        if count:
            return count
    # b lies outside f(ball), or f is constant and image_of_ball raises
    raise ValueError(f"target {b} lies outside the image {image_of_ball(f, ball)}")


def sample_points(ball: Ball, budget: int, triples: bool = False) -> list:
    """Deterministic K-rational points of the ball: the center first, then
    shells of decreasing radius, breadth-first, so the first k points of a
    larger budget are the points of budget k.

    Shell j contributes center + u * pi^(2j) for u = 1..p-1, where pi is
    sqrt(p); shells start at the ball's radius exponent (one step inside
    for an open ball) and shrink by a factor of p each round.  The offset
    u * pi^(2j) is u * p^k, k = floor(j), added to the center's rational
    coordinate for integral j and to its sqrt p coordinate otherwise.
    With that coordinate n/d, the point's coordinate is (n + u p^k d)/d
    for k >= 0 and (n p^-k + u d)/(d p^-k) for k < 0, so a shell steps one
    integer numerator, and each point is one Fraction of two integers (of
    one, with no gcd, where d = 1) and one trusted `KElement._of`, with no
    Fraction addition and no prime check.

    With `triples` set, each point comes as (z, (u, v, w)), its K element
    and its `_point` triple, for the spot checks' integer evaluation.  For
    k >= 0 the stepped coordinate keeps its denominator d, so the triple is
    the center's (cu, cv, cw) with that coordinate's numerator n*(cw/d),
    built without an lcm; for k < 0 it is `_point` of the point.
    """
    if budget < 1:
        return []
    p, c = ball.p, ball.center
    cu, cv, cw = center = _point(p, c)
    pts = [(c, center)]
    t = (ball.radius if ball.closed else ball.radius + 1).t  # t = 2j
    while len(pts) < budget:
        k, odd = divmod(t, 2)
        x = c.b if odd else c.a
        n, d = x.numerator, x.denominator
        if k >= 0:
            step, scale = p**k * d, cw // d
        else:
            n, d, step, scale = n * p**-k, d * p**-k, d, None
        for _ in range(min(p - 1, budget - len(pts))):
            n += step
            y = Fraction(n, d) if d != 1 else Fraction(n)
            z = KElement._of(p, c.a, y) if odd else KElement._of(p, y, c.b)
            if scale is None:
                pts.append((z, _point(p, z)))
            else:
                pts.append((z, (cu, n * scale, cw) if odd else (n * scale, cv, cw)))
        t += 2
    return pts if triples else [z for z, _ in pts]
