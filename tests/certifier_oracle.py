"""Reference certifier and disk classifier for differential tests.

These are the direct formulations that the `geometry` scans replaced: every
question recenters the polynomials it needs from scratch, the sup norm of
F - f_i is taken of the gcd-reduced difference, and every sample point
is evaluated in K.  They are slow but obviously faithful to the
definitions, so the library's certificates and disk classifications must
equal theirs exactly.  `poly_mul` is the schoolbook product, one K
multiply-add per pair of coefficients, written independently of the
library's `Poly.__mul__` (which convolves integer pairs); every product
here, of two polynomials or by a scalar, is `poly_mul`.  `poly_divmod` is
the long division loop of K multiply-adds by the inverse of the leading
coefficient, written independently of the library's `Poly.__divmod__`
(which divides integer pairs).  `glued_sum` is
the sum as it was before it became one fraction: every bump factor
(`bump_factor`, whose (z - a)^M is M schoolbook products), product and
partial sum reduced by a gcd.  `check_global_boundedness` is the
boundedness hypothesis as it was checked before it was read off the sup
norm: the image of every ball under every map, computed in full.
`sample_points` builds each point as center + pi^(2j) * u by
multiplication and addition in K, as the library once did, and
`certify_theorem1` evaluates F and f_i at every one of those points as K
elements (`sample_checks`), so the library's integer spot checks, and the
deep shells it reads off the center, are checked against it.
`diff_val` is coefficient k of A*B - C*D summed as K products, the
formula `geometry._Diff.val` used before it summed integer triples.
`recenter` is the eager Taylor shift, one synthetic division after
another, written independently of the library's lazy `algebra._Prefix`
(which `Poly.recenter` forces), so every shift here checks that one.
`contains_point`, `contains_ball`, `same_set`, `properly_contains`,
`intersects` and `disjoint_from` are the relations of two balls by the
closed/open case analysis that `Ball` used before it compared one size
key, with distances read as valuations of K differences; the reference
certifier and classifier ask them instead of `Ball`'s methods.
"""

from evaluation_oracle import poly_eval
from padicglue import (
    ATTRACTING,
    INCONCLUSIVE,
    INDIFFERENT,
    REPELLING,
    Ball,
    BallCheck,
    Certificate,
    DiskBehavior,
    HypothesisViolation,
    KElement,
    PoleInBallError,
    Poly,
    Radius,
    RationalMap,
    Sample,
    count_roots_with_min_valuation,
    gauss_norm_exp,
    uniformizer_power,
)
from padicglue.errors import _show
from padicglue.field import _v2


def recenter(P, a):
    """Coefficients of the polynomial P in powers of (z - a).

    Computed by repeated synthetic division by (z - a); exact.
    """
    if not isinstance(a, KElement):
        a = KElement(P.p, a)
    work = list(P.coeffs)
    out = []
    while work:
        # divide `work` by (z - a): quotient q, remainder carry
        q = [None] * (len(work) - 1)
        carry = work[-1]
        for k in range(len(work) - 2, -1, -1):
            q[k] = carry
            carry = work[k] + a * carry
        out.append(carry)
        work = q
    return Poly(P.p, out)


def diff_val(A, B, C, D, k):
    """2 v(c_k), math.inf for c_k = 0, of c_k the coefficient k of A*B -
    C*D, for Poly or lazy-shift factors: every product X_i * Y_(k-i) for
    i = 0..k is formed in K, a factor reading 0 past its last coefficient."""
    total = KElement(A.coeff(0).p)
    for i in range(k + 1):
        total = total + A.coeff(i) * B.coeff(k - i) - C.coeff(i) * D.coeff(k - i)
    return _v2(total)


def count_roots_in_ball(P, ball):
    if P.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    shifted = recenter(P, ball.center)
    return count_roots_with_min_valuation(shifted, ball.radius, strict=not ball.closed)


def contains_point(ball, x):
    d = (x - ball.center).valuation()
    return d >= ball.radius if ball.closed else d > ball.radius


def contains_ball(outer, inner):
    within = contains_point(outer, inner.center)
    if outer.closed:
        return inner.radius >= outer.radius and within
    # open outer ball: a closed inner ball must be strictly smaller
    if inner.closed and not inner.radius > outer.radius:
        return False
    if not inner.closed and not inner.radius >= outer.radius:
        return False
    return within


def same_set(x, y):
    # over C_v a closed ball of radius in the value group never equals an
    # open one, so kinds must agree
    if x.closed != y.closed or x.radius != y.radius:
        return False
    return contains_point(x, y.center)


def properly_contains(x, y):
    return contains_ball(x, y) and not same_set(x, y)


def intersects(x, y):
    # balls that meet are nested, so one center lies in the other ball
    return contains_point(x, y.center) or contains_point(y, x.center)


def disjoint_from(x, y):
    return not intersects(x, y)


def poly_mul(P, Q):
    """The product of two polynomials over K, one K multiply-add per pair of
    coefficients; exact."""
    if P.is_zero or Q.is_zero:
        return Poly.zero(P.p)
    out = [KElement(P.p)] * (len(P.coeffs) + len(Q.coeffs) - 1)
    for i, a in enumerate(P.coeffs):
        if a.is_zero:
            continue
        for j, b in enumerate(Q.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly(P.p, out)


def poly_divmod(P, Q):
    """Quotient and remainder of P by Q != 0 over K: one step per quotient
    coefficient, each one K multiply-add per coefficient of Q; exact."""
    if Q.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem, n, lead_inv = list(P.coeffs), Q.degree, Q.lead.inverse()
    quot = [KElement(P.p)] * max(0, len(rem) - n)
    while len(rem) - 1 >= n:
        k = len(rem) - 1 - n
        c = quot[k] = rem[-1] * lead_inv
        for j, b in enumerate(Q.coeffs):
            rem[k + j] = rem[k + j] - c * b
        while rem and rem[-1].is_zero:
            rem.pop()
    return Poly(P.p, quot), Poly(P.p, rem)


def bump_factor(a, c, M):
    """1/(1 - ((z - a)/c)^M) = c^M/(c^M - (z - a)^M), as a reduced map."""
    p = c.p
    shifted = Poly.one(p)
    for _ in range(M):
        shifted = poly_mul(shifted, Poly(p, (-a, 1)))
    cM = Poly.constant(p, c**M)
    return RationalMap(cM, cM - shifted)


def glued_sum(models, plan, shift=0):
    """sum_i f_i * h_j, h_j the bump factor of ball j = (i + shift) mod n,
    as n products and n - 1 sums of reduced rational maps."""
    n = len(models)
    F = None
    for i, m in enumerate(models):
        j = (i + shift) % n
        h = bump_factor(models[j].domain.center, plan.c[j], plan.M[j])
        term = RationalMap(poly_mul(m.f.num, h.num), poly_mul(m.f.den, h.den))
        if F is not None:
            term = RationalMap(
                poly_mul(F.num, term.den) + poly_mul(term.num, F.den),
                poly_mul(F.den, term.den),
            )
        F = term
    return F


def check_global_boundedness(models):
    """Every f_i pole-free on every ball B_j with f_i(B_j) inside B(0; 1),
    raising HypothesisViolation with the library's messages."""
    for i, mi in enumerate(models):
        for j, mj in enumerate(models):
            if not pole_free_on_ball(mi.f, mj.domain):
                raise HypothesisViolation(
                    f"map {i} has a pole on ball {j} ({_show(mj.domain)}); "
                    "every local map must be analytic on the union of the balls"
                )
            img = image_of_ball(mi.f, mj.domain)
            if img.radius < 0 or img.center.valuation() < 0:
                raise HypothesisViolation(
                    f"map {i} sends ball {j} onto {_show(img)}, which is not inside B(0; 1)"
                )


def pole_free_on_ball(f, ball):
    if f.den.degree == 0:
        return True
    return count_roots_in_ball(f.den, ball) == 0


def sup_norm_exp_on_ball(f, ball):
    if not pole_free_on_ball(f, ball):
        raise PoleInBallError(f"map has a pole on {ball}")
    num_exp = gauss_norm_exp(recenter(f.num, ball.center), ball.radius.exp, from_k=0)
    return num_exp - poly_eval(f.den, ball.center).valuation()


def image_of_ball(f, ball):
    if not pole_free_on_ball(f, ball):
        raise PoleInBallError(f"map has a pole on {ball}")
    a = ball.center
    pa = poly_eval(f.num, a)
    qa = poly_eval(f.den, a)
    g = poly_mul(f.num, Poly.constant(a.p, qa)) - poly_mul(f.den, Poly.constant(a.p, pa))
    e = gauss_norm_exp(recenter(g, a), ball.radius.exp, from_k=1)
    if e.is_infinite:
        raise ValueError("constant map: the image of the ball is a point, not a ball")
    return Ball(pa * qa.inverse(), Radius(e - qa.valuation() * 2), closed=ball.closed)


def wdeg(f, b, ball):
    img = image_of_ball(f, ball)
    if not contains_point(img, b):
        raise ValueError(f"target {b} lies outside the image {img}")
    return count_roots_in_ball(f.num - poly_mul(f.den, Poly.constant(b.p, b)), ball)


def sample_points(ball, budget):
    if budget < 1:
        return []
    p = ball.p
    pts = [ball.center]
    j = ball.radius if ball.closed else ball.radius + 1
    while len(pts) < budget:
        scale = uniformizer_power(p, j)
        for u in range(1, p):
            pts.append(ball.center + scale * u)
            if len(pts) >= budget:
                break
        j += 1
    return pts


def sample_checks(F, f, ball, samples, image, bound, epsilon):
    """(Sample(z, v(F(z) - f(z))), whether z passes) for the ball's first
    `samples` sample points z: F and f evaluated at every point in K, with
    no shell read off the center."""
    out = []
    for z in sample_points(ball, samples):
        Fz = F.eval(z)
        w = (Fz - f.eval(z)).valuation()
        out.append((Sample(z, w), w >= bound and w > epsilon and contains_point(image, Fz)))
    return out


def spot_checks(F, f, ball, samples, image, bound, epsilon):
    """(witnesses, ok) for the ball's first `samples` sample points, as
    `gluing._spot_checks` returns them."""
    checks = sample_checks(F, f, ball, samples, image, bound, epsilon)
    return tuple(s for s, _ in checks), all(ok for _, ok in checks)


def certify_theorem1(F, models, plan, samples=8):
    eps_exp = plan.epsilon.exp
    checks = []
    for i, m in enumerate(models):
        B = m.domain
        if not pole_free_on_ball(F, B):
            checks.append(BallCheck(i, False, False, None, None, (), False))
            continue
        img = image_of_ball(F, B)
        diff = RationalMap(
            poly_mul(F.num, m.f.den) - poly_mul(m.f.num, F.den), poly_mul(F.den, m.f.den)
        )
        bound = sup_norm_exp_on_ball(diff, B)
        witnesses, samples_ok = spot_checks(F, m.f, B, samples, img, bound, eps_exp)
        checks.append(
            BallCheck(i, True, same_set(img, m.image), img, bound, witnesses, samples_ok)
        )
    return Certificate(
        checks=tuple(checks),
        epsilon=plan.epsilon,
        degree_num=F.num.degree,
        degree_den=F.den.degree,
    )


def classify_disk(F, U):
    if U.closed:
        raise ValueError("classification requires an open disk")
    if not pole_free_on_ball(F, U):
        raise PoleInBallError(f"map has a pole on {U}")
    img = image_of_ball(F, U)
    if disjoint_from(img, U):
        return DiskBehavior(kind=INCONCLUSIVE, image=img)
    if properly_contains(U, img):
        return DiskBehavior(kind=ATTRACTING, image=img, wdeg=wdeg(F, img.center, U))
    if same_set(img, U):
        d = wdeg(F, U.center, U)
        if d >= 2:
            return DiskBehavior(kind=ATTRACTING, image=img, wdeg=d)
        lam = F.derivative_at(U.center)
        certified = isinstance(lam, KElement) and (lam - 1).valuation() == 0
        return DiskBehavior(
            kind=INDIFFERENT,
            image=img,
            wdeg=d,
            existence_certified=certified,
            derivative_at_center=lam if isinstance(lam, KElement) else None,
        )
    if properly_contains(img, U):
        d = wdeg(F, U.center, U)
        return DiskBehavior(kind=REPELLING if d == 1 else INCONCLUSIVE, image=img, wdeg=d)
    return DiskBehavior(kind=INCONCLUSIVE, image=img)
