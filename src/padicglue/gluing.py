"""Gluing local analytic models on disjoint balls into one rational map.

Given maps f_i defined on pairwise disjoint closed balls B_i = B(a_i, r_i),
the construction builds bump factors

    h_i(z) = 1 / (1 - ((z - a_i)/c_i)^(M_i))

which are 1 up to a small error on B_i and small on every other ball, and
returns F = sum_i f_i * h_i.  The planner chooses |c_i| as the geometric
mean of r_i and the separation delta_i, and the smallest exponents M_i
that push the cross-talk below the requested epsilon.  Nothing here is
approximate: the certificate recomputes images and sup norms exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import Poly, RationalMap
from .errors import HypothesisViolation, LemmaInapplicable, LimitExceeded, _show
from .field import KElement, ValExp, uniformizer_power
from .geometry import Ball, LocalExpansion, image_of_ball, pairwise_deltas, sample_points

__all__ = [
    "BallCheck",
    "Certificate",
    "GluingPlan",
    "LocalModel",
    "M_LIMIT",
    "build_F",
    "build_h",
    "certify_theorem1",
    "check_c3_hypotheses",
    "check_monotonicity",
    "check_subdisk_transfer",
    "plan_gluing",
    "validate_plan",
]

# each M_i adds to deg F, and certification time grows about quadratically
# in deg F: ex2 with one M_i of 100, 300 and 1000 certified in about 1, 11
# and 113 s on a 2-vCPU host
M_LIMIT = 256


@dataclass(frozen=True)
class LocalModel:
    """A local map f together with its closed domain ball.

    The image ball is always computed exactly; when a declared image is
    supplied it is checked against the computation at construction time.
    """

    f: RationalMap
    domain: Ball
    declared_image: Ball | None = None

    def __post_init__(self):
        if not self.domain.closed:
            raise HypothesisViolation("local model domains must be closed balls")
        local = LocalExpansion(self.f, self.domain)
        if not local.pole_free:
            raise HypothesisViolation(f"local map has a pole on its domain {_show(self.domain)}")
        try:
            img = local.image
        except ValueError as exc:
            raise HypothesisViolation(
                "local map is constant on its domain; its image is not a ball"
            ) from exc
        if self.declared_image is not None and not img.same_set(self.declared_image):
            raise HypothesisViolation(
                f"declared image {_show(self.declared_image)} differs from"
                f" computed image {_show(img)}"
            )
        object.__setattr__(self, "_image", img)

    @property
    def image(self) -> Ball:
        return self._image

    @property
    def center(self) -> KElement:
        return self.domain.center


@dataclass(frozen=True)
class GluingPlan:
    """All constants of one gluing run.  A plain record; see validate_plan."""

    deltas: tuple
    s: tuple
    c: tuple
    M: tuple
    tau: ValExp
    epsilon: ValExp

    @property
    def n(self) -> int:
        return len(self.M)


@dataclass(frozen=True)
class BallCheck:
    """Certificate entry for one ball."""

    index: int
    pole_free_ok: bool
    image_ok: bool
    image: Ball | None
    eps_bound_exp: ValExp | None
    witnesses: tuple
    samples_ok: bool

    @property
    def ok(self) -> bool:
        return self.pole_free_ok and self.image_ok and self.samples_ok


@dataclass(frozen=True)
class Certificate:
    """Exact evidence that a glued map meets its contract.

    Passes iff every ball is pole-free, every image matches the declared
    one as a set, every certified sup-norm exponent strictly exceeds the
    epsilon exponent, and all sampled spot checks are consistent.
    """

    checks: tuple
    epsilon: ValExp
    degree_num: int
    degree_den: int

    @property
    def passes(self) -> bool:
        for ch in self.checks:
            if not ch.ok:
                return False
            if ch.eps_bound_exp is None or not ch.eps_bound_exp > self.epsilon:
                return False
        return True


def build_h(a, c: KElement, M: int) -> RationalMap:
    """The bump factor 1/(1 - ((z - a)/c)^M), as a reduced rational map.

    On points with |z - a| < |c| it is 1 up to |(z-a)/c|^M; on points with
    |z - a| > |c| it has absolute value |(z-a)/c|^(-M).
    """
    if not isinstance(c, KElement):
        raise TypeError("c must be a KElement")
    if c.is_zero:
        raise ValueError("c must be nonzero")
    if not isinstance(M, int) or isinstance(M, bool) or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    p = c.p
    if not isinstance(a, KElement):
        a = KElement(p, a)
    cM = c ** M
    shifted = Poly(p, (-a, 1)) ** M
    return RationalMap(Poly.constant(p, cM), Poly.constant(p, cM) - shifted)


def _check_global_boundedness(models) -> None:
    # every f_i must be pole-free on every ball and map it inside B(0, 1)
    for i, mi in enumerate(models):
        for j, mj in enumerate(models):
            local = LocalExpansion(mi.f, mj.domain)
            if not local.pole_free:
                raise HypothesisViolation(
                    f"map {i} has a pole on ball {j} ({_show(mj.domain)}); "
                    "every local map must be analytic on the union of the balls"
                )
            img = local.image
            if img.radius < 0 or img.center.valuation() < 0:
                raise HypothesisViolation(
                    f"map {i} sends ball {j} onto {_show(img)}, which is not inside B(0; 1)"
                )


def plan_gluing(
    models,
    epsilon: ValExp,
    delta_override=None,
    M_override=None,
    c_override=None,
) -> GluingPlan:
    """Choose the gluing constants for the given models and tolerance.

    delta_i defaults to the distance from a_i to the nearest other center;
    s_i is the geometric mean of r_i and delta_i; c_i the canonical element
    of absolute value s_i; M_i minimal with (r_i/delta_i)^(M_i/2) < tau
    where tau = min{t_1, ..., t_n, epsilon}.  Overrides may shrink deltas,
    raise M_i, or replace c_i by another element of the same absolute value;
    a None entry in M_override or c_override keeps the default for its ball.
    """
    models = list(models)
    n = len(models)
    if n == 0:
        raise HypothesisViolation("need at least one local model")
    if epsilon.is_infinite:
        raise HypothesisViolation("epsilon must be a positive radius")
    for i, m in enumerate(models):
        for j in range(i + 1, n):
            if not m.domain.disjoint_from(models[j].domain):
                raise HypothesisViolation(
                    f"balls not pairwise disjoint: balls {i} and {j} intersect"
                )
    _check_global_boundedness(models)

    # separations
    if delta_override is not None:
        deltas = [ValExp(d) for d in delta_override]
        if len(deltas) != n:
            raise HypothesisViolation(f"delta override must list {n} radii")
        if n >= 2:
            true_deltas = pairwise_deltas([m.domain.center for m in models])
            for i, (d, td) in enumerate(zip(deltas, true_deltas)):
                if d < td:
                    raise HypothesisViolation(
                        f"delta override for ball {i} exceeds the distance to the nearest other center"
                    )
    elif n == 1:
        raise HypothesisViolation("a single ball needs an explicit delta_override")
    else:
        deltas = pairwise_deltas([m.domain.center for m in models])

    radii = [m.domain.radius for m in models]
    for i, (r, d) in enumerate(zip(radii, deltas)):
        # all comparisons are of exponents: the smaller radius has the larger one
        if not r > d:
            raise HypothesisViolation(
                f"ball {i}: radius must be strictly smaller than delta"
                f" (r = p^(-{_show(r)}), delta = p^(-{_show(d)}))"
            )

    ss = []
    for i, (r, d) in enumerate(zip(radii, deltas)):
        try:
            ss.append((r + d) * Fraction(1, 2))
        except ValueError as exc:
            raise HypothesisViolation(
                f"ball {i}: the geometric mean of r and delta has no radius in p^((1/2)Z)"
            ) from exc

    p = models[0].domain.p
    cs = list(c_override) if c_override is not None else [None] * n
    if len(cs) != n:
        raise HypothesisViolation(f"c override must list {n} elements")
    for i, (c, s) in enumerate(zip(cs, ss)):
        if c is None:
            cs[i] = uniformizer_power(p, s)
        elif not isinstance(c, KElement) or c.valuation() != s:
            raise HypothesisViolation(f"c override for ball {i} must have |c| = s_i")

    tau = max([m.image.radius for m in models] + [epsilon])

    Ms = []
    for i, (r, d) in enumerate(zip(radii, deltas)):
        gap = (r - d).exp  # > 0 by the radius check above
        # minimal integer M with M*gap/2 > tau, i.e. M*gap > 2*tau; it is
        # >= 1 because every image lies in B(0; 1), so tau >= 0
        m_min = 2 * tau.exp // gap + 1
        if M_override is not None:
            mo = M_override[i] if i < len(M_override) else None
            if mo is not None:
                if not isinstance(mo, int) or mo < m_min:
                    raise HypothesisViolation(
                        f"M override for ball {i} must be an integer >= the minimal value {m_min}"
                    )
                m_min = mo
        if m_min > M_LIMIT:
            raise LimitExceeded(f"ball {i}: M = {m_min} is above the limit of {M_LIMIT}")
        Ms.append(m_min)

    return GluingPlan(
        deltas=tuple(deltas),
        s=tuple(ss),
        c=tuple(cs),
        M=tuple(Ms),
        tau=tau,
        epsilon=epsilon,
    )


def validate_plan(models, plan: GluingPlan) -> None:
    """Check a plan against its models; raises HypothesisViolation on mismatch.

    M values need not be minimal (overrides may raise them), but every
    recorded invariant must hold.
    """
    n = len(models)
    if not (len(plan.deltas) == len(plan.s) == len(plan.c) == len(plan.M) == n):
        raise HypothesisViolation("plan size differs from the number of models")
    tau = max([m.image.radius for m in models] + [plan.epsilon])
    if plan.tau != tau:
        raise HypothesisViolation("plan tau is not min{t_i, epsilon}")
    for i, m in enumerate(models):
        r = m.domain.radius
        d = plan.deltas[i]
        if not r > d:
            raise HypothesisViolation(f"ball {i}: radius is not strictly smaller than delta")
        if plan.s[i] * 2 != r + d:
            raise HypothesisViolation(f"ball {i}: s is not the geometric mean of r and delta")
        if plan.c[i].valuation() != plan.s[i]:
            raise HypothesisViolation(f"ball {i}: |c| differs from s")
        M = plan.M[i]
        if not isinstance(M, int) or M < 1:
            raise HypothesisViolation(f"ball {i}: M must be a positive integer")
        if not (r - d) * M > tau * 2:
            raise HypothesisViolation(f"ball {i}: M fails the strict tau bound")


def _glued_sum(models, plan: GluingPlan, shift: int) -> RationalMap:
    # sum_i f_i * h_j with h_j the bump factor of ball j = (i + shift) mod n,
    # accumulated as one fraction N/D of plain polynomials and reduced once;
    # the reduced form with a monic denominator is unique, so it is the F
    # that reducing every partial sum would give
    n = len(models)
    N, D = Poly.zero(models[0].domain.p), Poly.one(models[0].domain.p)
    for i, m in enumerate(models):
        j = (i + shift) % n
        h = build_h(models[j].domain.center, plan.c[j], plan.M[j])
        num, den = m.f.num * h.num, m.f.den * h.den
        N, D = N * den + num * D, D * den
    return RationalMap(N, D)


def build_F(models, plan: GluingPlan) -> RationalMap:
    """Assemble F = sum_i f_i * h_i for the given plan."""
    validate_plan(models, plan)
    return _glued_sum(models, plan, 0)


def certify_theorem1(F: RationalMap, models, plan: GluingPlan, samples: int = 8) -> Certificate:
    """Exact certification of the glued map against its contract.

    Per ball B_i: (a) F pole-free; (b) image_of_ball(F, B_i) equals the
    model image as a set; (c) the sup-norm exponent of F - f_i on B_i
    strictly exceeds the epsilon exponent; (d) sampled points agree with
    both the certified bound and the image.  Failures are recorded, never
    raised.

    Each ball gets one LocalExpansion of F: the numerator and denominator
    of F are Taylor-shifted once about a_i, and (a), (b) and (c) are all
    read off those shifted coefficients (with f_i shifted once as well).
    The sup norm in (c) is taken of the unreduced difference
    (N*d - n*D) / (D*d) for F = N/D and f_i = n/d, without a gcd.  Its
    bound equals that of the reduced F - f_i: the Gauss norm on a ball is
    multiplicative, and a common factor divides D*d, which has no zero on
    B_i, so its norm on B_i equals its absolute value at a_i and cancels.
    F is evaluated once per sample point.
    """
    eps = plan.epsilon
    checks = []
    for i, m in enumerate(models):
        B = m.domain
        local = LocalExpansion(F, B)
        if not local.pole_free:
            checks.append(
                BallCheck(
                    index=i,
                    pole_free_ok=False,
                    image_ok=False,
                    image=None,
                    eps_bound_exp=None,
                    witnesses=(),
                    samples_ok=False,
                )
            )
            continue
        img = local.image
        image_ok = img.same_set(m.image)
        bound = local.sup_norm_exp(minus=LocalExpansion(m.f, B))
        witnesses = []
        samples_ok = True
        for z in sample_points(B, samples):
            Fz = F.eval(z)
            w = (Fz - m.f.eval(z)).valuation()
            witnesses.append((z, w))
            # pointwise values can never beat the certified sup bound, and
            # must themselves clear epsilon; the image must contain F(z)
            if not (w >= bound and w > eps and img.contains_point(Fz)):
                samples_ok = False
        checks.append(
            BallCheck(
                index=i,
                pole_free_ok=True,
                image_ok=image_ok,
                image=img,
                eps_bound_exp=bound,
                witnesses=tuple(witnesses),
                samples_ok=samples_ok,
            )
        )
    return Certificate(
        checks=tuple(checks),
        epsilon=plan.epsilon,
        degree_num=F.num.degree,
        degree_den=F.den.degree,
    )


def check_monotonicity(models, eps: ValExp, eps_prime: ValExp) -> bool:
    """Build at the finer tolerance eps_prime, certify against the coarser eps."""
    if not eps_prime > eps:
        raise ValueError("eps_prime must be strictly smaller than eps")
    plan = plan_gluing(models, eps_prime)
    F = build_F(models, plan)
    cert = certify_theorem1(F, models, replace(plan, epsilon=eps))
    return cert.passes


def check_subdisk_transfer(F: RationalMap, model: LocalModel, sub: Ball, eps: ValExp) -> bool:
    """On a sub-ball whose local image radius exceeds eps, F and the local
    map must have identical images.  Raises LemmaInapplicable otherwise."""
    if not model.domain.contains_ball(sub):
        raise ValueError(f"{sub} is not contained in the model domain {model.domain}")
    local_img = image_of_ball(model.f, sub)
    if not local_img.radius < eps:
        raise LemmaInapplicable(
            f"local image radius p^(-{local_img.radius}) is at most eps p^(-{eps});"
            " transfer says nothing"
        )
    return image_of_ball(F, sub).same_set(local_img)


def check_c3_hypotheses(models, i: int) -> bool:
    """Exact check of the indifferent-case hypotheses at the center a_i.

    Requires a_i to be a fixed point of f_i (error otherwise); returns the
    conjunction of: |f_i'(a_i)| = 1, |f_i'(a_i) - 1| = 1, and for every
    other index j, |f_j'(a_i)| < 1/min{t_1, ..., t_n}.
    """
    models = list(models)
    m = models[i]
    a = m.domain.center
    fa = m.f.eval(a)
    if not isinstance(fa, KElement) or fa != a:
        raise ValueError(f"center {a} is not a fixed point of model {i}")
    lam = m.f.derivative_at(a)
    if not isinstance(lam, KElement):
        raise ValueError(f"model {i} has a pole at its own center")
    if lam.valuation() != 0:
        return False
    if (lam - 1).valuation() != 0:
        return False
    # min over all model image radii; the bound is |f_j'(a_i)| < p^(max exp)
    max_t = max(mm.image.radius for mm in models)
    for j, mj in enumerate(models):
        if j == i:
            continue
        dj = mj.f.derivative_at(a)
        if not isinstance(dj, KElement):
            return False
        if not dj.valuation() > -max_t:
            return False
    return True
