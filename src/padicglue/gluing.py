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
from itertools import combinations
from math import inf
from typing import NamedTuple

from .algebra import Poly, RationalMap, _tail_bounds, _v2_at, _v2s, _values
from .errors import (
    HypothesisViolation, LemmaInapplicable, LimitExceeded, PoleInBallError, _power_str, _show,
)
from .field import (
    KElement, ValExp, _int_val, _point, _shared_exp, _twice_val, _twice_val_at_least,
    _twice_val_over, uniformizer_power,
)
from .geometry import Ball, image_of_ball, pairwise_deltas, sample_points, sup_norm_exp_on_ball

__all__ = [
    "BallCheck",
    "Certificate",
    "GluingPlan",
    "LocalModel",
    "M_LIMIT",
    "RADIUS_LIMIT",
    "Sample",
    "build_F",
    "build_h",
    "certify_theorem1",
    "check_monotonicity",
    "check_subdisk_transfer",
    "plan_gluing",
    "validate_plan",
]

# each M_i adds to deg F, and a Taylor shift whose tail bound is slack costs
# time quadratic in deg F: ex2 with one M_i of 100, 300 and 1000 certifies
# in about 0.16, 0.45 and 1.5 s on a 2-vCPU host, where shifting every
# coefficient took about 1.4, 10 and 101 s
M_LIMIT = 256
# a radius exponent r_i sets the size of c_i = p^(s_i), s_i = (r_i + delta_i)/2,
# and of every power of it that follows: ex2 with every radius at 512 exits
# (its image centers are too long to print) after about 2 s at p = 2^31 - 1,
# at 1000 after about 7 s, on a 2-vCPU host
RADIUS_LIMIT = 512


@dataclass(frozen=True)
class LocalModel:
    """A local map f together with its closed domain ball.

    The image ball is always computed exactly, once, and kept; when a
    declared image is supplied it is checked against the computation at
    construction time.
    """

    f: RationalMap
    domain: Ball
    declared_image: Ball | None = None

    def __post_init__(self):
        if not self.domain.closed:
            raise HypothesisViolation("local model domains must be closed balls")
        if self.f.degree == 0:
            raise HypothesisViolation(
                "local map is constant on its domain; its image is not a ball"
            )
        try:
            img = image_of_ball(self.f, self.domain)
        except PoleInBallError as exc:
            raise HypothesisViolation(
                f"local map has a pole on its domain {_show(self.domain)}"
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


class Sample(NamedTuple):
    """A spot check's witness on ball i: a point z and v(F(z) - f_i(z))."""

    point: KElement
    diff_exp: ValExp


@dataclass(frozen=True)
class BallCheck:
    """Certificate entry for one ball.  A ball on which F has a pole
    records nothing else: the remaining fields keep their defaults."""

    index: int
    pole_free_ok: bool
    image_ok: bool = False
    image: Ball | None = None
    eps_bound_exp: ValExp | None = None
    witnesses: tuple = ()
    samples_ok: bool = False

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


def _check_exponent(e: ValExp, what: str) -> None:
    # radius and delta exponents set the size of c_i = p^(s_i), 2 s_i = r_i + delta_i
    if not -RADIUS_LIMIT <= e <= RADIUS_LIMIT:
        raise LimitExceeded(f"{what} {_show(e)} is outside [-{RADIUS_LIMIT}, {RADIUS_LIMIT}]")


def _check_models(models) -> None:
    # the hypotheses on the local models: at least one, on pairwise disjoint
    # balls, every f_i pole-free on every ball B_j and f_i(B_j) inside
    # B(0; 1).  A pole-free map sends a ball onto a ball, so f_i(B_j) lies
    # in B(0; 1) exactly when sup |f_i| <= 1 on B_j.
    if not models:
        raise HypothesisViolation("need at least one local model")
    for i, m in enumerate(models):
        _check_exponent(m.domain.radius, f"ball {i}: radius exponent")
    for (i, mi), (j, mj) in combinations(enumerate(models), 2):
        if not mi.domain.disjoint_from(mj.domain):
            raise HypothesisViolation(f"balls not pairwise disjoint: balls {i} and {j} intersect")
    for i, mi in enumerate(models):
        for j, mj in enumerate(models):
            try:
                sup = sup_norm_exp_on_ball(mi.f, mj.domain)
            except PoleInBallError as exc:
                raise HypothesisViolation(
                    f"map {i} has a pole on ball {j} ({_show(mj.domain)}); "
                    "every local map must be analytic on the union of the balls"
                ) from exc
            if sup < 0:
                img = image_of_ball(mi.f, mj.domain)
                raise HypothesisViolation(
                    f"map {i} sends ball {j} onto {_show(img)}, which is not inside B(0; 1)"
                )


def _tau(models, epsilon: ValExp) -> ValExp:
    # tau = min{t_1, ..., t_n, epsilon}, as the largest exponent
    return max([m.image.radius for m in models] + [epsilon])


def _least_M(r: ValExp, d: ValExp, tau: ValExp) -> int:
    # the least integer M with (r/delta)^(M/2) < tau, i.e. M*(r - d) > 2*tau
    # in exponents; it is >= 1 because every image lies in B(0; 1), so
    # tau >= 0.  Without r < delta and a finite tau no M exists: 0 then
    # stands in, and _check_plan names the failed hypothesis first.
    if not r > d or tau.is_infinite:
        return 0
    return 2 * tau.t // (r - d).t + 1


def _check_plan(models, plan: GluingPlan) -> None:
    # every recorded constant against the models; M_i need not be minimal
    n = len(models)
    if not (len(plan.deltas) == len(plan.s) == len(plan.c) == len(plan.M) == n):
        raise HypothesisViolation("plan size differs from the number of models")
    if plan.epsilon.is_infinite:
        raise HypothesisViolation("epsilon must be a positive radius")
    if plan.tau != _tau(models, plan.epsilon):
        raise HypothesisViolation("plan tau is not min{t_i, epsilon}")
    true_deltas = pairwise_deltas([m.domain.center for m in models]) if n >= 2 else None
    for i, m in enumerate(models):
        r, d, s, c, M = m.domain.radius, plan.deltas[i], plan.s[i], plan.c[i], plan.M[i]
        if true_deltas is not None and d < true_deltas[i]:
            raise HypothesisViolation(
                f"delta for ball {i} exceeds the distance to the nearest other center"
            )
        # all comparisons are of exponents: the smaller radius has the larger one
        if not r > d:
            raise HypothesisViolation(
                f"ball {i}: radius must be strictly smaller than delta"
                f" (r = {_power_str('p', r)}, delta = {_power_str('p', d)})"
            )
        if s * 2 != r + d:
            raise HypothesisViolation(f"ball {i}: s is not the geometric mean of r and delta")
        if not isinstance(c, KElement) or c.valuation() != s:
            raise HypothesisViolation(f"ball {i}: |c| differs from s; c must have |c| = s_i")
        m_min = _least_M(r, d, plan.tau)
        if not isinstance(M, int) or isinstance(M, bool) or M < m_min:
            raise HypothesisViolation(
                f"ball {i}: M = {_show(M)} fails the strict tau bound;"
                f" M must be an integer >= the minimal value {_show(m_min)}"
            )
        if M > M_LIMIT:
            raise LimitExceeded(f"ball {i}: M = {_show(M)} is above the limit of {M_LIMIT}")


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
    where tau = min{t_1, ..., t_n, epsilon}.  Overrides list one entry per
    ball.  They may shrink deltas, raise M_i, or replace c_i by another
    element of the same absolute value; a None entry in M_override or
    c_override keeps the default for its ball.  The plan is checked like
    validate_plan checks a stored one.
    """
    models = list(models)
    _check_models(models)
    n = len(models)
    for name, given in (("delta", delta_override), ("M", M_override), ("c", c_override)):
        if given is not None and len(given) != n:
            raise HypothesisViolation(f"{name} override must list {n} entries, one per ball")
    if delta_override is not None:
        deltas = [ValExp(d) for d in delta_override]
        for i, d in enumerate(deltas):
            _check_exponent(d, f"delta_override[{i}]: exponent")
    elif n == 1:
        raise HypothesisViolation("a single ball needs an explicit delta_override")
    else:
        deltas = pairwise_deltas([m.domain.center for m in models])

    tau = _tau(models, epsilon)
    ss, cs, Ms = [], [], []
    for i, (m, d, c, M) in enumerate(
        zip(models, deltas, c_override or [None] * n, M_override or [None] * n)
    ):
        try:
            ss.append((m.domain.radius + d) * Fraction(1, 2))
        except ValueError as exc:
            raise HypothesisViolation(
                f"ball {i}: the geometric mean of r and delta has no radius in p^((1/2)Z)"
            ) from exc
        cs.append(uniformizer_power(m.domain.p, ss[i]) if c is None else c)
        Ms.append(_least_M(m.domain.radius, d, tau) if M is None else M)

    plan = GluingPlan(
        deltas=tuple(deltas),
        s=tuple(ss),
        c=tuple(cs),
        M=tuple(Ms),
        tau=tau,
        epsilon=epsilon,
    )
    _check_plan(models, plan)
    return plan


def validate_plan(models, plan: GluingPlan) -> None:
    """Check the models' hypotheses and every constant of the plan, as
    plan_gluing checks the plans it makes; M values need not be minimal
    (overrides may raise them).  Raises HypothesisViolation, or
    LimitExceeded for a radius exponent beyond RADIUS_LIMIT or an M_i
    above M_LIMIT."""
    _check_models(models)
    _check_plan(models, plan)


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


# the deep-shell set-up of a ball (`_first_deep_sample`) runs only where at
# least this many samples follow the center.  It pays only for the samples
# past its shell, which starts 1 to 111 samples in on the benchmark's
# instances: certifying the 72 `suite` instances with it on every ball took
# 17% longer at 8 samples per ball, 8% at 16 and 28% at 24, and 6% less at
# 32 and 15% less at 40 (medians of 15 alternating runs, shared 2-vCPU
# host, Python 3.11.7)
_DEEP_SHELL_SAMPLES = 32


def _first_deep_sample(F, f, ball: Ball, image: Ball, budget: int, tw):
    """The index of the first of `sample_points(ball, budget)` from which
    on every sample z = a + t has the witness tw of the center a, and lies
    in the image when a does; math.inf where no such index is below the
    budget.

    With F = N/Q and f = n/q, F - f = X/(Q q) for X = N q - n Q, and
    F - c = Y/Q for Y = N - c Q and the image center c.  F and f are
    pole-free on the ball, so Q and q have no zero there, and a
    polynomial with no zero in a ball keeps its absolute value at a on the
    whole ball (its Newton polygon): v(Q(z)) = v(Q(a)) and
    v(q(z)) = v(q(a)) at every sample, and Q and q need no row.  A shell t
    with v(X(a)) < min over k >= 1 of L_k + k v(t), L_k X's tail bounds
    about a (`algebra._tail_bounds`), gives v(X(z)) = v(X(a)) at each of
    its points, by the strict ultrametric inequality, so the witness there
    is tw.  Once min over k >= 1 of L_k + k v(t) - v(Q(a)) for Y reaches
    the image radius (exceeds it for an open image), F(z) - c is as close
    to 0 as F(a) - c, or within the radius.  Each bound rises with v(t),
    so every deeper shell holds too.  X(a) = 0 leaves every sample exact.
    Y is built only when X's shell lies within the budget.
    """
    if tw == inf:
        return inf
    p, (N, Q), (n, q) = F.p, (F.num, F.den), (f.num, f.den)
    a = _point(p, ball.center)
    # 2 v(a), 2 v(Q(a)) and 2 v(q(a))
    va, tQ, tq = _twice_val_over(p, a[:2], a[2]), _v2_at(Q, a), _v2_at(q, a)

    def rows():
        # per polynomial, the least R that L_k + k v(t) must reach for
        # every k >= 1, doubled: above v(X(a)) = v(F(a) - f(a)) + v(Q(a))
        # + v(q(a)) for X, and the image radius plus v(Q(a)) for Y
        yield N * q - n * Q, tw + tQ + tq + 1
        yield N - Q * image.center, image.radius.t + (not image.closed) + tQ

    # shells run from t0 = 2 v(t) in steps of 2, p - 1 points each
    t0 = t = ball.radius.t + (0 if ball.closed else 2)
    for P, R in rows():
        for k, L in enumerate(_tail_bounds(_v2s(P), va)[1:], 1):
            if L < inf:
                t = max(t, -((L - R) // k))
        first = 1 + (p - 1) * -((t0 - t) // 2)
        if first >= budget:
            return inf
    return first


def _spot_checks(F, f, ball: Ball, samples: int, image: Ball, bound: ValExp,
                 epsilon: ValExp) -> tuple:
    """(witnesses, ok) for the ball's first `samples` sample points
    (`sample_points`): a `Sample` (z, e) per point, e = v(F(z) - f(z)) as
    one shared ValExp per exponent (`field._shared_exp`), and whether every
    sample clears the certified bound and epsilon and lands in the image.
    F and f must be pole-free on the ball, as `certify_theorem1` proves
    before it calls this.

    One integer pass per sample builds no K element: the point's `_point`
    triple feeds one `algebra._values` per map, which gives F(z) = nF/qF
    and f(z) = nf/qf as Z[sqrt p] pairs.  The doubled witness
    2 v(nF qf - nf qF) - 2 v(qF) - 2 v(qf), math.inf for equal values, is
    wrapped unchanged; its sqrt p cross terms of f run only where f(z) has
    a sqrt p part.  It passes when at least twice the bound, which no
    pointwise value beats, and above twice epsilon.  F(z) lies in the
    image of radius exponent rho about (cu + cv sqrt p)/cw exactly when
    2 v(nF cw - (cu + cv sqrt p) qF) >= r0 + 2 v(qF), r0 = 2 rho + 2 v(cw),
    plus 1 for an open image to make its strict test the same >=.  That
    test (`field._twice_val_at_least`) is divisibility, not a valuation,
    and runs only while every sample has passed, as it cannot change the
    verdict otherwise.

    The samples past the center walk inward, and on the deep shells that
    `_first_deep_sample` finds from the center's values each has the
    center's witness exactly and lands in the image when the center does:
    those samples take the center's witness and leave the verdict as the
    center left it, with no pass.  Finding them costs O(deg F), so it runs
    only where _DEEP_SHELL_SAMPLES or more samples follow the center.
    """
    p = F.p
    points = sample_points(ball, samples)
    center = _point(p, image.center)
    r0 = image.radius.t + 2 * _int_val(center[2], p) + (0 if image.closed else 1)
    tb, te = bound.t, epsilon.t
    witnesses, ok, deep = [], True, inf
    for index, z in enumerate(points):
        if index == deep:
            break
        x = _point(p, z)
        nF, _, qF, _ = _values(F, x, False)
        (na, nb), _, (qa, qb), _ = _values(f, x, False)
        (Na, Nb), (Qa, Qb) = nF, qF
        # nF qf - nf qF
        if nb or qb:
            xa = Na * qa + p * Nb * qb - na * Qa - p * nb * Qb
            xb = Na * qb + Nb * qa - na * Qb - nb * Qa
        else:
            xa, xb = Na * qa - na * Qa, Nb * qa - na * Qb
        tQ = _twice_val(p, qF)
        tw = _twice_val(p, (xa, xb)) - tQ - _twice_val(p, (qa, qb)) if xa or xb else inf
        ok = ok and tw >= tb and tw > te and _twice_val_at_least(p, nF, qF, center, r0 + tQ)
        witnesses.append(Sample(z, _shared_exp(tw)))
        if not index and len(points) > _DEEP_SHELL_SAMPLES:
            deep = _first_deep_sample(F, f, ball, image, len(points), tw)
    # the deep samples, if any, take the center's witness
    witnesses.extend(Sample(z, witnesses[0].diff_exp) for z in points[len(witnesses):])
    return witnesses, ok


def certify_theorem1(F: RationalMap, models, plan: GluingPlan, samples: int = 8) -> Certificate:
    """Exact certification of the glued map against its contract.

    Per ball B_i: (a) F pole-free; (b) the image F(B_i) equals the
    model image as a set; (c) the sup-norm exponent of F - f_i on B_i
    strictly exceeds the epsilon exponent; (d) sampled points agree with
    both the certified bound and the image.  Failures are recorded, never
    raised.

    (b) and (c) are `image_of_ball` and `sup_norm_exp_on_ball(F, B_i,
    minus=f_i)`, and (a) is the PoleInBallError that the first of them
    raises on a ball holding a pole of F.  Both are scans of the lazy Taylor
    shifts that F's numerator and denominator keep about a_i, which
    compute only the shifted coefficients their tail bounds cannot rule
    out (see algebra._Prefix): on the benchmark's 20-ball sweep, 6 of
    deg F + 1 = 97 or 101 per shift.  f_i's shifts about a_i are the ones
    its LocalModel started.  F keeps its shifts (algebra._shifted), so a
    census of disks about the same centers shifts nothing again.
    The sup norm in (c) is taken of the unreduced difference
    (N*d - n*D) / (D*d) for F = N/D and f_i = n/d, without a gcd.  Its
    bound equals that of the reduced F - f_i: the Gauss norm on a ball is
    multiplicative, and a common factor divides D*d, which has no zero on
    B_i, so its norm on B_i equals its absolute value at a_i and cancels.

    (d) is `_spot_checks` at `sample_points(B_i, samples)`, decided on
    integers, with the deep shells read off the center; a ball's
    witnesses are its `Sample`s, one per point.
    """
    checks = []
    for i, m in enumerate(models):
        B = m.domain
        try:
            img = image_of_ball(F, B)
        except PoleInBallError:
            checks.append(BallCheck(index=i, pole_free_ok=False))
            continue
        bound = sup_norm_exp_on_ball(F, B, minus=m.f)
        # F and f_i are pole-free on B, so neither qF nor qf is (0, 0)
        witnesses, samples_ok = _spot_checks(F, m.f, B, samples, img, bound, plan.epsilon)
        checks.append(
            BallCheck(
                index=i,
                pole_free_ok=True,
                image_ok=img.same_set(m.image),
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
            f"local image radius {_power_str('p', local_img.radius)} is at most"
            f" eps {_power_str('p', eps)}; transfer says nothing"
        )
    return image_of_ball(F, sub).same_set(local_img)

