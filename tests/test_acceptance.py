"""Acceptance suite: nine end-to-end criteria, one reported line each.

Every check is exact (field equality, exponent equality, set equality of
balls); there are no tolerances anywhere.  Randomized suites draw from
fixed seeds so runs are reproducible.
"""

import time
from fractions import Fraction

import pytest

from padicglue import (
    ATTRACTING,
    INDIFFERENT,
    REPELLING,
    Ball,
    FieldConfig,
    FixedPointCensus,
    KElement,
    LocalModel,
    Poly,
    Radius,
    RationalMap,
    Witness,
    build_F,
    build_h,
    certify_theorem1,
    check_monotonicity,
    epsilon_for_census,
    hensel_fixed_point,
    multiplier,
    orbit,
    plan_gluing,
    sample_points,
    suggest_witness,
    uniformizer_power,
    verify_census,
)
from padicglue.presets import (
    EX2_EPSILON,
    ex1_derivative_closed_form,
    ex1_models,
    ex2_models,
)

from conftest import make_gluing_instance, roots_in_ball, shell_points


def _report(number: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, f"criterion {number}: " + "; ".join(str(f) for f in failures[:10])


@pytest.fixture(scope="module")
def suite4(rng_factory):
    rng = rng_factory(20260816)
    t0 = time.perf_counter()
    instances = []
    for _ in range(100):
        models, eps = make_gluing_instance(rng)
        plan = plan_gluing(models, eps)
        F = build_F(models, plan)
        cert = certify_theorem1(F, models, plan)
        instances.append((models, eps, plan, F, cert))
    return instances, time.perf_counter() - t0


def test_acceptance_1_reference_three_ball_instance():
    failures = []
    t0 = time.perf_counter()
    models = ex2_models()
    plan = plan_gluing(models, EX2_EPSILON)
    if [d.exp for d in plan.deltas] != [1, 1, 1]:
        failures.append(f"deltas {plan.deltas}")
    if [s.exp for s in plan.s] != [Fraction(3, 2)] * 3:
        failures.append(f"s {plan.s}")
    if plan.tau.exp != 3:
        failures.append(f"tau {plan.tau}")
    if plan.M != (7, 7, 7):
        failures.append(f"M {plan.M}")
    F = build_F(models, plan)
    cert = certify_theorem1(F, models, plan)
    if not cert.passes:
        failures.append("certificate failed")
    K = FieldConfig(3)
    wanted = (Ball(K(0), Radius(3)), Ball(K(3), Radius(1)), Ball(K(6), Radius(2)))
    for ch, want in zip(cert.checks, wanted):
        if ch.image is None or not ch.image.same_set(want):
            failures.append(f"image of ball {ch.index} is {ch.image}, wanted {want}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5:
        failures.append(f"took {elapsed:.1f}s")
    _report(1, "three-ball reference glue", failures)


def test_acceptance_2_tunable_multiplier_closed_form():
    failures = []
    t0 = time.perf_counter()
    beta = Fraction(1, 3)
    K = FieldConfig(3)
    zero = KElement(3, 0)
    for alpha, expected_kind in (
        (Fraction(3), ATTRACTING),
        (Fraction(1, 3), REPELLING),
        (Fraction(2), INDIFFERENT),
    ):
        models = ex1_models(alpha, beta)
        plan = plan_gluing(models, Radius(3))
        F = build_F(models, plan)
        lam = F.derivative_at(zero)
        closed = ex1_derivative_closed_form(alpha, beta, plan)
        if lam != closed:
            failures.append(f"alpha={alpha}: evaluated {lam} != closed form {closed}")
        # 1 - 3*beta = 0, so the closed form collapses to alpha itself
        if lam != K(alpha):
            failures.append(f"alpha={alpha}: derivative {lam} != {alpha}")
        kind = multiplier(F, zero).kind
        if kind != expected_kind:
            failures.append(f"alpha={alpha}: classified {kind}, wanted {expected_kind}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5:
        failures.append(f"took {elapsed:.1f}s")
    _report(2, "closed-form derivative at the tunable center", failures)


def test_acceptance_3_bump_factor_bounds(rng_factory):
    rng = rng_factory(20260816 + 3)
    failures = []
    for trial in range(50):
        p = rng.choice((2, 3, 5))
        K = FieldConfig(p)
        a = K(Fraction(rng.randrange(-20, 21), rng.choice((1, 2, 3))))
        e_d = Fraction(rng.choice((0, 1)))
        e_r = e_d + rng.choice((1, 2))
        e_s = (e_r + e_d) / 2
        M = rng.randrange(1, 9)
        unit = rng.choice([u for u in (1, 2, 3, 4) if u % p])
        c = uniformizer_power(p, e_s) * unit
        h = build_h(a, c, M)
        shared_bound = Fraction(M) * (e_r - e_d) / 2

        inner = sample_points(Ball(a, Radius(e_r)), 20)
        outer = shell_points(a, [e_d, e_d - Fraction(1, 2), e_d - 1], per_shell=7)
        for z in inner:
            w = (z - a).valuation()
            hz = h.eval(z)
            if hz.valuation() != 0:
                failures.append(f"trial {trial}: |h| != 1 inside at {z}")
            if (hz - 1).valuation() != M * (w - e_s):
                failures.append(f"trial {trial}: |h-1| != |(z-a)/c|^M at {z}")
            if not (hz - 1).valuation() >= shared_bound:
                failures.append(f"trial {trial}: inner bound broken at {z}")
        for z in outer:
            w = (z - a).valuation()
            hz = h.eval(z)
            if hz.valuation() != M * (e_s - w.exp):
                failures.append(f"trial {trial}: |h| != |(z-a)/c|^(-M) outside at {z}")
            if not hz.valuation() >= shared_bound:
                failures.append(f"trial {trial}: outer bound broken at {z}")
            # the exact factorization h - 1 = ((z-a)/c)^M * h holds everywhere
            if (hz - 1).valuation() != M * (w - e_s) + hz.valuation():
                failures.append(f"trial {trial}: factorization identity broken at {z}")
        if len(inner) < 20 or len(outer) < 20:
            failures.append(f"trial {trial}: too few sample points")
    _report(3, "bump factor two-sided bounds, 50 instances", failures)


def test_acceptance_4_randomized_certification(suite4):
    instances, elapsed = suite4
    failures = []
    if len(instances) != 100:
        failures.append(f"built {len(instances)} instances")
    for idx, (models, eps, plan, F, cert) in enumerate(instances):
        if not cert.passes:
            failures.append(f"instance {idx}: certificate failed")
        for ch in cert.checks:
            if ch.eps_bound_exp is None or not ch.eps_bound_exp > eps.exp:
                failures.append(f"instance {idx} ball {ch.index}: bound not beyond epsilon")
    if elapsed >= 120:
        failures.append(f"took {elapsed:.1f}s")
    _report(4, "randomized certification, 100 instances", failures)


def test_acceptance_5_planner_minimality(suite4):
    instances, _ = suite4
    failures = []
    checked = 0
    for idx, (models, eps, plan, F, cert) in enumerate(instances):
        tau = plan.tau.exp
        for i, m in enumerate(models):
            gap = m.domain.radius.exp - plan.deltas[i].exp
            if not Fraction(plan.M[i]) * gap / 2 > tau:
                failures.append(f"instance {idx} ball {i}: chosen M fails the strict bound")
            if plan.M[i] > 1:
                checked += 1
                if Fraction(plan.M[i] - 1) * gap / 2 > tau:
                    failures.append(f"instance {idx} ball {i}: M - 1 still satisfies the bound")
    if checked == 0:
        failures.append("no ball ever needed M > 1")
    _report(5, "planner exponent minimality", failures)


def test_acceptance_6_tolerance_monotonicity(suite4):
    instances, _ = suite4
    failures = []
    for idx, (models, eps, plan, F, cert) in enumerate(instances[:25]):
        finer = Radius(eps.exp + 1)
        if not check_monotonicity(models, eps, finer):
            failures.append(f"instance {idx}: finer build failed the coarser contract")
    _report(6, "finer tolerance satisfies coarser contract, 25 instances", failures)


def _fixed_point_suite_instance(p: int):
    """Models with one known attracting, repelling, and (for odd p)
    indifferent fixed point at centers 0, p, 2p."""
    K = FieldConfig(p)
    z = Poly.x(p)
    models = [
        LocalModel(f=RationalMap(z * p), domain=Ball(K(0), Radius(2))),
        LocalModel(
            f=RationalMap((z - p) * Fraction(1, p) + p), domain=Ball(K(p), Radius(2))
        ),
    ]
    kinds = [ATTRACTING, REPELLING]
    if p > 2:
        # u = 2 is a unit with |u - 1| = 1 only away from p = 2
        models.append(
            LocalModel(f=RationalMap((z - 2 * p) * 2 + 2 * p), domain=Ball(K(2 * p), Radius(2)))
        )
        kinds.append(INDIFFERENT)
    return models, kinds


def test_acceptance_7_fixed_point_census_and_orbits():
    failures = []
    slot = {ATTRACTING: 0, REPELLING: 1, INDIFFERENT: 2}
    for p in (2, 3, 5):
        models, kinds = _fixed_point_suite_instance(p)
        witnesses = []
        counts = [[0, 0, 0] for _ in models]
        for i, kind in enumerate(kinds):
            center = models[i].domain.center
            witnesses.append(
                Witness(ball_index=i, disk=suggest_witness(models[i], center, kind), expected=kind)
            )
            counts[i][slot[kind]] += 1
        census = FixedPointCensus(
            counts=tuple(tuple(c) for c in counts), witnesses=tuple(witnesses)
        )
        eps = epsilon_for_census(models, census)
        plan = plan_gluing(models, eps)
        F = build_F(models, plan)
        if not certify_theorem1(F, models, plan).passes:
            failures.append(f"p={p}: certificate failed")
        report = verify_census(F, models, census)
        if not report.passes:
            failures.append(f"p={p}: census failed")
        for w in report.witnesses:
            if w.got != w.expected:
                failures.append(f"p={p} ball {w.ball_index}: got {w.got}, wanted {w.expected}")

        # attracting witness: refine the fixed point, then watch the orbit close in
        zstar = hensel_fixed_point(F, 0, 40)
        start = KElement(p, p**3)
        exps = [s.dist_exp for s in orbit(F, start, 10, ref=zstar)]
        if len(exps) != 11 or any(e is None or e.is_infinite for e in exps):
            failures.append(f"p={p}: orbit did not record 10 finite distances")
        elif not all(b > a for a, b in zip(exps, exps[1:])):
            failures.append(f"p={p}: orbit distances not strictly increasing: {exps}")
    _report(7, "constructed fixed-point census with orbit convergence", failures)


def test_acceptance_8_root_counting_oracle(rng_factory):
    rng = rng_factory(20260816 + 8)
    failures = []
    for trial in range(200):
        p = rng.choice((2, 3, 5))
        K = FieldConfig(p)
        pool = []
        for _ in range(rng.randint(1, 3)):
            e = rng.randint(-2, 3)
            u = rng.randint(1, p * p)
            if u % p == 0:
                u += 1
            if rng.random() < 0.3:
                root = uniformizer_power(p, Fraction(2 * e + 1, 2)) * u
            else:
                root = K(u * Fraction(p) ** e)
            if root not in pool:
                pool.append(root)
        roots = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        P = Poly.constant(p, K(rng.choice((1, 2, p, Fraction(1, p)))))
        for r in roots:
            P = P * (Poly.x(p) - r)
        for _ in range(3):
            center = rng.choice([K(0)] + pool)
            anchor = (rng.choice(roots) - center).valuation()
            base = anchor.exp if not anchor.is_infinite else Fraction(rng.randint(-2, 3))
            exp = base + rng.choice(
                (Fraction(-1), Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1))
            )
            ball = Ball(center, Radius(exp), closed=rng.random() < 0.5)
            expected = sum(1 for r in roots if ball.contains_point(r))
            got = roots_in_ball(P, ball)
            if got != expected:
                failures.append(
                    f"trial {trial}: {ball} expected {expected}, got {got} for roots {roots}"
                )
    _report(8, "root counting versus brute force, 200 products", failures)


def test_acceptance_9_field_axioms(rng_factory):
    rng = rng_factory(20260816 + 9)
    failures = []
    for trial in range(1000):
        p = rng.choice((2, 3, 5))
        K = FieldConfig(p)

        def draw():
            return KElement(
                p,
                Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
                Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
            )

        x, y = draw(), draw()
        vx, vy = x.valuation(), y.valuation()
        vs = (x + y).valuation()
        if not vs >= min(vx, vy):
            failures.append(f"trial {trial}: ultrametric broken")
        if vx != vy and vs != min(vx, vy):
            failures.append(f"trial {trial}: ultrametric equality broken")
        if (x * y).valuation() != vx + vy:
            failures.append(f"trial {trial}: multiplicativity broken")
        if not x.is_zero:
            inv = x.inverse()
            if inv * x != K(1):
                failures.append(f"trial {trial}: inverse round-trip broken")
            if inv.inverse() != x:
                failures.append(f"trial {trial}: double inverse broken")
            if inv.valuation() + vx != 0:
                failures.append(f"trial {trial}: inverse valuation broken")
    _report(9, "field axiom checks, 1000 draws", failures)
