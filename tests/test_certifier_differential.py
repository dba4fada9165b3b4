"""The certifier and disk classifier against their direct formulations.

`certifier_oracle` recenters from scratch for every question and reduces
F - f_i by a gcd; the library shifts each polynomial once per ball and
takes the sup norm of the unreduced difference.  Certificates and disk
classifications must agree exactly, including on local maps with
non-constant denominators, where the unreduced difference keeps a common
factor.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

import certifier_oracle as oracle
from conftest import make_gluing_instance, shared_pole_problem
from padicglue import (
    Ball,
    FieldConfig,
    HypothesisViolation,
    LocalModel,
    PoleInBallError,
    Poly,
    Radius,
    RationalMap,
    build_F,
    certify_theorem1,
    classify_disk,
    distance_exp,
    pairwise_deltas,
    plan_gluing,
    uniformizer_power,
)
from padicglue.presets import (
    EX2_EPSILON,
    crossed_sum,
    ex1_census,
    ex1_epsilon,
    ex1_models,
    ex2_census,
    ex2_models,
)
from padicglue.serialize import certificate_to_json

SUITE_SEED = 20261017
SUITE_SIZE = 30


def make_rational_instance(rng):
    """A random gluing problem whose local maps have non-constant
    denominators: f_i = p^k * g_i(z) / ((z - c)(1 + p z)).

    The pole c is a random integer outside every ball, and 1 + p z is a
    unit on the closed unit disk.  With |z - c| >= p^(-k) on every ball,
    the factor p^k keeps each map inside B(0; 1) on each ball."""
    while True:
        models, _ = make_gluing_instance(rng)
        p = models[0].domain.p
        c = FieldConfig(p)(rng.randrange(p**3))
        balls = [m.domain for m in models]
        if any(b.contains_point(c) for b in balls):
            continue
        k = int(max(distance_exp(c, b.center).exp for b in balls))
        z = Poly.x(p)
        den = (z - c) * (z * p + 1)
        try:
            rational = [
                LocalModel(f=RationalMap(m.f.num * p**k, den), domain=m.domain) for m in models
            ]
        except HypothesisViolation:
            continue  # g_i shares the factor z - c and the map is constant
        e_eps = max([1] + [m.image.radius.exp for m in rational]) + rng.choice((0, 1))
        return rational, Radius(e_eps)


def make_sqrt_instance(rng, p):
    """A random gluing problem over p whose ball centers have a sqrt p part
    and denominators prime to p, so separations, and with them the radii
    r_i = delta_i + 1 or + 2, may be half-integral.  Coefficients are
    p-integral, so every map sends every ball into B(0; 1)."""
    K = FieldConfig(p)
    dens = [d for d in range(1, 8) if d % p]
    z = Poly.x(p)
    while True:
        # rational parts all divisible by p leave the sqrt p parts to set
        # the separations, which then tend to be half-integral
        step = rng.choice((1, p))
        centers = set()
        while len(centers) < rng.choice((2, 3)):
            centers.add(K(Fraction(step * rng.randrange(p * p), rng.choice(dens)),
                          Fraction(rng.randrange(p * p), rng.choice(dens))))
        centers = sorted(centers, key=str)
        models = []
        for a, d in zip(centers, pairwise_deltas(centers)):
            f, pw = Poly.constant(p, K(rng.randrange(p), rng.randrange(p))), Poly.one(p)
            for k in range(1, rng.choice((1, 2, 3)) + 1):
                # a nonzero linear term keeps f from being constant
                pw = pw * (z - a)
                f = f + pw * K(rng.randrange(1 if k == 1 else 0, p * p), rng.randrange(p))
            models.append(LocalModel(f=RationalMap(f), domain=Ball(a, d + rng.choice((1, 2)))))
        top = max([Fraction(1)] + [m.image.radius.exp for m in models])
        eps = Radius(top + rng.choice((0, Fraction(1, 2), 1)))
        try:
            plan_gluing(models, eps)
        except HypothesisViolation:
            continue
        return models, eps


def _glue(models, eps):
    plan = plan_gluing(models, eps)
    return plan, build_F(models, plan)


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (PoleInBallError, ValueError) as exc:
        return ("raises", type(exc), str(exc))


def _disks(models, plan):
    """Open disks about each center: the ball itself, one step inside, and
    the disk out to delta_i, which holds the poles of the bump factor."""
    for m, delta in zip(models, plan.deltas):
        a, e = m.domain.center, m.domain.radius.exp
        for exp in (e, e + 1, delta.exp):
            yield Ball(a, Radius(exp), closed=False)


def assert_same_certificate(F, models, plan, samples=8):
    cert = certify_theorem1(F, models, plan, samples=samples)
    ref = oracle.certify_theorem1(F, models, plan, samples=samples)
    assert certificate_to_json(cert) == certificate_to_json(ref)
    return cert


def assert_same_classifications(F, disks):
    for U in disks:
        assert _outcome(classify_disk, F, U) == _outcome(oracle.classify_disk, F, U), U


@pytest.fixture(scope="module")
def suite():
    rng = random.Random(SUITE_SEED)
    return [make_gluing_instance(rng) for _ in range(SUITE_SIZE)]


@pytest.fixture(scope="module")
def rational_suite():
    rng = random.Random(SUITE_SEED + 1)
    return [make_rational_instance(rng) for _ in range(3)]


@pytest.mark.parametrize("alpha, beta", [("3", "1/3"), ("2", "1/3"), ("1/3", "2")])
def test_ex1_and_crossed_control(alpha, beta):
    models = ex1_models(alpha, beta)
    census = ex1_census(models)
    plan, F = _glue(models, ex1_epsilon(models, census))
    assert assert_same_certificate(F, models, plan).passes
    assert not assert_same_certificate(crossed_sum(models, plan), models, plan).passes
    assert_same_classifications(F, [w.disk for w in census.witnesses])
    assert_same_classifications(F, _disks(models, plan))


def test_ex2_and_crossed_control():
    models = ex2_models()
    plan, F = _glue(models, EX2_EPSILON)
    assert assert_same_certificate(F, models, plan, samples=20).passes
    assert not assert_same_certificate(crossed_sum(models, plan), models, plan).passes
    assert_same_classifications(F, [w.disk for w in ex2_census(models).witnesses])
    assert_same_classifications(F, _disks(models, plan))


@pytest.mark.parametrize("index", range(SUITE_SIZE))
def test_seeded_suite(suite, index):
    models, eps = suite[index]
    plan, F = _glue(models, eps)
    assert_same_certificate(F, models, plan)
    assert_same_classifications(F, _disks(models, plan))


@pytest.mark.parametrize("index", range(3))
def test_local_maps_with_denominators(rational_suite, index):
    models, eps = rational_suite[index]
    assert all(m.f.den.degree == 2 for m in models)
    plan, F = _glue(models, eps)
    assert assert_same_certificate(F, models, plan).passes
    assert_same_classifications(F, _disks(models, plan))


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_crossed_controls_fail_their_samples(name):
    # the mis-paired sums break the spot checks themselves, so the integer
    # witness valuations decide samples_ok = False on some ball
    if name == "ex1":
        models = ex1_models("3", "1/3")
        eps = ex1_epsilon(models, ex1_census(models))
    else:
        models, eps = ex2_models(), EX2_EPSILON
    plan = plan_gluing(models, eps)
    cert = assert_same_certificate(crossed_sum(models, plan), models, plan, samples=20)
    assert not all(ch.samples_ok for ch in cert.checks)


def test_single_ball_witness_at_the_center_is_exact():
    # f(z) = z on B(0; 3^-2) alone: F = z h(z) and F(0) = f(0) = 0, so the
    # witness at the center has an infinite diff_exp
    K = FieldConfig(3)
    models = [LocalModel(f=RationalMap(Poly.x(3)), domain=Ball(K(0), Radius(2)))]
    plan = plan_gluing(models, Radius(3), delta_override=[Radius(1)])
    F = build_F(models, plan)
    cert = assert_same_certificate(F, models, plan, samples=12)
    assert cert.passes
    ball = certificate_to_json(cert)["balls"][0]
    assert ball["witnesses"][0] == {"point": {"a": "0", "b": "0"}, "diff_exp": {"exp": "inf"}}
    assert all(w["diff_exp"]["exp"] != "inf" for w in ball["witnesses"][1:])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sqrt_centers_and_half_integral_radii(p):
    rng = random.Random(SUITE_SEED + p)
    instances = [make_sqrt_instance(rng, p) for _ in range(4)]
    balls = [m.domain for models, _ in instances for m in models]
    assert any(b.radius.exp.denominator == 2 for b in balls)
    assert any(b.center.b and b.center.b.denominator > 1 for b in balls)
    for models, eps in instances:
        plan, F = _glue(models, eps)
        assert_same_certificate(F, models, plan, samples=20)
        assert_same_certificate(crossed_sum(models, plan), models, plan, samples=20)


VERIFY_SAMPLES = 100  # verify's default budget per ball


def _verify_budget_cases():
    ex1 = ex1_models("3", "1/3")
    yield pytest.param("ex1", ex1, ex1_epsilon(ex1, ex1_census(ex1)), id="ex1")
    yield pytest.param("ex2", ex2_models(), EX2_EPSILON, id="ex2")
    for p in (2, 3, 5):
        models, eps = make_sqrt_instance(random.Random(SUITE_SEED + p), p)
        yield pytest.param(f"sqrt-p{p}", models, eps, id=f"sqrt-p{p}")


@pytest.mark.parametrize("name, models, eps", list(_verify_budget_cases()))
def test_verify_budget_against_oracle(name, models, eps):
    # verify spot-checks 100 points per ball; shells far inside the ball
    # exercise witness valuations and image tests the 8- and 20-point
    # budgets never reach.  The glued map and its crossed control each
    # give the oracle's certificate, on the presets and on centers with a
    # sqrt p part
    plan, F = _glue(models, eps)
    assert assert_same_certificate(F, models, plan, samples=VERIFY_SAMPLES).passes
    crossed = assert_same_certificate(crossed_sum(models, plan), models, plan,
                                      samples=VERIFY_SAMPLES)
    assert all(len(ch.witnesses) == VERIFY_SAMPLES for ch in crossed.checks if ch.pole_free_ok)
    if name.startswith("sqrt"):
        assert any(m.domain.center.b for m in models)


def assert_same_sums(models, plan):
    assert build_F(models, plan) == oracle.glued_sum(models, plan)
    assert crossed_sum(models, plan) == oracle.glued_sum(models, plan, 1)


def test_shared_pole_problem_is_the_second_rational_draw():
    rng = random.Random(SUITE_SEED)
    make_rational_instance(rng)
    models, eps = make_rational_instance(rng)
    ref, ref_eps = shared_pole_problem()
    assert [(m.f, m.domain) for m in models] == [(m.f, m.domain) for m in ref]
    assert eps == ref_eps


@pytest.mark.parametrize("name", ["ex1", "ex2", "shared-pole"])
def test_one_fraction_equals_sequential_sum(name):
    # one reduction of the whole fraction gives the map that reducing
    # every product and partial sum gives
    if name == "ex1":
        models = ex1_models("3", "1/3")
        eps = ex1_epsilon(models, ex1_census(models))
    elif name == "ex2":
        models, eps = ex2_models(), EX2_EPSILON
    else:
        models, eps = shared_pole_problem()
    assert_same_sums(models, plan_gluing(models, eps))


def test_one_fraction_equals_sequential_sum_on_suites(suite, rational_suite):
    for models, eps in suite + rational_suite:
        assert_same_sums(models, plan_gluing(models, eps))


def make_boundedness_instance(rng):
    """A seeded model set that may break the boundedness hypothesis: a map
    of make_gluing_instance may be scaled by p^-k for k in 1..2, or get a
    pole at a point of a sibling ball."""
    models, eps = make_gluing_instance(rng)
    p = models[0].domain.p
    z = Poly.x(p)
    out = []
    for i, m in enumerate(models):
        num, den = m.f.num * Fraction(1, p ** rng.choice((0, 0, 0, 0, 0, 1, 2))), m.f.den
        if rng.random() < 0.1:
            sibling = models[rng.choice([j for j in range(len(models)) if j != i])].domain
            den = den * (z - sibling.center - uniformizer_power(p, sibling.radius))
        try:
            out.append(LocalModel(f=RationalMap(num, den), domain=m.domain))
        except HypothesisViolation:
            out.append(m)  # the new map is constant on its ball
    return out, eps


def _verdict(fn, *args):
    try:
        fn(*args)
    except HypothesisViolation as exc:
        return str(exc)
    return None


def test_boundedness_check_agrees_with_image_oracle():
    # plan_gluing reads boundedness off the sup norm of each map on each
    # ball; the oracle computes every image ball in full
    rng = random.Random(SUITE_SEED + 2)
    verdicts = Counter()
    for _ in range(60):
        models, eps = make_boundedness_instance(rng)
        got = _verdict(plan_gluing, models, eps)
        assert got == _verdict(oracle.check_global_boundedness, models)
        verdicts["passes" if got is None else "pole" if "pole" in got else "unbounded"] += 1
    assert min(verdicts[k] for k in ("passes", "pole", "unbounded")) >= 5, verdicts


def test_classify_disk_raises_on_a_pole():
    # D(0; 3^-1) reaches the zeros of the bump denominator at |z| = 3^(-3/2)
    models = ex2_models()
    plan, F = _glue(models, EX2_EPSILON)
    U = Ball(models[0].domain.center, plan.deltas[0], closed=False)
    with pytest.raises(PoleInBallError):
        classify_disk(F, U)
    with pytest.raises(PoleInBallError):
        oracle.classify_disk(F, U)


def test_certifier_shifts_F_once_per_ball(spy_shifts):
    models = ex2_models()
    plan, F = _glue(models, EX2_EPSILON)
    shifted = spy_shifts()
    assert certify_theorem1(F, models, plan).passes
    # each of F.den and F.num is shifted exactly once about every center,
    # and nothing is shifted more than three times per ball in all
    centers = sorted(str(m.domain.center) for m in models)
    for poly in (F.den, F.num):
        assert sorted(str(a) for P, a in shifted if P is poly) == centers
    assert max(Counter(str(a) for _, a in shifted).values()) <= 3
