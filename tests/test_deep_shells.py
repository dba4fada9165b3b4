"""Deep-shell spot checks against the oracle, which evaluates every sample.

On the shells that `gluing._first_deep_sample` finds from the center's
exact values, a sample takes the center's witness and leaves the verdict
as the center left it, with no evaluation.  At verify's 100 samples per
ball and at the cap of 1,000, every witness and verdict must equal those
of `certifier_oracle.sample_checks`, which evaluates F and f_i at every
sample in K.  The oracle runs once per map and ball at the largest budget:
the points of a smaller one are a prefix of its points.  The oracle takes
seconds per ball at 1,000 samples, most over p = 2, whose 1,000 shells
reach a + 2^(r + 999), so the seeded suite and the crossed controls of the
generated problems run at 100 samples; the p = 2 cases at the cap are the
negative center and the direct spot checks.
"""

import random
from fractions import Fraction

import pytest

import certifier_oracle as oracle
from conftest import make_gluing_instance
from padicglue import (
    Ball,
    FieldConfig,
    LocalModel,
    Poly,
    Radius,
    RationalMap,
    build_F,
    certify_theorem1,
    plan_gluing,
)
from padicglue.gluing import _spot_checks
from padicglue.presets import EX2_EPSILON, crossed_sum, ex1_census, ex1_epsilon, ex1_models, ex2_models
from test_certifier_differential import SUITE_SEED, make_sqrt_instance

SAMPLES = (100, 1000)  # verify's default per ball, and the cap
CAP = SAMPLES[-1]
# a bound and tolerance every witness clears, so that a direct spot check's
# verdict is its image test
LOW, LOWER = Radius(-100), Radius(-101)


def same(witnesses, checks) -> bool:
    return [(s.point, s.diff_exp) for s in witnesses] == [(s.point, s.diff_exp) for s, _ in checks]


def assert_same_samples(F, models, plan, budgets=SAMPLES):
    """Certify at each budget and compare each ball's witnesses and verdict
    with the oracle's; return the certificate at the last budget."""
    certs = [certify_theorem1(F, models, plan, samples=s) for s in budgets]
    for i, m in enumerate(models):
        check = certs[-1].checks[i]
        if not check.pole_free_ok:
            continue
        ref = oracle.sample_checks(F, m.f, m.domain, budgets[-1], check.image,
                                   check.eps_bound_exp, plan.epsilon)
        for s, cert in zip(budgets, certs):
            got = cert.checks[i]
            assert same(got.witnesses, ref[:s]), (i, s)
            assert got.samples_ok == all(ok for _, ok in ref[:s]), (i, s)
    return certs[-1]


def assert_same_spot_checks(F, f, ball, image, bound=LOW, epsilon=LOWER) -> list:
    """`_spot_checks` at each of SAMPLES against the oracle; return the
    oracle's (Sample, ok) per point at the cap."""
    ref = oracle.sample_checks(F, f, ball, CAP, image, bound, epsilon)
    for s in SAMPLES:
        witnesses, ok = _spot_checks(F, f, ball, s, image, bound, epsilon)
        assert same(witnesses, ref[:s]), s
        assert ok == all(ok for _, ok in ref[:s]), s
    return ref


def glue(models, eps):
    plan = plan_gluing(models, eps)
    return plan, build_F(models, plan)


def ex1():
    models = ex1_models("3", "1/3")
    return models, ex1_epsilon(models, ex1_census(models))


@pytest.mark.parametrize("problem", (ex1, lambda: (ex2_models(), EX2_EPSILON)), ids=("ex1", "ex2"))
def test_presets_and_crossed_controls(problem):
    models, eps = problem()
    plan, F = glue(models, eps)
    assert assert_same_samples(F, models, plan).passes
    assert not assert_same_samples(crossed_sum(models, plan), models, plan).passes


def test_center_fixed_by_both_maps_keeps_every_sample_exact():
    # F and f_0 of ex1 share the fixed point 0, the center of ball 0, so
    # X(a) = 0 there and no shell is deep: every witness is evaluated
    models, eps = ex1()
    plan, F = glue(models, eps)
    check = assert_same_samples(F, models, plan, SAMPLES[:1]).checks[0]
    assert models[0].domain.center == 0 and check.witnesses[0].diff_exp.is_infinite
    assert len({s.diff_exp for s in check.witnesses}) > 2


@pytest.mark.parametrize("index", range(12))
def test_seeded_suite(index):
    rng = random.Random(SUITE_SEED)
    for _ in range(index + 1):
        models, eps = make_gluing_instance(rng)
    plan, F = glue(models, eps)
    assert_same_samples(F, models, plan, SAMPLES[:1])
    assert_same_samples(crossed_sum(models, plan), models, plan, SAMPLES[:1])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sqrt_centers_and_odd_shells(p):
    # half-integral radii start the shells on the sqrt p coordinate
    models, eps = make_sqrt_instance(random.Random(SUITE_SEED + p), p)
    plan, F = glue(models, eps)
    assert_same_samples(F, models, plan, SAMPLES if p > 2 else SAMPLES[:1])
    assert_same_samples(crossed_sum(models, plan), models, plan, SAMPLES[:1])


@pytest.mark.parametrize("p", [2, 3])
def test_rational_center_of_negative_valuation(p):
    # B(1/p; p^-2) under z -> p z beside B(0; p^-2) under z -> p z + p^2 z^2,
    # the generated p = 2 problem of the console commands and its p = 3 twin
    K, z = FieldConfig(p), Poly.x(p)
    models = [
        LocalModel(f=RationalMap(z * p), domain=Ball(K(Fraction(1, p)), Radius(2))),
        LocalModel(f=RationalMap(z * p + z * z * p * p), domain=Ball(K(0), Radius(2))),
    ]
    plan, F = glue(models, Radius(4))
    assert models[0].domain.center.valuation() < 0
    assert assert_same_samples(F, models, plan).passes
    assert not assert_same_samples(crossed_sum(models, plan), models, plan).passes


def identity(p):
    return RationalMap(Poly.x(p))


def test_witness_read_off_the_center_only_past_a_strict_bound():
    # F(z) = z and f = 8 over p = 2 on B(0; 1): X = z - 8, so v(X(a)) = 3,
    # and the shell v(t) = 3 ties the term t with the constant: z = 8 there
    # has an infinite witness, and only shells from v(t) = 4 on are deep
    K = FieldConfig(2)
    ref = assert_same_spot_checks(identity(2), RationalMap(Poly.constant(2, 8)),
                                  Ball(K(0), Radius(0)), Ball(K(0), Radius(0)))
    assert ref[0][0].diff_exp == 3 and ref[4][0].diff_exp.is_infinite
    assert all(s.diff_exp == 3 for s, _ in ref[5:])


@pytest.mark.parametrize("closed", (True, False), ids=("closed-image", "open-image"))
def test_image_test_failing_only_on_a_shallow_shell(closed):
    # F(z) = z on B(0; 3^-1) against an image about 0 that the first shell,
    # v(t) = 1, leaves: radius 3^-2 closed or 3^-1 open.  Every deeper
    # shell lies inside, so the failure shows only on an evaluated shell
    K = FieldConfig(3)
    image = Ball(K(0), Radius(2 if closed else 1), closed=closed)
    f = RationalMap(Poly.x(3) + 3**5)
    ref = assert_same_spot_checks(identity(3), f, Ball(K(0), Radius(1)), image)
    assert [ok for _, ok in ref[:5]] == [True, False, False, True, True]
    assert all(ok for _, ok in ref[5:])


@pytest.mark.parametrize("closed", (True, False), ids=("closed", "open"))
@pytest.mark.parametrize("center, radius", [(0, Fraction(1, 2)), (Fraction(1, 3), 0),
                                            (Fraction(2, 9), Fraction(-3, 2))])
def test_odd_shells_open_balls_and_negative_centers(center, radius, closed):
    # a map with a pole outside the ball, against f that agrees with it to
    # order 2 at the center: the witness is read off the center from a
    # shell on, on either coordinate, inside a closed or an open ball
    K, z = FieldConfig(3), Poly.x(3)
    a = K(center)
    ball = Ball(a, Radius(radius), closed=closed)
    F = RationalMap(z * z + z + 1, z * 3 + 3**6 + 1)
    Fa = F.eval(a)
    f = RationalMap((z - a) * (z - a) * 9 + Fa)
    image = Ball(Fa, Radius(radius), closed=closed)
    assert_same_spot_checks(F, f, ball, image)


def test_witness_row_counts_the_local_denominator_at_the_center():
    # F(z) = z + 1 and f = (z^2 + 3z + 30)/(z + 3) over p = 3 on B(0; 3^-2),
    # where z + 3 has no zero but v(q(0)) = 1: X = N q - n Q = z - 27, so
    # the witness v(X(z)) - v(q(z)) is 2 at the center, and the shell
    # v(t) = 3 ties the term t with X(0): z = 27 has an infinite witness,
    # and only shells from v(t) = 4 on are deep.  Without v(q(a)) in the
    # threshold the tied shell would read as deep
    K, z = FieldConfig(3), Poly.x(3)
    F = RationalMap(z + 1)
    f = RationalMap(z * z + z * 3 + 30, z + 3)
    ball = Ball(K(0), Radius(2))
    ref = assert_same_spot_checks(F, f, ball, Ball(K(1), Radius(2)))
    assert [s.diff_exp for s, _ in ref[:3]] == [2, 1, 1] and ref[3][0].diff_exp.is_infinite
    assert all(s.diff_exp == 2 for s, _ in ref[4:])


@pytest.mark.parametrize("closed", (True, False), ids=("closed-image", "open-image"))
def test_image_row_counts_the_glued_denominator_at_the_center(closed):
    # F(z) = z/(z + 3) over p = 3 on B(0; 3^-2), where z + 3 has no zero but
    # v(Q(0)) = 1, against f = F - 3^4: every witness is 4, read off the
    # center from the first shell on.  F(z) - F(0) = z/(z + 3) has
    # valuation v(z) - 1, so the first shell, v(t) = 2, leaves the image
    # about 0 of radius 3^-2 closed or 3^-1 open, and every deeper shell
    # lies inside.  Without v(Q(a)) in the image row's threshold the first
    # shell would read as deep, and inside
    K, z = FieldConfig(3), Poly.x(3)
    F = RationalMap(z, z + 3)
    f = RationalMap(z - (z + 3) * 3**4, z + 3)
    image = Ball(K(0), Radius(2 if closed else 1), closed=closed)
    ref = assert_same_spot_checks(F, f, Ball(K(0), Radius(2)), image)
    assert all(s.diff_exp == 4 for s, _ in ref)
    assert [ok for _, ok in ref[:5]] == [True, False, False, True, True]
    assert all(ok for _, ok in ref[5:])
