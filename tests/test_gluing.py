"""Bump factors, plan selection, assembly, and exact certification."""

from dataclasses import replace
from fractions import Fraction

import pytest

from padicglue import (
    Ball,
    FieldConfig,
    HypothesisViolation,
    LemmaInapplicable,
    LimitExceeded,
    LocalModel,
    Poly,
    Radius,
    RationalMap,
    build_F,
    build_h,
    certify_theorem1,
    check_c3_hypotheses,
    check_monotonicity,
    check_subdisk_transfer,
    count_roots_in_ball,
    plan_gluing,
    uniformizer_power,
    validate_plan,
)
from padicglue import gluing
from padicglue.gluing import M_LIMIT
from padicglue.presets import EX2_EPSILON, crossed_sum, ex1_models, ex2_models

from conftest import shell_points

K3 = FieldConfig(3)
Z = Poly.x(3)


def B(center, exp, closed=True):
    return Ball(K3(center), Radius(Fraction(exp)), closed=closed)


@pytest.fixture(scope="module")
def ex2():
    models = ex2_models()
    plan = plan_gluing(models, EX2_EPSILON)
    return models, plan, build_F(models, plan)


class TestLocalModel:
    def test_computed_image(self):
        m = LocalModel(RationalMap(3 * Z), B(0, 2))
        assert m.image.same_set(B(0, 3))

    def test_open_domain_rejected(self):
        with pytest.raises(HypothesisViolation, match="closed"):
            LocalModel(RationalMap(Z), B(0, 2, closed=False))

    def test_pole_on_domain_rejected(self):
        with pytest.raises(HypothesisViolation, match="pole"):
            LocalModel(RationalMap(Poly.one(3), Z), B(0, 2))

    def test_constant_rejected(self):
        with pytest.raises(HypothesisViolation, match="constant"):
            LocalModel(RationalMap(Poly.one(3)), B(0, 2))

    def test_wrong_declared_image_rejected(self):
        with pytest.raises(HypothesisViolation, match="differs from computed"):
            LocalModel(RationalMap(3 * Z), B(0, 2), declared_image=B(0, 2))


class TestBuildH:
    def test_pointwise_oracle(self):
        c = uniformizer_power(3, Fraction(3, 2))
        h = build_h(K3(0), c, 7)
        assert h.eval(K3(0)) == K3(1)
        assert (h.eval(K3(9)) - 1).valuation() == Fraction(7, 2)
        assert h.eval(K3(1)).valuation() == Fraction(21, 2)

    @pytest.mark.parametrize("M", [1, 2, 5, 8])
    def test_two_sided_decay(self, M):
        # inside |c|: h is a unit and h-1 has valuation M*(v(z) - s);
        # outside: v(h) = M*(s - v(z)).  s = 3/2 here.
        c = uniformizer_power(3, Fraction(3, 2))
        h = build_h(K3(0), c, M)
        for z in shell_points(K3(0), [2, Fraction(5, 2), 3]):
            e = z.valuation()
            assert h.eval(z).valuation() == 0
            assert (h.eval(z) - 1).valuation() == M * (e - Fraction(3, 2))
        for z in shell_points(K3(0), [0, Fraction(1, 2), 1]):
            e = z.valuation()
            assert h.eval(z).valuation() + M * e == M * Fraction(3, 2)

    def test_argument_validation(self):
        c = uniformizer_power(3, 1)
        with pytest.raises(TypeError):
            build_h(K3(0), 3, 2)
        with pytest.raises(ValueError, match="nonzero"):
            build_h(K3(0), K3(0), 2)
        for bad in (0, -1, True, Fraction(2)):
            with pytest.raises(ValueError):
                build_h(K3(0), c, bad)


class TestPlanGluing:
    def test_reference_plan_constants(self, ex2):
        models, plan, _ = ex2
        assert [d.exp for d in plan.deltas] == [1, 1, 1]
        assert [s.exp for s in plan.s] == [Fraction(3, 2)] * 3
        assert all(c.valuation() == Fraction(3, 2) for c in plan.c)
        assert plan.M == (7, 7, 7)
        assert plan.tau == Radius(3)
        assert plan.epsilon == EX2_EPSILON

    def test_overlapping_balls_rejected(self):
        models = [
            LocalModel(RationalMap(3 * Z), B(0, 2)),
            LocalModel(RationalMap(Z), B(9, 3)),
        ]
        with pytest.raises(HypothesisViolation, match="balls 0 and 1 intersect"):
            plan_gluing(models, Radius(3))

    def test_radius_must_beat_delta(self):
        # disjoint closed balls always have r < delta, so only an override
        # can squeeze delta down onto the radius
        models = ex2_models()
        with pytest.raises(HypothesisViolation, match="strictly smaller than delta"):
            plan_gluing(models, EX2_EPSILON, delta_override=[Radius(1), Radius(1), Radius(2)])

    def test_infinite_epsilon_rejected(self):
        # a zero tolerance admits no finite bump exponent M
        with pytest.raises(HypothesisViolation, match="epsilon must be a positive radius"):
            plan_gluing(ex2_models(), Radius.infinite())

    def test_single_ball_needs_delta_override(self):
        models = [LocalModel(RationalMap(3 * Z), B(0, 2))]
        with pytest.raises(HypothesisViolation, match="explicit delta_override"):
            plan_gluing(models, Radius(3))
        plan = plan_gluing(models, Radius(3), delta_override=[Radius(1)])
        assert plan.deltas == (Radius(1),)

    def test_delta_override_cannot_exceed_true_separation(self):
        models = ex2_models()
        with pytest.raises(HypothesisViolation, match="exceeds the distance"):
            plan_gluing(models, EX2_EPSILON, delta_override=[Radius(0)] * 3)

    def test_delta_override_shrinks(self):
        models = [
            LocalModel(RationalMap(3 * Z), B(0, 2)),
            LocalModel(RationalMap(Z), B(1, 2)),
        ]
        plan = plan_gluing(models, Radius(3), delta_override=[Radius(1), Radius(1)])
        assert plan.deltas == (Radius(1), Radius(1))
        assert [s.exp for s in plan.s] == [Fraction(3, 2)] * 2

    def test_radius_above_one_prints_its_exponent(self):
        # r = 3^1 on a single ball squeezed to delta = 3^0
        models = [LocalModel(RationalMap(27 * Z), B(0, -1))]
        with pytest.raises(HypothesisViolation, match=r"\(r = p\^\(1\), delta = p\^\(-0\)\)$"):
            plan_gluing(models, Radius(3), delta_override=[Radius(0)])

    @pytest.mark.parametrize("override", [[9], [9, None, 8, 100]])
    def test_M_override_lists_one_entry_per_ball(self, override):
        with pytest.raises(HypothesisViolation, match="M override must list 3 entries"):
            plan_gluing(ex2_models(), EX2_EPSILON, M_override=override)

    def test_geometric_mean_must_stay_on_grid(self):
        models = ex2_models()
        override = [Radius(1), Radius(1), Radius(Fraction(3, 2))]
        with pytest.raises(HypothesisViolation, match="no radius"):
            plan_gluing(models, EX2_EPSILON, delta_override=override)

    def test_M_override(self):
        models = ex2_models()
        plan = plan_gluing(models, EX2_EPSILON, M_override=[9, None, 12])
        assert plan.M == (9, 7, 12)
        with pytest.raises(HypothesisViolation, match="minimal value 7"):
            plan_gluing(models, EX2_EPSILON, M_override=[6, None, None])

    @pytest.mark.parametrize("eps", [-3, -1, 0, 1, 2, 3, 4, 5, 6, 10, 100])
    def test_M_is_minimal(self, eps):
        # ex2's balls B(a; 3^-2) with delta 3^-1, and B(a; 3^-5) with
        # delta 3^-2, give gaps 1 and 3; M must be the least integer >= 1
        # with M*gap > 2*tau
        for models in (
            ex2_models(),
            [LocalModel(RationalMap(Z), B(0, 5)), LocalModel(RationalMap(Z), B(9, 5))],
        ):
            plan = plan_gluing(models, Radius(eps))
            for m, d, M in zip(models, plan.deltas, plan.M):
                gap, tau = (m.domain.radius - d).exp, plan.tau.exp
                least = 1
                while least * gap <= 2 * tau:
                    least += 1
                assert M == least

    def test_M_limit(self):
        models = ex2_models()
        assert plan_gluing(models, EX2_EPSILON, M_override=[M_LIMIT, None, None]).M[0] == M_LIMIT
        with pytest.raises(LimitExceeded, match=f"ball 0: M = {M_LIMIT + 1} is above the limit"):
            plan_gluing(models, EX2_EPSILON, M_override=[M_LIMIT + 1, None, None])
        # the minimal M of ball 0 at epsilon 3^-(10^5) is 2*10^5 + 1
        with pytest.raises(LimitExceeded, match="ball 0: M = 200001"):
            plan_gluing(models, Radius(10**5))

    def test_c_override(self):
        models = ex2_models()
        good = [-uniformizer_power(3, Fraction(3, 2))] * 3
        plan = plan_gluing(models, EX2_EPSILON, c_override=good)
        assert plan.c == tuple(good)
        with pytest.raises(HypothesisViolation, match=r"\|c\| = s"):
            plan_gluing(models, EX2_EPSILON, c_override=[K3(3)] * 3)

    def test_pole_on_sibling_ball_rejected(self):
        models = [
            LocalModel(RationalMap(Poly.constant(3, 3), Z - 3), B(0, 2)),
            LocalModel(RationalMap(Z), B(3, 2)),
        ]
        with pytest.raises(HypothesisViolation, match="pole on ball 1"):
            plan_gluing(models, Radius(3))

    def test_image_escaping_unit_ball_rejected(self):
        models = [
            LocalModel(RationalMap(Z * Fraction(1, 27)), B(0, 2)),
            LocalModel(RationalMap(Z), B(3, 2)),
        ]
        with pytest.raises(HypothesisViolation, match=r"not inside B\(0; 1\)"):
            plan_gluing(models, Radius(3))


class TestValidatePlan:
    def test_raised_M_accepted(self, ex2):
        models, plan, _ = ex2
        validate_plan(models, replace(plan, M=(8, 7, 10)))

    def test_delta_beyond_true_separation_rejected(self, ex2):
        # ex2's centers are 3^-1 apart; a stored delta of 3^0 is not
        models, plan, _ = ex2
        with pytest.raises(HypothesisViolation, match="delta for ball 0 exceeds the distance"):
            validate_plan(models, replace(plan, deltas=(Radius(0),) + plan.deltas[1:]))

    def test_models_breaking_a_hypothesis_rejected(self, ex2):
        # the stored plan fits the constants, but the models do not fit
        # the construction: the same model check as plan_gluing refuses them
        models, plan, _ = ex2
        overlap = [models[0], LocalModel(RationalMap(Z), B(0, 3)), models[2]]
        with pytest.raises(HypothesisViolation, match="balls 0 and 1 intersect"):
            validate_plan(overlap, plan)
        escaping = [LocalModel(RationalMap(Z * Fraction(1, 27)), models[0].domain)] + models[1:]
        with pytest.raises(HypothesisViolation, match=r"map 0 sends ball 0 onto B\(0; 3\^\(1\)\)"):
            validate_plan(escaping, plan)

    def test_M_above_limit_rejected(self, ex2):
        models, plan, _ = ex2
        with pytest.raises(LimitExceeded, match=f"ball 1: M = {M_LIMIT + 1} is above the limit"):
            validate_plan(models, replace(plan, M=(7, M_LIMIT + 1, 7)))

    def test_tampered_fields_rejected(self, ex2):
        models, plan, _ = ex2
        with pytest.raises(HypothesisViolation, match="strict tau bound"):
            validate_plan(models, replace(plan, M=(1, 7, 7)))
        with pytest.raises(HypothesisViolation, match="geometric mean"):
            validate_plan(models, replace(plan, s=(Radius(2),) + plan.s[1:]))
        with pytest.raises(HypothesisViolation, match=r"\|c\| differs"):
            validate_plan(models, replace(plan, c=(K3(3),) + plan.c[1:]))
        with pytest.raises(HypothesisViolation, match="tau"):
            validate_plan(models, replace(plan, tau=Radius(5)))
        with pytest.raises(HypothesisViolation, match="plan size"):
            validate_plan(models[:2], plan)


class TestBuildF:
    def test_reduces_one_fraction(self, ex2, monkeypatch):
        # n bump factors and the sum itself: no map per product or partial sum
        models, plan, F = ex2
        built, init = [], RationalMap.__init__
        monkeypatch.setattr(
            RationalMap, "__init__", lambda *a, **k: built.append(a) or init(*a, **k)
        )
        assert build_F(models, plan) == F
        assert len(built) == len(models) + 1 == 4


class TestCertification:
    def test_expands_only_F_about_each_ball(self, ex2, monkeypatch):
        # each f_i comes with the expansion its LocalModel keeps
        models, plan, F = ex2
        expanded = []
        init = gluing.LocalExpansion.__init__
        monkeypatch.setattr(
            gluing.LocalExpansion, "__init__",
            lambda self, f, ball: expanded.append(f) or init(self, f, ball),
        )
        assert certify_theorem1(F, models, plan).passes
        assert expanded == [F] * len(models)

    def test_reference_glue_certifies(self, ex2):
        models, plan, F = ex2
        assert (F.num.degree, F.den.degree) == (15, 21)
        cert = certify_theorem1(F, models, plan)
        assert cert.passes
        for ch, m in zip(cert.checks, models):
            assert ch.image.same_set(m.image)
            assert ch.eps_bound_exp > plan.epsilon.exp
        # the cross-talk bound is attained exactly on the first ball
        assert cert.checks[0].eps_bound_exp == Fraction(7, 2)

    def test_mispaired_sum_fails(self, ex2):
        models, plan, _ = ex2
        cert = certify_theorem1(crossed_sum(models, plan), models, plan)
        assert not cert.passes

    def test_perturbation_below_epsilon_fails(self, ex2):
        models, plan, F = ex2
        cert = certify_theorem1(RationalMap(F.num + F.den * 3, F.den), models, plan)
        assert not cert.passes

    def test_epsilon_beyond_plan_fails(self, ex2):
        models, plan, F = ex2
        cert = certify_theorem1(F, models, replace(plan, epsilon=Radius(10)))
        assert all(ch.pole_free_ok and ch.image_ok for ch in cert.checks)
        assert not cert.passes

    def test_denominator_roots_clear_every_ball(self, ex2):
        models, _, F = ex2
        for m in models:
            assert count_roots_in_ball(F.den, m.domain) == 0


class TestMonotonicity:
    def test_finer_build_passes_coarser_contract(self):
        assert check_monotonicity(ex2_models(), Radius(3), Radius(4))

    def test_requires_strictly_finer(self):
        with pytest.raises(ValueError):
            check_monotonicity(ex2_models(), Radius(3), Radius(3))


class TestSubdiskTransfer:
    def test_transfer_holds_above_epsilon(self, ex2):
        models, plan, F = ex2
        assert check_subdisk_transfer(F, models[2], models[2].domain, plan.epsilon)

    def test_inapplicable_when_image_too_small(self, ex2):
        models, plan, F = ex2
        with pytest.raises(LemmaInapplicable, match="at most eps"):
            check_subdisk_transfer(F, models[0], B(0, 3), plan.epsilon)

    def test_subball_must_be_contained(self, ex2):
        models, plan, F = ex2
        with pytest.raises(ValueError, match="not contained"):
            check_subdisk_transfer(F, models[0], B(0, 1), plan.epsilon)


class TestC3Hypotheses:
    @pytest.mark.parametrize("alpha", [Fraction(3), Fraction(1, 3), Fraction(2)])
    def test_second_ball_qualifies_for_every_alpha(self, alpha):
        # the multiplier at the second center is 3*beta + 1 = 2, a unit
        # with |2 - 1| = 1, and the cross terms stay small enough
        models = ex1_models(alpha, Fraction(1, 3))
        assert check_c3_hypotheses(models, 1)

    def test_first_ball_qualifies_only_for_unit_multiplier(self):
        beta = Fraction(1, 3)
        assert check_c3_hypotheses(ex1_models(Fraction(2), beta), 0)
        assert not check_c3_hypotheses(ex1_models(Fraction(3), beta), 0)
        assert not check_c3_hypotheses(ex1_models(Fraction(1, 3), beta), 0)

    def test_tangent_to_identity_fails(self):
        f = RationalMap(Z, 3 * Z + 1)
        models = [LocalModel(f, B(0, 1))]
        assert not check_c3_hypotheses(models, 0)

    def test_center_must_be_fixed(self):
        models = [LocalModel(RationalMap(Z + 3), B(0, 2))]
        with pytest.raises(ValueError, match="not a fixed point"):
            check_c3_hypotheses(models, 0)
