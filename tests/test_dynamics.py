"""Fixed points of glued maps: classification, refinement, orbits, census."""

import copy
import dataclasses
import pickle
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from padicglue import (
    ATTRACTING,
    INCONCLUSIVE,
    INDIFFERENT,
    REPELLING,
    Ball,
    FieldConfig,
    FixedPointCensus,
    HenselConditionError,
    KElement,
    LocalModel,
    Poly,
    PoleInBallError,
    Radius,
    RationalMap,
    ValExp,
    Witness,
    build_F,
    certify_theorem1,
    classify_disk,
    epsilon_for_census,
    hensel_fixed_point,
    multiplier,
    orbit,
    plan_gluing,
    sample_points,
    suggest_witness,
    verify_census,
)
from padicglue.presets import EX2_EPSILON, ex1_census, ex1_models, ex2_census, ex2_models

K3 = FieldConfig(3)
Z = Poly.x(3)


def D(center, exp, closed=False):
    return Ball(K3(center), Radius(Fraction(exp)), closed=closed)


@pytest.fixture(scope="module")
def glued_ex2():
    models = ex2_models()
    plan = plan_gluing(models, EX2_EPSILON)
    return models, plan, build_F(models, plan)


@pytest.fixture(scope="module")
def glued_ex2_fine():
    # same models at a much finer tolerance; the bump exponents jump to 15
    models = ex2_models()
    plan = plan_gluing(models, Radius(7))
    assert plan.M == (15, 15, 15)
    return models, plan, build_F(models, plan)


class TestMultiplier:
    def test_kinds_by_valuation(self):
        assert multiplier(RationalMap(3 * Z), 0).kind == ATTRACTING
        assert multiplier(RationalMap(Z * Fraction(1, 3)), 0).kind == REPELLING
        m = multiplier(RationalMap(2 * Z), 0)
        assert m.kind == INDIFFERENT and m.value == K3(2)

    def test_shifted_fixed_point(self):
        f = RationalMap(Z * (Z - 3) * Fraction(1, 3) + Z)
        assert multiplier(f, 3).value == K3(2)

    def test_rejects_non_fixed_points(self):
        with pytest.raises(ValueError, match="not a fixed point"):
            multiplier(RationalMap(Z + 1), 0)
        with pytest.raises(ValueError, match="not a fixed point"):
            multiplier(RationalMap(Poly.one(3), Z), 0)


class TestClassifyDisk:
    def test_strict_contraction(self):
        b = classify_disk(RationalMap(3 * Z), D(0, 1))
        assert b.kind == ATTRACTING and b.wdeg == 1
        assert b.image.same_set(D(0, 2))

    def test_onto_with_degree_two(self):
        b = classify_disk(RationalMap(Z**2), D(0, 0))
        assert b.kind == ATTRACTING and b.wdeg == 2

    def test_expansion(self):
        b = classify_disk(RationalMap(Z * Fraction(1, 3)), D(0, 1))
        assert b.kind == REPELLING and b.wdeg == 1
        assert b.image.same_set(D(0, 0))

    def test_indifferent_certified(self):
        b = classify_disk(RationalMap(2 * Z), D(0, 0))
        assert b.kind == INDIFFERENT and b.wdeg == 1
        assert b.existence_certified is True
        assert b.derivative_at_center == K3(2)

    def test_indifferent_not_certified_when_tangent_to_identity(self):
        f = RationalMap(Z, 3 * Z + 1)
        b = classify_disk(f, D(0, 1))
        assert b.kind == INDIFFERENT
        assert b.existence_certified is False

    def test_disjoint_image_inconclusive(self):
        assert classify_disk(RationalMap(Z + 1), D(0, 1)).kind == INCONCLUSIVE

    def test_expanding_degree_two_inconclusive(self):
        b = classify_disk(RationalMap(Z**2 * Fraction(1, 9)), D(0, 1))
        assert b.kind == INCONCLUSIVE and b.wdeg == 2

    def test_closed_ball_rejected(self):
        with pytest.raises(ValueError, match="open disk"):
            classify_disk(RationalMap(3 * Z), D(0, 1, closed=True))

    def test_pole_raises(self):
        with pytest.raises(PoleInBallError):
            classify_disk(RationalMap(Poly.one(3), Z), D(0, 1))


class TestHensel:
    def test_quadratic_map_refines_to_unit_fixed_point(self):
        F = RationalMap(Z**2)
        z = hensel_fixed_point(F, 4, 10)
        assert (F.eval(z) - z).valuation() >= 10
        assert (z - 1).valuation() >= 10

    def test_linear_map_lands_exactly(self):
        z = hensel_fixed_point(RationalMap(3 * Z), 9, 50)
        assert z == K3(0)

    def test_seed_already_good_returned_untouched(self):
        assert hensel_fixed_point(RationalMap(Z**2), 1, 10) == K3(1)

    def test_high_target_stays_exact(self):
        F = RationalMap(Z**2)
        z = hensel_fixed_point(F, 4, 200)
        assert (F.eval(z) - z).valuation() >= 200

    def test_vanishing_derivative(self):
        with pytest.raises(HenselConditionError, match="vanishes"):
            hensel_fixed_point(RationalMap(Z + 3), 0, 10)

    def test_seed_condition_violation(self):
        with pytest.raises(HenselConditionError, match="condition fails at seed"):
            hensel_fixed_point(RationalMap(Z**2), 2, 10)

    def test_seed_on_pole(self):
        with pytest.raises(HenselConditionError, match="pole"):
            hensel_fixed_point(RationalMap(Poly.one(3), Z), 0, 10)

    @pytest.mark.parametrize(
        "target", (True, False, "64", None, float("nan"), float("inf"), Fraction(1, 3), [64]),
        ids=("True", "False", "str", "None", "nan", "float-inf", "third", "list"),
    )
    def test_target_must_be_an_exponent(self, target):
        # validated before any work: a bool is no target 1 and a digit
        # string no target 64
        with pytest.raises(ValueError, match=r"^hensel_fixed_point target_exp must be an exponent"):
            hensel_fixed_point(RationalMap(Z**2), 4, target)

    def test_targets_of_every_exponent_type(self):
        F = RationalMap(Z**2)
        want = hensel_fixed_point(F, 4, 10)
        for target in (Fraction(10), 10.0, ValExp(10)):
            assert hensel_fixed_point(F, 4, target) == want
        z = hensel_fixed_point(F, 4, Fraction(21, 2))
        assert (F.eval(z) - z).valuation() >= Fraction(21, 2)


class TestOrbit:
    def test_linear_contraction_distances(self):
        steps = orbit(RationalMap(3 * Z), 1, 4, ref=0)
        assert [s.point for s in steps] == [K3(1), K3(3), K3(9), K3(27), K3(81)]
        assert [s.dist_exp for s in steps] == [0, 1, 2, 3, 4]
        assert steps[0].step_exp is None and steps[1].step_exp == 0

    def test_expansion_escapes(self):
        steps = orbit(RationalMap(Z * Fraction(1, 3)), 3, 2, ref=0)
        assert [s.dist_exp for s in steps] == [1, 0, -1]

    def test_pole_truncates(self):
        steps = orbit(RationalMap(Poly.one(3), Z), 0, 5)
        assert len(steps) == 2
        assert steps[1].pole and steps[1].point is None

    def test_zero_steps(self):
        steps = orbit(RationalMap(3 * Z), 5, 0, ref=0)
        assert len(steps) == 1 and steps[0].k == 0 and steps[0].dist_exp == 0

    def test_fixed_start_is_constant(self):
        steps = orbit(RationalMap(3 * Z), 0, 3, ref=0)
        assert all(s.point == K3(0) for s in steps)
        assert all(s.dist_exp.is_infinite for s in steps)

    def test_no_reference_no_distances(self):
        steps = orbit(RationalMap(3 * Z), 1, 2)
        assert all(s.dist_exp is None for s in steps)

    def test_steps_copy_pickle_and_asdict(self, glued_ex2):
        # OrbitStep has slots and no __dict__; its entries, a pole entry
        # among them, still round-trip
        _, _, F = glued_ex2
        steps = orbit(F, K3(9), 3, ref=0) + orbit(RationalMap(Poly.one(3), Z), 0, 1)[1:]
        assert not hasattr(steps[0], "__dict__") and steps[-1].pole
        for clone in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
            assert [clone(s) for s in steps] == steps
        for s in steps:
            fields = dataclasses.asdict(s)
            assert set(fields) == {"k", "point", "dist_exp", "step_exp"}
            assert type(s)(**fields) == s


class TestSizeTest:
    """The size test that `dynamics._embedding_prover` rests on: for a
    nonzero x and d, x/d in lowest terms has a numerator or denominator of
    at least |bitlen(x) - bitlen(d)| bits, so a bit gap above h proves a
    reduced height above h.  Checked on plain Fractions."""

    @staticmethod
    def gap_and_height(x: int, den: int) -> tuple:
        q = Fraction(x, den)
        return (
            abs(x.bit_length() - den.bit_length()),
            max(q.numerator.bit_length(), q.denominator.bit_length()),
        )

    @given(
        st.integers(min_value=-(2**150), max_value=2**150).filter(bool),
        st.integers(min_value=1, max_value=2**150),
        st.integers(min_value=1, max_value=2**100),
        st.sampled_from((2, 3, 5, 7, 23)),
        st.integers(min_value=0, max_value=25),
    )
    def test_fires_only_on_tall_points(self, x, den, g, p, k):
        # plant a common factor, p^k included: the gcd it cancels cannot
        # take the reduced height below the gap
        gap, height = self.gap_and_height(x * g * p**k, den * g * p**k)
        assert height >= gap

    def test_zero_coordinate_ignored(self):
        # 0/d reduces to 0/1 whatever the gap, which is why the prover
        # claims a tall point only where N(z) != 0
        gap, height = self.gap_and_height(0, 2**100)
        assert gap == 101 and height == 1


class TestGluedOrbits:
    def test_contraction_toward_refined_fixed_point(self, glued_ex2):
        _, _, F = glued_ex2
        zstar = hensel_fixed_point(F, 0, 30)
        assert zstar.valuation() == Fraction(7, 2)
        exps = [s.dist_exp for s in orbit(F, 9, 6, ref=zstar)]
        assert exps[0] == 2
        assert all(b > a for a, b in zip(exps, exps[1:]))

    def test_reference_center_distance_caps_at_crosstalk_level(self, glued_ex2):
        # against the unrefined center the distance bottoms out at the
        # cross-talk valuation M/2 = 7/2 instead of growing forever
        _, _, F = glued_ex2
        exps = [s.dist_exp for s in orbit(F, 9, 5, ref=0)]
        assert exps[:3] == [2, 3, Fraction(7, 2)]
        assert all(e == Fraction(7, 2) for e in exps[3:])
        assert all(b >= a for a, b in zip(exps, exps[1:]))

    def test_finer_glue_shows_five_strict_increases(self, glued_ex2_fine):
        _, _, F = glued_ex2_fine
        exps = [s.dist_exp for s in orbit(F, 9, 6, ref=0)]
        assert exps == [2, 3, 4, 5, 6, 7, Fraction(15, 2)]
        assert all(b > a for a, b in zip(exps, exps[1:]))

    def test_repulsion_until_witness_disk_exit(self, glued_ex2):
        _, _, F = glued_ex2
        zstar = hensel_fixed_point(F, 3, 30)
        assert (zstar - 3).valuation() >= Fraction(7, 2)
        steps = orbit(F, 30, 3, ref=zstar)
        exps = [s.dist_exp for s in steps]
        assert exps[:4] == [3, 2, 1, 1]
        assert not D(3, 1).contains_point(steps[2].point)

    @pytest.mark.parametrize("precision", (0, -5, True, 1.5))
    def test_bad_precision_rejected(self, glued_ex2, precision):
        # 0, -5 and True used to round every point of this orbit to 0
        _, _, F = glued_ex2
        with pytest.raises(ValueError, match="precision must be an integer >= 1"):
            orbit(F, 1, 3, ref=0, precision=precision)

    @pytest.mark.parametrize("steps", (2.5, True, -3, "3", None))
    def test_bad_steps_rejected(self, glued_ex2, steps):
        # 2.5 used to end in range()'s TypeError, True to run one step and
        # -3 to return only the start
        _, _, F = glued_ex2
        with pytest.raises(ValueError, match=r"orbit steps must be an integer >= 0, got "):
            orbit(F, 1, steps, ref=0)

    def test_precision_one_agrees_mod_p(self, glued_ex2):
        _, _, F = glued_ex2
        coarse, fine = orbit(F, 1, 3, precision=1), orbit(F, 1, 3)
        assert all((a.point - b.point).valuation() >= 1 for a, b in zip(coarse, fine))

    def test_identity_ball_parks_the_escapee(self, glued_ex2):
        models, _, F = glued_ex2
        z2 = orbit(F, 30, 2)[-1].point
        assert models[2].domain.contains_point(z2)
        assert (F.eval(z2) - z2).valuation() >= Fraction(7, 2)


class TestIndifferentIsometry:
    def test_sampled_pairs_preserve_distance(self):
        models = ex1_models(Fraction(2), Fraction(1, 3))
        census = ex1_census(models)
        eps = epsilon_for_census(models, census)
        F = build_F(models, plan_gluing(models, eps))
        disk = census.witnesses[0].disk
        pts = sample_points(disk, 9)
        for x, y in combinations(pts, 2):
            assert (F.eval(x) - F.eval(y)).valuation() == (x - y).valuation()


class TestSuggestWitness:
    def test_no_shrink_needed(self):
        models = ex2_models()
        disk = suggest_witness(models[0], 0, ATTRACTING)
        assert disk.same_set(D(0, 2)) and not disk.closed

    def test_fixed_point_outside_domain(self):
        models = ex2_models()
        with pytest.raises(ValueError, match="outside the model domain"):
            suggest_witness(models[0], 1, ATTRACTING)

    def test_unreachable_kind(self):
        models = ex2_models()
        with pytest.raises(ValueError, match="no witness disk"):
            suggest_witness(models[0], 0, REPELLING)


class TestVerifyCensus:
    def test_reference_census_passes(self, glued_ex2):
        models, _, F = glued_ex2
        report = verify_census(F, models, ex2_census(models))
        assert report.passes
        assert [c.got for c in report.counts] == [(1, 0, 0), (0, 1, 0), (0, 0, 0)]
        assert all(w.ok for w in report.witnesses)

    def test_mismatch_is_reported_not_raised(self, glued_ex2):
        models, _, F = glued_ex2
        good = ex2_census(models)
        swapped = FixedPointCensus(
            counts=((0, 1, 0), (0, 1, 0), (0, 0, 0)),
            witnesses=(
                Witness(0, good.witnesses[0].disk, REPELLING),
                good.witnesses[1],
            ),
        )
        report = verify_census(F, models, swapped)
        assert not report.passes
        assert report.witnesses[0].got == ATTRACTING
        assert not report.witnesses[0].ok
        assert report.counts[0].got == (1, 0, 0)

    def test_pole_on_a_witness_disk_is_reported_not_raised(self, glued_ex2):
        # F/z has a pole at 0, the center of the first witness disk
        models, _, F = glued_ex2
        with_pole = RationalMap(F.num, F.den * Z)
        census = ex2_census(models)
        with pytest.raises(PoleInBallError):
            classify_disk(with_pole, census.witnesses[0].disk)
        report = verify_census(with_pole, models, census)
        first = report.witnesses[0]
        assert (first.got, first.existence_certified, first.ok) == (INCONCLUSIVE, None, False)
        assert report.counts[0].got == (0, 0, 0) and not report.counts[0].ok
        assert not report.passes

    def test_census_reuses_the_certificate_shifts(self, spy_shifts):
        # every ex2 witness disk is centered at its ball's center, which
        # certify_theorem1 has already shifted F about
        models = ex2_models()
        plan = plan_gluing(models, EX2_EPSILON)
        F = build_F(models, plan)
        census = ex2_census(models)
        assert certify_theorem1(F, models, plan).passes
        shifted = spy_shifts()
        report = verify_census(F, models, census)
        assert report.passes and shifted == []

    def test_structural_errors_raise(self, glued_ex2):
        models, _, F = glued_ex2
        good = ex2_census(models)
        w0 = good.witnesses[0]
        with pytest.raises(ValueError, match="count triples"):
            verify_census(F, models, FixedPointCensus(good.counts[:2], good.witnesses))
        with pytest.raises(ValueError, match="census count triple 1 has a negative count, -1"):
            counts = (good.counts[0], (0, -1, 0), good.counts[2])
            verify_census(F, models, FixedPointCensus(counts, good.witnesses))
        with pytest.raises(ValueError, match="unknown expected kind"):
            verify_census(
                F, models,
                FixedPointCensus(good.counts, (Witness(0, w0.disk, "parabolic"),)),
            )
        with pytest.raises(ValueError, match="out of range"):
            verify_census(
                F, models, FixedPointCensus(good.counts, (Witness(5, w0.disk, ATTRACTING),))
            )
        with pytest.raises(ValueError, match="must be open"):
            verify_census(
                F, models,
                FixedPointCensus(good.counts, (Witness(0, D(0, 2, closed=True), ATTRACTING),)),
            )
        with pytest.raises(ValueError, match="not inside ball"):
            verify_census(
                F, models, FixedPointCensus(good.counts, (Witness(0, D(1, 3), ATTRACTING),))
            )
        with pytest.raises(ValueError, match="overlap"):
            verify_census(
                F, models,
                FixedPointCensus(good.counts, (w0, Witness(0, D(0, 3), ATTRACTING))),
            )

    def test_indifferent_needs_certification_and_hypotheses(self):
        models = ex1_models(Fraction(2), Fraction(1, 3))
        census = ex1_census(models)
        eps = epsilon_for_census(models, census)
        F = build_F(models, plan_gluing(models, eps))
        report = verify_census(F, models, census)
        assert report.passes
        indiff = [w for w in report.witnesses if w.expected == INDIFFERENT]
        assert indiff and all(w.c3_ok and w.existence_certified for w in indiff)


class TestEpsilonForCensus:
    def test_reference_values(self):
        models = ex2_models()
        assert epsilon_for_census(models, ex2_census(models)) == Radius(4)
        for alpha, expected in ((Fraction(3), 4), (Fraction(1, 3), 3), (Fraction(2), 3)):
            m = ex1_models(alpha, Fraction(1, 3))
            assert epsilon_for_census(m, ex1_census(m)) == Radius(expected)

    def test_raises_epsilon_until_every_M_is_at_least_2(self):
        # ball 0 holds an indifferent witness; ball 1 = B(1; 3^-5) holds
        # none, and its map (z - 1)/((z - 1)^2 + 3^5) sends it onto B(0; 1),
        # so the first candidate, 3^-2, gives the tiny ball M = 1
        f1 = RationalMap(Z - 1, (Z - 1) ** 2 + 3**5)
        models = [
            LocalModel(RationalMap(2 * Z), D(0, 1, closed=True)),
            LocalModel(f1, D(1, 5, closed=True)),
        ]
        census = FixedPointCensus(((0, 0, 1), (0, 0, 0)), (Witness(0, D(0, 1), INDIFFERENT),))
        assert plan_gluing(models, Radius(2)).M == (5, 1)
        eps = epsilon_for_census(models, census)
        plan = plan_gluing(models, eps)
        assert eps == Radius(3) and plan.M == (7, 2)
        F = build_F(models, plan)
        assert certify_theorem1(F, models, plan).passes
        assert verify_census(F, models, census).passes

    def test_suggested_tolerance_certifies_and_counts(self):
        models = ex2_models()
        census = ex2_census(models)
        eps = epsilon_for_census(models, census)
        plan = plan_gluing(models, eps)
        F = build_F(models, plan)
        from padicglue import certify_theorem1

        assert certify_theorem1(F, models, plan).passes
        assert verify_census(F, models, census).passes
