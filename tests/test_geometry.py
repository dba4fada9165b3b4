"""Balls, images, root counting, and sampling in the completed field."""

import pickle
import random
from fractions import Fraction

import pytest

import certifier_oracle as oracle
from conftest import load_perfbench, roots_in_ball
from padicglue import (
    Ball,
    FieldConfig,
    KElement,
    Poly,
    PoleInBallError,
    Radius,
    RationalMap,
    ValExp,
    build_F,
    count_roots_with_min_valuation,
    distance_exp,
    image_of_ball,
    pairwise_deltas,
    plan_gluing,
    pole_free_on_ball,
    sample_points,
    sup_norm_exp_on_ball,
    wdeg,
)
from padicglue.algebra import _shifted
from padicglue.errors import _power_str
from padicglue.field import _point
from padicglue.presets import EX2_EPSILON, ex1_census, ex1_epsilon, ex1_models, ex2_models

K3 = FieldConfig(3)
Z = Poly.x(3)


def B(center, exp, closed=True):
    return Ball(K3(center), Radius(Fraction(exp)), closed=closed)


class TestRadius:
    def test_half_integer_grid(self):
        assert Radius(Fraction(3, 2)).exp == Fraction(3, 2)
        with pytest.raises(ValueError):
            Radius(Fraction(1, 4))

    def test_infinite_exponent_rejected(self):
        from padicglue import ValExp

        with pytest.raises(ValueError, match="positive"):
            Ball(K3(0), ValExp.infinite())

    def test_ordering_is_by_exponent(self):
        # Radius is the exponent e of p^(-e): a bigger exponent is a smaller radius
        assert Radius(3) > Radius(2)
        assert Radius(Fraction(5, 2)) < Radius(3)
        assert Radius(-1) < Radius(0)

    def test_is_the_one_exponent_type(self):
        import padicglue
        from padicglue import ValExp

        assert padicglue.Radius is ValExp
        assert Radius(ValExp(Fraction(3, 2))) == Radius(Fraction(3, 2))


class TestBallSetSemantics:
    def test_contains_point_boundary(self):
        closed, open_ = B(0, 1), B(0, 1, closed=False)
        on_boundary = K3(3)
        assert closed.contains_point(on_boundary)
        assert not open_.contains_point(on_boundary)
        assert open_.contains_point(K3(9))
        assert not closed.contains_point(K3(1))

    def test_same_set_depends_on_center_only_up_to_radius(self):
        assert B(0, 1).same_set(B(3, 1))
        assert not B(0, 1).same_set(B(1, 1))
        assert not B(0, 1).same_set(B(0, 2))
        # closed and open of equal radius are never the same set
        assert not B(0, 1).same_set(B(0, 1, closed=False))

    def test_open_ball_needs_strictly_closer_center(self):
        assert B(0, 1, closed=False).same_set(B(9, 1, closed=False))
        assert not B(0, 1, closed=False).same_set(B(3, 1, closed=False))

    def test_containment_kind_rules(self):
        assert B(0, 1).contains_ball(B(3, 2))
        assert B(0, 1).contains_ball(B(0, 1, closed=False))
        assert not B(0, 1, closed=False).contains_ball(B(0, 1))
        # open containing closed of equal radius fails; strictly smaller works
        assert B(0, 1, closed=False).contains_ball(B(0, 2))
        assert B(0, 1, closed=False).contains_ball(B(0, 2, closed=False))

    def test_properly_contains(self):
        assert B(0, 1).properly_contains(B(0, 2))
        assert not B(0, 1).properly_contains(B(3, 1))

    def test_intersecting_balls_are_nested(self):
        a, b = B(0, 1), B(3, 2)
        assert a.intersects(b) and a.contains_ball(b)
        assert B(0, 1).disjoint_from(B(1, 1))
        assert not B(0, 1).intersects(B(2, 3))

    def test_str_forms(self):
        assert str(B(0, 2)) == "B(0; 3^(-2))"
        assert str(B(3, 1, closed=False)) == "D(3; 3^(-1))"

    def test_str_of_radius_at_least_one(self):
        # a radius p^(-e) with e <= 0; e = 0 prints unsigned, as the CLI
        # prints |x| = 1
        assert str(B(0, 0)) == "B(0; 3^(0))"
        assert str(B(0, -1)) == "B(0; 3^(1))"
        assert str(B(1, Fraction(-3, 2), closed=False)) == "D(1; 3^(3/2))"
        assert _power_str("p", Radius(-2)) == "p^(2)"
        assert _power_str("p", Radius(Fraction(1, 2))) == "p^(-1/2)"
        assert _power_str(3, Radius(0)) == "3^(0)"
        assert _power_str(3, ValExp.infinite()) == "0"


RELATIONS = ("contains_ball", "same_set", "properly_contains", "intersects", "disjoint_from")


def random_balls(p: int, rng: random.Random, n: int) -> list:
    """n balls about a few nearby centers, half of them with a sqrt p part,
    with radius exponents in (1/2)Z from -2 to 4, closed or open."""
    coords = [Fraction(x) for x in (0, 1, p, p * p, Fraction(1, p), p + p**3)]
    balls = []
    for _ in range(n):
        b = rng.choice(coords) if rng.random() < 0.5 else 0
        center = KElement(p, rng.choice(coords), b)
        balls.append(Ball(center, Radius(Fraction(rng.randint(-4, 8), 2)), rng.random() < 0.5))
    return balls


class TestBallRelationsAgainstReference:
    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_relations_match_the_case_analysis(self, p):
        # every ordered pair of 36 random balls, 1,296 per prime: each
        # relation that Ball reads off its size key agrees with the
        # closed/open case analysis of the reference (certifier_oracle)
        balls = random_balls(p, random.Random(f"ball relations/{p}"), 36)
        seen = set()
        for x in balls:
            for y in balls:
                assert x.contains_point(y.center) == oracle.contains_point(x, y.center)
                for name in RELATIONS:
                    got = getattr(x, name)(y)
                    assert got == getattr(oracle, name)(x, y), (name, str(x), str(y))
                    seen.add((name, got))
        assert len(seen) == 2 * len(RELATIONS)
        # the sample holds the pairs where only the kinds decide: balls of
        # one radius, one closed and one open, that meet
        assert any(
            x.radius == y.radius and x.closed and not y.closed and oracle.intersects(x, y)
            for x in balls
            for y in balls
        )


def test_distance_exp():
    assert distance_exp(K3(9), K3(0)) == 2
    assert distance_exp(K3(1), K3(1)).is_infinite


class TestPairwiseDeltas:
    def test_three_centers_oracle(self):
        deltas = pairwise_deltas([K3(0), K3(3), K3(6)])
        assert [d.exp for d in deltas] == [1, 1, 1]

    def test_nearest_neighbor_wins(self):
        deltas = pairwise_deltas([K3(0), K3(9), K3(1)])
        # 0 and 9 are distance 3^-2 apart; 1 is at distance 1 from both
        assert [d.exp for d in deltas] == [2, 2, 0]

    def test_needs_two_and_rejects_duplicates(self):
        with pytest.raises(ValueError):
            pairwise_deltas([K3(0)])
        with pytest.raises(ValueError):
            pairwise_deltas([K3(0), K3(3), K3(0)])


class TestCountRootsInBall:
    def test_boundary_root_closed_vs_open(self):
        P = Z - 3
        assert roots_in_ball(P, B(0, 1)) == 1
        assert roots_in_ball(P, B(0, 1, closed=False)) == 0

    def test_center_root_and_multiplicity(self):
        P = (Z - 1) ** 2 * (Z - 4)
        assert roots_in_ball(P, B(1, 1)) == 3
        assert roots_in_ball(P, B(1, 2)) == 2

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            roots_in_ball(Poly.zero(3), B(0, 0))


class TestPoleFreedom:
    def test_polynomials_are_pole_free(self):
        assert pole_free_on_ball(RationalMap(Z**2), B(0, 0))

    def test_pole_inside_and_outside(self):
        f = RationalMap(Poly.one(3), Z)
        assert not pole_free_on_ball(f, B(0, 1))
        assert not pole_free_on_ball(f, B(9, 2))
        assert pole_free_on_ball(f, B(9, 3))
        assert pole_free_on_ball(f, B(1, 0, closed=False))


class TestSupNorm:
    def test_linear_map(self):
        assert sup_norm_exp_on_ball(RationalMap(3 * Z), B(0, 2)) == 3

    def test_constant_denominator_scaling(self):
        f = RationalMap(Poly.one(3), Z)
        # |z| is constantly 3^-2 on this ball, so |1/z| = 3^2
        assert sup_norm_exp_on_ball(f, B(9, 3)) == -2

    def test_pole_raises(self):
        with pytest.raises(PoleInBallError):
            sup_norm_exp_on_ball(RationalMap(Poly.one(3), Z), B(0, 1))

    def test_minus_is_the_sup_of_the_difference(self):
        # (3z + 1) - 1 = 3z and z/(z - 1) - (-z) = z^2/(z - 1), |z - 1| = 1 on B(0; 3^-2)
        one = RationalMap(Poly.one(3))
        assert sup_norm_exp_on_ball(RationalMap(3 * Z + 1), B(0, 2), minus=one) == 3
        f, g = RationalMap(Z, Z - 1), RationalMap(-Z)
        assert sup_norm_exp_on_ball(f, B(0, 2)) == 2
        assert sup_norm_exp_on_ball(f, B(0, 2), minus=g) == 4
        assert sup_norm_exp_on_ball(f, B(0, 2), minus=f).is_infinite

    def test_minus_with_a_pole_raises(self):
        with pytest.raises(PoleInBallError):
            sup_norm_exp_on_ball(RationalMap(Z), B(0, 1), minus=RationalMap(Poly.one(3), Z))


class TestImageOfBall:
    def test_contraction(self):
        img = image_of_ball(RationalMap(3 * Z), B(0, 2))
        assert img.same_set(B(0, 3))
        assert img.closed

    def test_expansion_with_shift(self):
        f = RationalMap(Z * Fraction(1, 3) + 2)
        assert image_of_ball(f, B(3, 2)).same_set(B(3, 1))

    def test_moebius_isometry(self):
        f = RationalMap(Z, Z - 1)
        assert image_of_ball(f, B(0, 1)).same_set(B(0, 1))

    def test_open_kind_preserved(self):
        img = image_of_ball(RationalMap(3 * Z), B(0, 2, closed=False))
        assert not img.closed
        assert img.same_set(B(0, 3, closed=False))

    def test_constant_map_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            image_of_ball(RationalMap(Poly.constant(3, 5)), B(0, 1))

    def test_square_map_drops_radius_by_degree(self):
        img = image_of_ball(RationalMap(Z**2), B(0, 1))
        assert img.same_set(B(0, 2))


def glued(models, epsilon) -> list:
    """(map, ball) for every model on its own ball and the glued F on
    every ball."""
    F = build_F(models, plan_gluing(models, epsilon))
    return [(m.f, m.domain) for m in models] + [(F, m.domain) for m in models]


class TestImageCenter:
    """The image center, P(a)/Q(a) from one integer quotient, is f(a):
    the same reduced element, printed the same."""

    @staticmethod
    def assert_center_is_value(f, ball):
        got, want = image_of_ball(f, ball).center, f.eval(ball.center)
        assert (got.p, got.a, got.b, str(got)) == (want.p, want.a, want.b, str(want)), (f, ball)

    def test_presets(self):
        ex1 = ex1_models("3", "1/3")
        for f, ball in (glued(ex1, ex1_epsilon(ex1, ex1_census(ex1)))
                        + glued(ex2_models(), EX2_EPSILON)):
            self.assert_center_is_value(f, ball)

    def test_suite_problems(self):
        inputs = load_perfbench("inputs")
        for key in inputs.suite_pool():
            inst = inputs.suite_instance(key)
            for f, ball in glued(inst.models, inst.epsilon):
                self.assert_center_is_value(f, ball)

    def test_q_at_center_with_a_sqrt_p_part(self):
        # Q = 2 - sqrt 3 + 3z + z^2/3, kept monic, at a = 1/3 + sqrt 3:
        # Q(a) has a sqrt 3 part, and P(a) and Q(a) both have denominators
        K = FieldConfig(3)
        Q = Poly(3, (K(2, -1), 3, Fraction(1, 3)))
        f = RationalMap(Poly(3, (K(Fraction(1, 5), 2), Fraction(7, 9))), Q)
        a = K(Fraction(1, 3), 1)
        qa = _shifted(f.den, a).coeff(0)
        assert qa.b and qa.a.denominator > 1
        for ball in (Ball(a, Radius(1)), Ball(a, Radius(Fraction(5, 2)), closed=False)):
            self.assert_center_is_value(f, ball)


class TestExpansions:
    """A polynomial keeps one Taylor shift per center: balls about one
    center share it, and so do later calls.  The radius and the kind only
    enter the scans, so every answer equals one read off a fresh shift.
    Each test builds its own map, since the shifts live as long as it does."""

    @staticmethod
    def F():
        return RationalMap(Z**3 + 2 * Z + 1, Z**2 - 3)

    def test_balls_about_one_center_share_one_shift(self, spy_shifts):
        balls = [B(1, 1), B(1, 1, closed=False), B(1, 2, closed=False), B(1, 3)]

        def answers(F, b):
            img = image_of_ball(F, b)
            return (pole_free_on_ball(F, b), str(img), img.closed, sup_norm_exp_on_ball(F, b),
                    wdeg(F, img.center, b))

        fresh = [answers(self.F(), b) for b in balls]
        F = self.F()
        shifted = spy_shifts()
        assert [answers(F, b) for b in balls] == fresh
        assert [P for P, _ in shifted] == [F.num, F.den]

    def test_each_center_is_shifted_once(self, spy_shifts):
        F = self.F()
        shifted = spy_shifts()
        for b in (B(1, 1), B(4, 2), B(1, 3, closed=False), B(4, 2, closed=False)):
            image_of_ball(F, b)
            pole_free_on_ball(F, b)
        assert sorted((str(a), str(P)) for P, a in shifted) == sorted(
            (str(K3(c)), str(P)) for c in (1, 4) for P in (F.num, F.den)
        )

    def test_shifts_outlive_the_call(self, spy_shifts):
        F = self.F()
        shifted = spy_shifts()
        assert pole_free_on_ball(F, B(1, 1))
        assert len(shifted) == 2
        image_of_ball(F, B(1, 3, closed=False))
        assert count_roots_with_min_valuation(_shifted(F.num, K3(1)), 0, strict=False) == 3
        assert len(shifted) == 2

    def test_a_copy_starts_with_no_shifts(self, spy_shifts):
        F = self.F()
        image_of_ball(F, B(1, 1))
        shifted = spy_shifts()
        copies = [Poly(3, F.num.coeffs), pickle.loads(pickle.dumps(F.num))]
        for P in copies:
            _shifted(P, K3(1))
        assert [id(P) for P, _ in shifted] == [id(P) for P in copies]

    def test_mixed_primes_raise_after_a_shift(self):
        # KElement(5, 0) == KElement(3, 0) and both hash alike, so a lookup
        # by center alone would hand the p = 5 ball the p = 3 shift
        F = self.F()
        assert pole_free_on_ball(F, B(0, 1))
        assert K3(0) == FieldConfig(5)(0) and hash(K3(0)) == hash(FieldConfig(5)(0))
        ball5 = Ball(FieldConfig(5)(0), Radius(1))
        with pytest.raises(ValueError, match="mixed primes"):
            pole_free_on_ball(F, ball5)
        with pytest.raises(ValueError, match="mixed primes"):
            _shifted(F.num, ball5.center)

    def test_pole_is_found_on_the_larger_ball_only(self):
        # z^2 - 3 has its roots at valuation 1/2: inside B(0; 3^0), outside D(0; 3^(-1/2))
        F = self.F()
        assert not pole_free_on_ball(F, B(0, 0))
        assert pole_free_on_ball(F, Ball(K3(0), Radius(Fraction(1, 2)), closed=False))


class TestWdeg:
    def test_bijective_affine(self):
        assert wdeg(RationalMap(3 * Z), K3(0), B(0, 2)) == 1

    def test_square_counts_two(self):
        assert wdeg(RationalMap(Z**2), K3(0), B(0, 1)) == 2

    def test_boundary_root_excluded_on_open_disk(self):
        assert wdeg(RationalMap(Z**2), K3(1), B(1, 0)) == 2
        assert wdeg(RationalMap(Z**2), K3(1), B(1, 0, closed=False)) == 1

    def test_target_outside_image_rejected(self):
        with pytest.raises(ValueError, match=r"target 1 lies outside the image B\(0; 3\^\(-3\)\)"):
            wdeg(RationalMap(3 * Z), K3(1), B(0, 2))
        with pytest.raises(ValueError, match="outside the image"):
            wdeg(RationalMap(Z**2), K3(1), B(0, 1))

    def test_constant_map_rejected_whatever_the_target(self):
        # f - b is then a nonzero constant, or zero when b is the constant
        for b in (5, 1):
            with pytest.raises(ValueError, match="constant map"):
                wdeg(RationalMap(Poly.constant(3, 5)), K3(b), B(0, 1))

    def test_pole_raises(self):
        with pytest.raises(PoleInBallError):
            wdeg(RationalMap(Poly.one(3), Z), K3(1), B(0, 1))


class TestSamplePoints:
    def test_closed_ball_oracle(self):
        pts = sample_points(B(0, 2), 5)
        assert [str(x) for x in pts] == ["0", "9", "18", "27", "54"]

    def test_open_ball_skips_boundary(self):
        pts = sample_points(B(0, 2, closed=False), 3)
        assert [str(x) for x in pts] == ["0", "27", "54"]

    def test_membership_and_distinctness(self):
        ball = B(5, 1)
        pts = sample_points(ball, 9)
        assert len(set(pts)) == 9
        assert all(ball.contains_point(z) for z in pts)
        assert any(distance_exp(z, ball.center) == ball.radius.exp for z in pts)


def _seeded_balls(rng):
    for p in (2, 3, 5, 23):
        K = FieldConfig(p)
        for _ in range(12):
            def coord():
                return Fraction(rng.randrange(-p * p, p * p), rng.choice((1, 2, p, 7, p * p)))

            center = K(coord(), coord() if rng.random() < 0.5 else 0)
            exp = Fraction(rng.randrange(-4, 9), rng.choice((1, 2)))
            yield Ball(center, Radius(exp), closed=rng.random() < 0.5)


class TestSamplePointsAgainstOracle:
    """The integer-built points against center + pi^(2j) * u in K."""

    def test_same_points_in_the_same_order(self):
        rng = random.Random(1301)
        balls = list(_seeded_balls(rng))
        assert {b.radius.exp.denominator for b in balls} == {1, 2}
        assert {b.closed for b in balls} == {True, False}
        for ball in balls:
            p = ball.p
            # shell boundaries fall after 1 + k (p - 1) points
            edges = {1 + k * (p - 1) + d for k in (1, 2, 5) for d in (-1, 0, 1)}
            for budget in sorted({0, 1, 2, 120} | {rng.randrange(121) for _ in range(4)} | edges):
                got = sample_points(ball, budget)
                want = oracle.sample_points(ball, budget)
                assert got == want, (ball, budget)
                assert [(x.p, x.a, x.b) for x in got] == [(x.p, x.a, x.b) for x in want]
                # the trusted constructor stores what it is given: Fractions
                assert all(type(x.a) is type(x.b) is Fraction for x in got)
                # the spot checks' triples are the points' own `_point`s
                assert sample_points(ball, budget, triples=True) == [
                    (z, _point(p, z)) for z in got
                ]

    def test_smaller_budget_is_a_prefix(self):
        # the stored witnesses of a result are a prefix of those verify
        # recomputes with more samples
        rng = random.Random(1302)
        for ball in _seeded_balls(rng):
            full = sample_points(ball, 120)
            assert len(full) == 120
            for k in (0, 1, 2, 7, 8, 50, 100):
                assert sample_points(ball, k) == full[:k]

    def test_points_lie_in_the_ball(self):
        rng = random.Random(1303)
        for ball in _seeded_balls(rng):
            pts = sample_points(ball, 40)
            assert len(set(pts)) == 40
            assert all(ball.contains_point(z) for z in pts)
