"""Work invariants pinned with exact call counts.

A lost optimisation shows up in a timed benchmark only as noise, so the
counts are pinned here instead: the spot checks evaluate each map once per
sample, the gcd of a glued sum runs the exact Euclid only when the
modular pretest cannot certify coprimality, an orbit point or Newton
iterate that the real embeddings prove tall is rounded from residues at
the modulus its own valuations set, the exact tier reduces only the
point it keeps, Hensel's convergence test after the seed runs on
residues, `build_F` multiplies, adds and divides
polynomials in integers, not in K, certifying ex2 climbs a pinned number
of `_int_val` ladders, and certification and a local model
scan for poles once per question, with no pole check asked first,
certification checks a prime only where a value enters K, reads
each shifted valuation once and multiplies in K only in the Taylor
passes, and
`example ex1` reads F at 0 once, through `multiplier`.
Shifts per polynomial and center are pinned here for a whole glue and
census, and in the other tests that take the `spy_shifts` fixture.
"""

import random
import sys
from pathlib import Path

import pytest

from conftest import load_perfbench, make_gluing_instance, orbit_pool, shared_pole_problem, spy
from padicglue import (
    Ball, FieldConfig, LocalModel, Poly, Radius, RationalMap, algebra, build_F, certify_theorem1,
    dynamics, field, geometry, gluing, hensel_fixed_point, orbit, plan_gluing, verify_census,
)
from padicglue import cli, serialize
from padicglue.presets import (
    EX2_EPSILON, ex1_census, ex1_epsilon, ex1_models, ex2_census, ex2_models,
)
from test_hensel_differential import fixed_point_instance

SAMPLES = 100
PRESETS = Path(__file__).resolve().parents[1] / "presets"


def ex1():
    models = ex1_models("3", "1/3")
    return models, ex1_epsilon(models, ex1_census(models))


@pytest.mark.parametrize("problem", (ex1, lambda: (ex2_models(), EX2_EPSILON)), ids=("ex1", "ex2"))
def test_certify_evaluates_each_map_once_per_sample(problem, monkeypatch):
    models, epsilon = problem()
    plan = plan_gluing(models, epsilon)
    F = build_F(models, plan)
    calls = spy(monkeypatch, gluing, "_horner")
    cert = certify_theorem1(F, models, plan, samples=SAMPLES)
    assert cert.passes
    pole_free = sum(check.pole_free_ok for check in cert.checks)
    assert pole_free == len(models)
    assert len(calls) == 4 * pole_free * SAMPLES
    # F's numerator and denominator, then f_i's, all at the sample's point
    expected = [
        (P, *field._point(F.p, z), False)
        for m, check in zip(models, cert.checks)
        for z, _ in check.witnesses
        for P in (F.num, F.den, m.f.num, m.f.den)
    ]
    assert [args for args, _ in calls] == expected


def test_certify_reads_valuations_with_one_ladder_per_pair(monkeypatch):
    # ex2 at 100 samples per ball: every map once per sample, and
    # `_twice_val` calls `_int_val` once for a pair with a zero coordinate;
    # a pair of two nonzero coordinates is read off residues unless both
    # are multiples of q^2, for the one-digit power q of 3, and then takes
    # one ladder for v(b) and, where v(a) wins, one on a short remainder.
    # 1,713 calls when each nonzero coordinate had its own `_int_val` and
    # the shifts about 0 read their valuations again
    models = ex2_models()
    plan = plan_gluing(models, EX2_EPSILON)
    F = build_F(models, plan)
    evaluated = spy(monkeypatch, gluing, "_horner")
    ladders, int_val = [], field._int_val

    def ladder(n, p):
        ladders.append(n)
        return int_val(n, p)

    for module in (field, algebra, gluing):
        monkeypatch.setattr(module, "_int_val", ladder)
    assert certify_theorem1(F, models, plan, samples=SAMPLES).passes
    assert len(evaluated) == 4 * len(models) * SAMPLES
    assert len(ladders) == 415


@pytest.mark.parametrize(
    "problem, scans", ((ex1, 4), (lambda: (ex2_models(), EX2_EPSILON), 6)), ids=("ex1", "ex2")
)
def test_certify_asks_each_pole_question_once(problem, scans, monkeypatch):
    # no caller asks first whether F is pole-free: per ball, image_of_ball
    # and sup_norm_exp_on_ball each scan F's shifted denominator for roots
    # once, and the polynomial maps f_i have no denominator to scan
    models, epsilon = problem()
    plan = plan_gluing(models, epsilon)
    F = build_F(models, plan)
    scanned = spy(monkeypatch, geometry, "count_roots_with_min_valuation")
    assert certify_theorem1(F, models, plan).passes
    assert all(m.f.den.degree == 0 for m in models)
    assert len(scanned) == 2 * len(models) == scans


@pytest.mark.parametrize("problem, checks", ((ex1, 33), (lambda: (ex2_models(), EX2_EPSILON), 41)),
                         ids=("ex1", "ex2"))
def test_certify_validates_only_values_entering_k(problem, checks, monkeypatch):
    # the Taylor passes are K arithmetic, which builds through the trusted
    # constructor, and `_Diff.val` reads a Poly factor's pairs, not its
    # `coeffs` view; primes are checked only where a value enters K, in
    # the views of the shifted polynomials and in one image center per
    # ball, both built by `_element` (34 and 44 when `_Diff.val` summed K
    # products of the constant factors' views and the center was P(a)
    # times the inverse of Q(a); 78 and 96 when each sum started at the
    # int 0)
    models, epsilon = problem()
    plan = plan_gluing(models, epsilon)
    F = build_F(models, plan)
    checked = spy(monkeypatch, field, "_check_prime")
    assert certify_theorem1(F, models, plan, samples=8).passes
    assert len(checked) == checks


@pytest.mark.parametrize("problem, reads", ((ex1, 7), (lambda: (ex2_models(), EX2_EPSILON), 12)),
                         ids=("ex1", "ex2"))
def test_certify_reads_each_shifted_valuation_once(problem, reads, monkeypatch):
    # a shift keeps each doubled valuation it has read, so the pole scans
    # that `image_of_ball` and `sup_norm_exp_on_ball` repeat on a ball read
    # kept values: `algebra._v2` runs once per shift about a != 0, for
    # v(a), and once per coefficient read there (16 and 24 when every read
    # recomputed it); a shift about 0 starts with every valuation its
    # Poly keeps, and reads none (10 and 15 when it read them)
    models, epsilon = problem()
    plan = plan_gluing(models, epsilon)
    F = build_F(models, plan)
    valued = spy(monkeypatch, algebra, "_v2")
    assert certify_theorem1(F, models, plan, samples=8).passes
    assert len(valued) == reads


def test_local_model_scans_its_denominator_once(monkeypatch):
    # the model takes its pole verdict from image_of_ball's scan
    z = Poly.x(3)
    scanned = spy(monkeypatch, geometry, "count_roots_with_min_valuation")
    LocalModel(f=RationalMap(z, z + 1), domain=Ball(FieldConfig(3)(0), Radius(1)))
    assert len(scanned) == 1


def test_example_ex1_reads_F_at_0_once_after_the_census(monkeypatch):
    # the multiplier at 0 is F(0) = 0 and F'(0), both from one evaluation
    # with derivatives; the derivative printed and compared with the closed
    # form is its value
    log = []
    census, values = cli.verify_census, algebra._values

    def logged_census(*args):
        report = census(*args)
        log.append(("census", args[0]))
        return report

    monkeypatch.setattr(cli, "verify_census", logged_census)
    monkeypatch.setattr(
        algebra, "_values", lambda *args: log.append(args) or values(*args)
    )
    assert cli.main(["example", "--name", "ex1", "--alpha", "3", "--beta", "1/3"]) == 0
    [at] = [i for i, entry in enumerate(log) if entry[0] == "census"]
    F = log[at][1]
    assert log[at + 1:] == [(F, field._point(3, 0), True)]


@pytest.mark.parametrize("name", ("ex1", "ex2"))
def test_glue_and_census_shift_once_per_polynomial_and_center(name, spy_shifts):
    # every polynomial keeps its shifts: the model checks of plan_gluing
    # and of build_F, the certificate and the census all read the one
    # shift of each f_i about each center and of F about each a_i
    shifted = spy_shifts()
    if name == "ex1":
        models = ex1_models("3", "1/3")
        census = ex1_census(models)
        epsilon = ex1_epsilon(models, census)
    else:
        models, epsilon = ex2_models(), EX2_EPSILON
        census = ex2_census(models)
    plan = plan_gluing(models, epsilon)
    F = build_F(models, plan)
    assert certify_theorem1(F, models, plan).passes
    assert verify_census(F, models, census).passes
    centers = sorted(str(m.center) for m in models)
    polys = [P for m in models for P in (m.f.num, m.f.den) if P.degree > 0] + [F.num, F.den]
    for P in polys:
        assert sorted(str(a) for Q, a in shifted if Q is P) == centers
    assert len(shifted) == len(polys) * len(centers)


def k_products(monkeypatch) -> list:
    """A list that gets one entry per K product from then on: the code
    object of the function that asked for it."""
    calls, mul = [], field.KElement.__mul__

    def counted(x, y):
        calls.append(sys._getframe(1).f_code)
        return mul(x, y)

    monkeypatch.setattr(field.KElement, "__mul__", counted)
    monkeypatch.setattr(field.KElement, "__rmul__", counted)
    return calls


@pytest.mark.parametrize("problem", (ex1, lambda: (ex2_models(), EX2_EPSILON)), ids=("ex1", "ex2"))
def test_certify_multiplies_in_k_only_in_the_taylor_passes(problem, monkeypatch):
    # difference coefficients sum integer triples, the image center is one
    # integer quotient, and the spot checks evaluate on integers, so every
    # K product left is a synthetic-division step of a lazy shift
    models, epsilon = problem()
    plan = plan_gluing(models, epsilon)
    F = build_F(models, plan)
    calls = k_products(monkeypatch)
    assert certify_theorem1(F, models, plan, samples=8).passes
    assert calls and set(calls) == {algebra._Prefix.coeff.__code__}


def test_build_F_multiplies_polynomials_in_integers(monkeypatch):
    # every product of the glued sum and of its bump factors convolves
    # integer pairs; the only K products left are the powers c_i^M_i, 6
    # each for M_i = 7 by repeated squaring (three squares, three products)
    models = ex2_models()
    plan = plan_gluing(models, EX2_EPSILON)
    assert plan.M == (7, 7, 7)
    calls = k_products(monkeypatch)
    build_F(models, plan)
    assert len(calls) == 18


def test_build_F_reads_no_coefficient_as_a_k_element(monkeypatch):
    # sums, products and the gcd read the pairs only; a pair becomes a K
    # element just for the leading coefficient -1 of each of the three bump
    # factors' denominators c_i^M - (z - a_i)^M, which the map divides by
    # (254 when sums ran in K)
    models = ex2_models()
    plan = plan_gluing(models, EX2_EPSILON)
    elements = spy(monkeypatch, algebra, "_element")
    build_F(models, plan)
    assert len(elements) == 3


def inits_reading_glued_ex2(tmp_path, monkeypatch, cls) -> int:
    """The calls of cls.__init__ while `result_from_json` reads the result
    of `glue --input presets/ex2.json`."""
    path = tmp_path / "ex2.result.json"
    assert cli.main(["glue", "--input", str(PRESETS / "ex2.json"), "--output", str(path)]) == 0
    doc = serialize.read_json(path)
    built, init = [], cls.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counted)
    serialize.result_from_json(doc)
    return len(built)


def test_reading_a_result_builds_each_k_value_once(tmp_path, monkeypatch):
    # the JSON reader builds each element of the glued ex2 result from the
    # Fractions it parsed, through the trusted constructor; what is left
    # are the 16 coefficient views `algebra._element` builds for the
    # models' images and the one leading coefficient F's RationalMap
    # divides by (104 when the reader ran KElement.__init__ on every
    # element)
    assert inits_reading_glued_ex2(tmp_path, monkeypatch, field.KElement) == 17


def test_reading_a_result_builds_each_exponent_once(tmp_path, monkeypatch):
    # the JSON reader builds each exponent of the glued ex2 result from its
    # doubled value after its own (1/2)Z test, as a shared ValExp, and an
    # infinite one as ValExp.infinite(): what is left are the 3 Gauss norms
    # of the models' images (53, 50 of them the reader's, when it parsed
    # every exponent a second time in ValExp.__init__)
    assert inits_reading_glued_ex2(tmp_path, monkeypatch, field.ValExp) == 3


def test_shared_pole_euclid_divides_in_integers(monkeypatch):
    # the exact Euclid that cancels the glued sum's common factor divides
    # integer pairs, so the only K products are the powers c_i^M_i by
    # repeated squaring (2,752 when its remainders were K elements)
    models, epsilon = shared_pole_problem()
    plan = plan_gluing(models, epsilon)
    calls = k_products(monkeypatch)
    build_F(models, plan)
    assert len(calls) == sum(M.bit_length() + bin(M).count("1") for M in plan.M) == 26


def euclid_runs(monkeypatch, models, epsilon) -> tuple:
    """(the pretest results, the degrees of the gcds found by exact Euclid
    runs) over build_F."""
    plan = plan_gluing(models, epsilon)
    pretests = spy(monkeypatch, algebra, "_provably_coprime")
    gcds = spy(monkeypatch, algebra, "poly_gcd")
    build_F(models, plan)
    # a pretest that fails is always followed by the exact Euclid
    runs = [args for args, coprime in pretests if not coprime]
    return (
        tuple(coprime for _, coprime in pretests),
        tuple(g.degree for args, g in gcds if args in runs),
    )


def test_shared_pole_glue_runs_the_exact_euclid_once(monkeypatch):
    # one failed pretest, then one Euclid, which finds the glued sum's
    # common factor of degree 6
    pretests, degrees = euclid_runs(monkeypatch, *shared_pole_problem())
    assert pretests == (False,)
    assert degrees == (6,)


def p17_glue(n: int) -> tuple:
    """n maps z -> (a + 1)(z - a) + (a mod 7) on B(a; 17^-1), a = 0, ...,
    n - 1, with epsilon 17^-2, shaped like the sweep workload.  The centers
    are 1 apart, so r_i + delta_i = 1 is odd and every bump constant c_i
    has a sqrt 17 part, and so do F's coefficients."""
    K, z = FieldConfig(17), Poly.x(17)
    models = [
        LocalModel(f=RationalMap((z - a) * (a + 1) + a % 7), domain=Ball(K(a), Radius(1)))
        for a in range(n)
    ]
    return models, Radius(2)


def test_modular_pretest_certifies_a_glue_at_p_17(monkeypatch):
    # 17 is a square mod none of the first four primes q = 3 mod 4 above
    # 10^6, so the pretest takes its primes further on; a fixed table of
    # those four sent every F with a sqrt 17 part to the exact Euclid
    models, epsilon = p17_glue(12)
    pretests, degrees = euclid_runs(monkeypatch, models, epsilon)
    assert pretests == (True,)
    assert degrees == ()


@pytest.mark.parametrize("seed", range(6))
def test_modular_pretest_certifies_coprime_glues(seed, monkeypatch):
    # polynomial local maps: F's numerator and denominator are coprime,
    # and the pretest runs and certifies it, so no exact Euclid runs
    models, epsilon = make_gluing_instance(random.Random(f"work/{seed}"))
    pretests, degrees = euclid_runs(monkeypatch, models, epsilon)
    assert pretests and all(pretests)
    assert degrees == ()


@pytest.mark.parametrize("p, rounded", ((3, 28), (5, 28), (7, 28)))
def test_orbit_rounds_tall_points_from_residues(p, rounded, monkeypatch):
    # 30 steps at precision 256 from a start near the attracting center:
    # from the third step on the real embeddings prove every F(z) tall,
    # and N(z) and Q(z) are only formed mod p^K, K = 256 + ceil(2 v(Q(z))
    # - min(v(N(z)), v(Q(z)))) = 256 + ceil(63/2) = 288, read off the last
    # exact step and never redone; exact `_values` runs on the first two
    # steps, which are short
    F, (a0, _, _) = fixed_point_instance(p)
    tier = spy(monkeypatch, dynamics, "_residue_step")
    values = spy(monkeypatch, dynamics, "_values")
    residues = spy(monkeypatch, dynamics, "_values_mod")
    orbit(F, FieldConfig(p)(a0 + p**3), 30, precision=256)
    assert [(out is not None, K) for _, (out, K) in tier] == [(True, 288)] * rounded
    assert [args[2] for args, _ in values] == [False, False]
    assert [args[2] for args, _ in residues] == [p**288] * rounded
    for args, (n0, q0) in residues:
        assert field._twice_val(p, q0) == 63 <= field._twice_val(p, n0)
        assert all(0 <= x < p**288 for x in n0 + q0)


def test_exact_tier_reduces_only_the_kept_point(monkeypatch):
    # per pool instance, Hensel's refinement and the orbit each take two
    # exact steps: the first, short, is reduced once and kept, and the
    # second is rounded from its unreduced quotient, so each call builds
    # one reduced K element and calls `reduce_mod` zero times
    inputs = load_perfbench("inputs")
    reduced = spy(monkeypatch, dynamics, "_element")
    rounded = spy(monkeypatch, dynamics, "reduce_mod")
    for key, inst, F in orbit_pool():
        counts = []
        zstar = hensel_fixed_point(F, inst.attracting_center, inputs.HENSEL_TARGET)
        counts.append((len(reduced), len(rounded)))
        orbit(F, inst.orbit_start, inputs.ORBIT_STEPS, ref=zstar, precision=inputs.ORBIT_PRECISION)
        counts.append((len(reduced), len(rounded)))
        assert counts == [(1, 0), (2, 0)], key
        reduced.clear()


@pytest.mark.parametrize("p", (3, 5, 7))
def test_newton_steps_are_orbit_steps_of_one_map(p, monkeypatch):
    # Hensel to 64 from the attracting center builds Newton's map once and
    # takes 4 steps of it: the first two points are short, so Newton's map
    # is evaluated exactly (one point kept, one rounded), and the real
    # embeddings prove the last two tall, formed mod p^K, K = prec +
    # ceil(2 v(Q) - min(v(N), v(Q))) = 283 + ceil(126/2) = 346 with the
    # valuations read off the exact step before.  F itself is evaluated
    # exactly only at the seed, for the Hensel condition, by one `_values`
    # pass with derivatives; its convergence test at
    # the 4 iterates after it runs on N(z), Q(z) mod p^K, K =
    # ceil((2 target + 2 v(w) + 2 v(Q(z)))/2) = ceil((128 + 0 + 63)/2) = 96,
    # after one pass at the first guess, K = target = 64
    F, (a0, _, _) = fixed_point_instance(p)
    seed = FieldConfig(p)(a0)
    maps = spy(monkeypatch, dynamics, "_newton_map")
    evals = spy(monkeypatch, RationalMap, "eval")
    derivatives = spy(monkeypatch, RationalMap, "derivative_at")
    seeds = spy(monkeypatch, RationalMap, "_value_and_derivative")
    exact = spy(monkeypatch, algebra, "_values")
    values = spy(monkeypatch, dynamics, "_values")
    residues = spy(monkeypatch, dynamics, "_values_mod")
    tier = spy(monkeypatch, dynamics, "_residue_step")
    rounds = spy(monkeypatch, dynamics, "_round_quotient")
    kept = spy(monkeypatch, dynamics, "_round_point")
    hensel_fixed_point(F, seed, 64)
    assert [args for args, _ in maps] == [(F,)]
    newton = maps[0][1]
    assert evals == derivatives == []
    assert [args for args, _ in seeds] == [(F, seed)]
    # every exact evaluation of F is the seed's; Newton's map is evaluated
    # exactly at its two short points
    assert [args for args, _ in exact] == [(F, field._point(p, seed), True)]
    assert [(args[0] is newton, args[2]) for args, _ in values] == [(True, False)] * 2
    assert [(args[0] is F, args[2]) for args, _ in residues] == [
        (True, p**64), (True, p**96), (True, p**96), (False, p**346),
        (True, p**96), (False, p**346), (True, p**96),
    ]
    assert all(args[0] in (F, newton) for args, _ in values + residues)
    assert [(out is not None, K) for _, (out, K) in tier] == [(True, 346)] * 2
    # the exact tier keeps the first point and rounds the second at once,
    # from its first coordinate's height, so only the first is reduced and
    # reaches `_round_point`, which keeps it
    assert [out != field._element(*args[:4]) for args, out in rounds] == [False, True]
    assert [out is z for (z, _), out in kept] == [True]
