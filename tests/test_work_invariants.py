"""Work invariants pinned with exact call counts.

A lost optimisation shows up in a timed benchmark only as noise, so the
counts are pinned here instead: the spot checks evaluate each map once per
sample, the gcd of a glued sum runs the exact Euclid only when the
modular pretest cannot certify coprimality, and an orbit point that the
real embeddings prove tall is rounded from residues.  Shifts per center
are pinned in test_lazy_shift.py and by the `spy_shifts` tests.
"""

import random

import pytest

from conftest import make_gluing_instance, shared_pole_problem, spy
from padicglue import (
    FieldConfig, algebra, build_F, certify_theorem1, dynamics, field, gluing, orbit, plan_gluing,
)
from padicglue.presets import EX2_EPSILON, ex1_census, ex1_epsilon, ex1_models, ex2_models
from test_hensel_differential import fixed_point_instance

SAMPLES = 100


def ex1():
    models = ex1_models("3", "1/3")
    return models, ex1_epsilon(models, ex1_census(models))


@pytest.mark.parametrize("problem", (ex1, lambda: (ex2_models(), EX2_EPSILON)), ids=("ex1", "ex2"))
def test_certify_evaluates_each_map_once_per_sample(problem, monkeypatch):
    models, epsilon = problem()
    plan = plan_gluing(models, epsilon)
    F = build_F(models, plan)
    calls = spy(monkeypatch, gluing, "_values")
    cert = certify_theorem1(F, models, plan, samples=SAMPLES)
    assert cert.passes
    pole_free = sum(check.pole_free_ok for check in cert.checks)
    assert pole_free == len(models)
    assert len(calls) == 2 * pole_free * SAMPLES
    # F, then f_i, both at the sample's point
    expected = [
        (f, algebra._point(F.p, z))
        for m, check in zip(models, cert.checks)
        for z, _ in check.witnesses
        for f in (F, m.f)
    ]
    assert [(f, point) for (f, point, _), _ in calls] == expected


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
    # and N(z) and Q(z) are only formed mod p^(256 + 2 vden), vden read
    # from the last exact step; exact `_values` runs on the first two,
    # which are short
    F, (a0, _, _) = fixed_point_instance(p)
    tier = spy(monkeypatch, dynamics, "_residue_step")
    values = spy(monkeypatch, dynamics, "_values")
    orbit(F, FieldConfig(p)(a0 + p**3), 30, precision=256)
    assert sum(out is not None for _, (out, _) in tier) == len(tier) == rounded
    assert [len(args) for args, _ in values] == [3, 3] + [4] * rounded
    for args, (n0, _, q0, _) in values[2:]:
        vden = field._twice_val(p, q0)
        assert args[3] == p ** (256 + 2 * vden)
        assert all(0 <= x < p ** (256 + 2 * vden) for x in n0 + q0)
