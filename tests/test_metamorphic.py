"""Metamorphic relations on whole glues.

Translating every domain by t and every local map f_i to f_i(z - t) must
glue to F(z - t): deltas, radii, the c_i and the M_i only see distances
and absolute values, and each bump factor h_i becomes h_i(z - t).  So the
plan is the same, and so is the certificate up to the translation: every
certified exponent, image ball and witness exponent is unchanged, and each
sample point moves by t.  Translated centers have denominators, sqrt p
parts and negative valuations, where the shift's tail bound is weakest.

Permuting the models permutes the plan and the certificate's balls and
leaves F unchanged: sum f_i h_i is symmetric, and the reduced form with a
monic denominator is unique.

The Galois conjugation sqrt p -> -sqrt p of every coefficient, center and
c_i glues to the conjugate of F, since it is a field automorphism that
keeps every valuation.  Every certified exponent is unchanged and the
images are conjugated.  The sample points are not: a shell at a
half-integral radius adds u p^k sqrt p whatever the sign of the center's
sqrt p part, so the witnesses are not compared.  The conjugated problems
are translated ones, so their centers have sqrt p parts.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import make_gluing_instance
from padicglue import (
    Ball,
    KElement,
    LocalModel,
    Poly,
    RationalMap,
    build_F,
    certify_theorem1,
    plan_gluing,
)

SEED = 20261018
PROBLEMS = 12


def translation(rng, p: int, kind: int) -> KElement:
    """t with a denominator prime to p, then with a sqrt p part as well,
    then with p in the denominator, so v(t) < 0 and the translated centers
    have negative valuation."""
    u = rng.choice([x for x in range(1, 4 * p) if x % p])
    v, w = rng.randint(1, 3 * p), rng.choice((7, 11, 13))
    return (
        KElement(p, Fraction(u, w)),
        KElement(p, Fraction(u, w), Fraction(v, w)),
        KElement(p, Fraction(u, p * w), Fraction(v, p)),
    )[kind]


def translated(f: RationalMap, t: KElement) -> RationalMap:
    # f(z - t): P.recenter(-t) is the polynomial Q with Q(z) = P(z - t)
    return RationalMap(f.num.recenter(-t), f.den.recenter(-t))


@pytest.mark.parametrize("index", range(PROBLEMS))
def test_translation_moves_F_and_keeps_the_certificate(index):
    rng = random.Random(f"{SEED}/translate/{index}")
    models, epsilon = make_gluing_instance(rng)
    p = models[0].domain.p
    t = translation(rng, p, index % 3)
    moved = [
        LocalModel(f=translated(m.f, t), domain=Ball(m.domain.center + t, m.domain.radius))
        for m in models
    ]
    plan = plan_gluing(models, epsilon)
    assert plan_gluing(moved, epsilon) == plan
    F = build_F(models, plan)
    G = build_F(moved, plan)
    assert G == translated(F, t)
    cert = certify_theorem1(F, models, plan, samples=4)
    assert cert.passes
    assert certify_theorem1(G, moved, plan, samples=4) == replace(cert, checks=tuple(
        replace(check, witnesses=tuple((z + t, w) for z, w in check.witnesses))
        for check in cert.checks
    ))


@pytest.mark.parametrize("index", range(PROBLEMS))
def test_permutation_keeps_F_and_permutes_the_certificate(index):
    rng = random.Random(f"{SEED}/permute/{index}")
    models, epsilon = make_gluing_instance(rng)
    order = list(range(len(models)))
    while order == sorted(order):
        rng.shuffle(order)
    moved = [models[k] for k in order]
    plan = plan_gluing(models, epsilon)
    moved_plan = plan_gluing(moved, epsilon)
    assert moved_plan == replace(plan, **{
        name: tuple(getattr(plan, name)[k] for k in order) for name in ("deltas", "s", "c", "M")
    })
    F = build_F(models, plan)
    assert build_F(moved, moved_plan) == F
    cert = certify_theorem1(F, models, plan, samples=4)
    assert cert.passes
    assert certify_theorem1(F, moved, moved_plan, samples=4) == replace(cert, checks=tuple(
        replace(cert.checks[k], index=i) for i, k in enumerate(order)
    ))


def conjugate(x):
    """The Galois conjugate sqrt p -> -sqrt p of a K element, polynomial,
    rational map or ball."""
    if isinstance(x, KElement):
        return KElement(x.p, x.a, -x.b)
    if isinstance(x, Poly):
        return Poly(x.p, [conjugate(c) for c in x.coeffs])
    if isinstance(x, RationalMap):
        return RationalMap(conjugate(x.num), conjugate(x.den))
    return Ball(conjugate(x.center), x.radius, x.closed)


@pytest.mark.parametrize("index", range(PROBLEMS))
def test_galois_conjugation_conjugates_F_and_keeps_the_exponents(index):
    rng = random.Random(f"{SEED}/conjugate/{index}")
    models, epsilon = make_gluing_instance(rng)
    p = models[0].domain.p
    t = translation(rng, p, 1 + index % 2)
    models = [
        LocalModel(f=translated(m.f, t), domain=Ball(m.domain.center + t, m.domain.radius))
        for m in models
    ]
    plan = plan_gluing(models, epsilon)
    moved = [LocalModel(f=conjugate(m.f), domain=conjugate(m.domain)) for m in models]
    moved_plan = plan_gluing(moved, epsilon, c_override=[conjugate(c) for c in plan.c])
    assert moved_plan == replace(plan, c=tuple(conjugate(c) for c in plan.c))
    F = build_F(models, plan)
    G = build_F(moved, moved_plan)
    assert G == conjugate(F)
    cert = certify_theorem1(F, models, plan, samples=4)
    assert cert.passes
    moved_cert = certify_theorem1(G, moved, moved_plan, samples=4)
    assert [len(check.witnesses) for check in moved_cert.checks] == [4] * len(models)
    assert replace(moved_cert, checks=tuple(
        replace(check, witnesses=()) for check in moved_cert.checks
    )) == replace(cert, checks=tuple(
        replace(check, image=conjugate(check.image), witnesses=()) for check in cert.checks
    ))
