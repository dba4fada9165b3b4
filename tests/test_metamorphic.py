"""Metamorphic relations on whole glues.

Translating every domain by t and every local map f_i to f_i(z - t) must
glue to F(z - t): deltas, radii, the c_i and the M_i only see distances
and absolute values, and each bump factor h_i becomes h_i(z - t).  So the
plan is the same, and so is the certificate up to the translation: every
certified exponent, image ball and witness exponent is unchanged, and each
sample point moves by t.  Translated centers have denominators, sqrt p
parts and negative valuations, where the shift's tail bound is weakest.
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
