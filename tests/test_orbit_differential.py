"""Orbits against the loop they replaced.

`evaluation_oracle.orbit` evaluates each point with `F.eval`, which
reduces it to lowest terms, and then rounds it with `_round_point`.  The
library rounds each quotient N(z)/Q(z) in the two tiers of
`dynamics._step`: from N(z) and Q(z) mod p^K once the real embeddings
prove the point tall, else from the exact quotient, by one gcd that
decides the height rule (`dynamics._round_quotient`).  Both must record
the same `OrbitStep`s, with the same canonical point at every step, and
both tiers must round points at every precision of `PLAN`.
"""

import random
from fractions import Fraction

import pytest

import evaluation_oracle as oracle
from conftest import spy
from padicglue import FieldConfig, KElement, build_F, dynamics, field, orbit, plan_gluing
from padicglue.presets import EX2_EPSILON, ex1_census, ex1_epsilon, ex1_models, ex2_models
from test_hensel_differential import fixed_point_instance

# precision -> (steps, how many starts of each case; None for all).  The
# oracle reduces every point by gcd, which costs seconds per orbit once
# points may grow to 8 * 2048 bits before they are rounded.
PLAN = {16: (12, None), 64: (12, None), 256: (12, None), 512: (6, None), 2048: (4, 1)}


def _glued_examples():
    ex2 = ex2_models()
    ex1 = ex1_models(3, Fraction(1, 3))
    yield "ex2", build_F(ex2, plan_gluing(ex2, EX2_EPSILON)), 0, (9, KElement(3, Fraction(1, 2), 3))
    F = build_F(ex1, plan_gluing(ex1, ex1_epsilon(ex1, ex1_census(ex1))))
    yield "ex1", F, 0, (1, 3, KElement(3, 0, 1))


def _three_ball_examples():
    for p in (3, 5, 7):
        F, (a0, a1, a2) = fixed_point_instance(p)
        K = FieldConfig(p)
        rng = random.Random(f"orbit-differential/{p}")
        starts = (
            K(a0 + p * rng.randrange(1, p)),  # into the attracting fixed point
            K(a0, p * p * rng.randrange(1, p)),  # a sqrt p part inside the ball
            K(a1 + p**3 * rng.randrange(1, p)),  # away from the repelling one
            K(a2 + p**2, Fraction(p**3, rng.randrange(1, p))),
        )
        yield f"p{p}", F, K(a0), starts


CASES = [*_glued_examples(), *_three_ball_examples()]


@pytest.mark.parametrize("precision", sorted(PLAN))
def test_same_steps(monkeypatch, precision):
    embedding = spy(monkeypatch, dynamics, "_residue_step")
    # the exact tier rounds a point where it returns other than the
    # reduced quotient
    exact = spy(monkeypatch, dynamics, "_round_quotient")
    steps, n_starts = PLAN[precision]
    for name, F, ref, starts in CASES:
        for start in starts[:n_starts]:
            want = oracle.orbit(F, start, steps, ref=ref, precision=precision)
            assert orbit(F, start, steps, ref=ref, precision=precision) == want, (name, start)
    tiers = {
        "embedding": sum(out is not None for _, (out, _) in embedding),
        "gcd": sum(out != field._element(*args[:4]) for args, out in exact),
    }
    # every tier that orbits still use rounds points at every precision
    assert tiers["embedding"] and tiers["gcd"], tiers
