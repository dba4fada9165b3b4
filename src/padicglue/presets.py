"""Two built-in demonstration instances with known exact constants.

The first glues a pair of maps with a tunable multiplier at 0 and admits a
closed-form derivative there; the second glues three maps at centers 0, 3,
6 over p = 3 and reproduces exact image balls.  Both come with a fixed
point census and a JSON generator, so each reproduction is one command.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Poly, RationalMap
from .dynamics import (
    ATTRACTING,
    KIND_SLOT,
    REPELLING,
    FixedPointCensus,
    Witness,
    epsilon_for_census,
    multiplier,
    suggest_witness,
)
from .field import FieldConfig, KElement, ValExp
from .geometry import Ball
from .gluing import GluingPlan, LocalModel, _glued_sum

__all__ = [
    "EX2_EPSILON",
    "crossed_sum",
    "ex1_census",
    "ex1_derivative_closed_form",
    "ex1_epsilon",
    "ex1_models",
    "ex1_problem",
    "ex2_census",
    "ex2_models",
    "ex2_problem",
]

EX2_EPSILON = ValExp(3)


def ex1_models(alpha, beta) -> list:
    """p = 3: z -> alpha*z on B(0; 3^-2) and z -> beta*z*(z-3) + z on B(3; 3^-2).

    Both centers are fixed points of their local maps, with multipliers
    alpha and 3*beta + 1.
    """
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    K = FieldConfig(3)
    z = Poly.x(3)
    f1 = RationalMap(z * alpha)
    f2 = RationalMap(z * (z - 3) * beta + z)
    return [
        LocalModel(f=f1, domain=Ball(K(0), ValExp(2))),
        LocalModel(f=f2, domain=Ball(K(3), ValExp(2))),
    ]


def ex1_census(models) -> FixedPointCensus:
    """One witness per ball, at the local fixed points 0 and 3; expected
    kinds follow the local multipliers."""
    fixed_points = (KElement(3, 0), KElement(3, 3))
    counts = [[0, 0, 0], [0, 0, 0]]
    witnesses = []
    for i, fp in enumerate(fixed_points):
        kind = multiplier(models[i].f, fp).kind
        counts[i][KIND_SLOT[kind]] += 1
        witnesses.append(
            Witness(ball_index=i, disk=suggest_witness(models[i], fp, kind), expected=kind)
        )
    return FixedPointCensus(
        counts=tuple(tuple(c) for c in counts), witnesses=tuple(witnesses)
    )


def ex1_epsilon(models, census: FixedPointCensus) -> ValExp:
    return epsilon_for_census(models, census)


def ex1_derivative_closed_form(alpha, beta, plan: GluingPlan) -> KElement:
    """F'(0) = alpha + (1 - 3 beta) / (1 - (-3/c_2)^(M_2)), exactly in K."""
    K = FieldConfig(3)
    c2 = plan.c[1]
    M2 = plan.M[1]
    ratio = (K(-3) * c2.inverse()) ** M2
    return K(Fraction(alpha)) + K(1 - 3 * Fraction(beta)) * (K(1) - ratio).inverse()


def ex2_models() -> list:
    """p = 3, radius 3^-2 balls at 0, 3, 6 with maps 3z, (z+6)/3, z.

    Declared images are B(0; 3^-3), B(3; 3^-1), B(6; 3^-2)."""
    K = FieldConfig(3)
    z = Poly.x(3)
    return [
        LocalModel(
            f=RationalMap(z * 3),
            domain=Ball(K(0), ValExp(2)),
            declared_image=Ball(K(0), ValExp(3)),
        ),
        LocalModel(
            f=RationalMap(z * Fraction(1, 3) + 2),
            domain=Ball(K(3), ValExp(2)),
            declared_image=Ball(K(3), ValExp(1)),
        ),
        LocalModel(
            f=RationalMap(z),
            domain=Ball(K(6), ValExp(2)),
            declared_image=Ball(K(6), ValExp(2)),
        ),
    ]


def ex2_census(models) -> FixedPointCensus:
    """Attracting witness at 0, repelling witness at 3.  The third map is
    the identity on its ball: every point is fixed, none isolated, so that
    ball carries no witnesses and a zero count triple."""
    witnesses = (
        Witness(
            ball_index=0,
            disk=suggest_witness(models[0], KElement(3, 0), ATTRACTING),
            expected=ATTRACTING,
        ),
        Witness(
            ball_index=1,
            disk=suggest_witness(models[1], KElement(3, 3), REPELLING),
            expected=REPELLING,
        ),
    )
    return FixedPointCensus(
        counts=((1, 0, 0), (0, 1, 0), (0, 0, 0)), witnesses=witnesses
    )


def crossed_sum(models, plan: GluingPlan) -> RationalMap:
    """Deliberately mis-paired sum: each local map is multiplied by the
    bump factor of the NEXT ball.  Certification must reject it; it exists
    as a negative control for the example harness."""
    return _glued_sum(models, plan, 1)


def ex1_problem(alpha="3", beta="1/3") -> dict:
    from .serialize import problem_to_json

    models = ex1_models(alpha, beta)
    census = ex1_census(models)
    eps = ex1_epsilon(models, census)
    return problem_to_json(3, eps, models, census=census)


def ex2_problem() -> dict:
    from .serialize import problem_to_json

    models = ex2_models()
    census = ex2_census(models)
    return problem_to_json(
        3,
        EX2_EPSILON,
        models,
        census=census,
        orbits=[{"start": "9", "steps": 10, "ref": "0"}],
    )

