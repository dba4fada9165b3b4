"""Shared generators for the randomized suites.

Instances are drawn from seeded random.Random streams so every run sees
the same cases.  Generated theorem instances keep all coefficients
p-integral, which certifies the boundedness hypothesis by construction.
"""

from fractions import Fraction
import random

import pytest

from padicglue import geometry
from padicglue import (
    Ball,
    FieldConfig,
    KElement,
    LocalModel,
    Poly,
    Radius,
    RationalMap,
    pairwise_deltas,
    uniformizer_power,
)


def make_gluing_instance(rng: random.Random):
    """One random gluing problem: p in {2,3,5}, 2-4 disjoint balls with
    integer centers below p^2, polynomial local maps of degree <= 3.

    Coefficients are integers, so every map sends every ball into the
    closed unit ball and the boundedness hypothesis holds."""
    p = rng.choice((2, 3, 5))
    n = rng.choice((2, 3, 4))
    K = FieldConfig(p)
    centers = rng.sample(range(p * p), n)
    deltas = pairwise_deltas([K(a) for a in centers])
    z = Poly.x(p)
    models = []
    for i, a in enumerate(centers):
        e_r = deltas[i].exp + rng.choice((1, 2))
        deg = rng.choice((1, 2, 3))
        g = [rng.randrange(0, p * p) for _ in range(deg + 1)]
        g[1] = rng.randrange(1, p * p)
        f = Poly.constant(p, g[0])
        pw = Poly.one(p)
        za = z - a
        for k in range(1, deg + 1):
            pw = pw * za
            f = f + pw * g[k]
        models.append(LocalModel(f=RationalMap(f), domain=Ball(K(a), Radius(e_r))))
    t_exps = [m.image.radius.exp for m in models]
    e_eps = max([Fraction(1)] + t_exps) + rng.choice((0, 1))
    return models, Radius(e_eps)


def shared_pole_problem():
    """Four balls over p = 3 whose maps all share the denominator
    3z^2 - 32z - 11 = (z - 11)(3z + 1), with epsilon 3^-6: the second draw
    of make_rational_instance(random.Random(20261017)) in
    test_certifier_differential.py.  Every term of the glued sum carries
    that factor, so the sum has a common factor of degree 6 to cancel."""
    K = FieldConfig(3)
    den = Poly(3, (-11, -32, 3))
    nums = ((840, -222, 15), (423, -186, 21), (69, -66, 15), (24, -3, 3))
    balls = ((8, 2), (5, 3), (3, 2), (1, 1))
    models = [
        LocalModel(f=RationalMap(Poly(3, g), den), domain=Ball(K(a), Radius(e)))
        for g, (a, e) in zip(nums, balls)
    ]
    return models, Radius(6)


def shell_points(center: KElement, exps, per_shell: int | None = None):
    """Exact points at prescribed distances: for each exponent e, the
    points center + u * pi^(2e) for units u, pi = sqrt(p)."""
    p = center.p
    out = []
    for e in exps:
        step = uniformizer_power(p, Fraction(e))
        count = per_shell if per_shell is not None else p - 1
        u, made = 0, 0
        while made < count:
            u += 1
            if u % p == 0:
                # p | u would push the point to a deeper shell
                continue
            out.append(center + step * u)
            made += 1
    return out


def spy_shifts(monkeypatch) -> list:
    """Record (P, a) for every Taylor shift started: each non-constant
    polynomial P rewritten in powers of (z - a) gets one `geometry._Prefix`,
    however many of its coefficients the scans go on to compute."""
    started, prefix = [], geometry._Prefix
    monkeypatch.setattr(geometry, "_Prefix", lambda P, a: started.append((P, a)) or prefix(P, a))
    return started


def spy(monkeypatch, owner, name: str) -> list:
    """Record (args, result) for every call of `owner.name` made through
    that binding.  Like perfbench's tracer, this rebinds a name, so patch
    the module whose code makes the calls: `spy(monkeypatch, gluing,
    "_values")` sees the certifier's evaluations and not the census's."""
    calls, fn = [], getattr(owner, name)

    def record(*args):
        result = fn(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, record)
    return calls


@pytest.fixture(scope="session")
def rng_factory():
    def make(seed: int) -> random.Random:
        return random.Random(seed)

    return make
