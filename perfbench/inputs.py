"""Seeded input generators for the benchmark.

Every generated instance is addressed by a key such as ``suite/p3n2/7``
and built from ``random.Random(key)``, so the same key always gives the
same instance.  A run's ``--seed`` only chooses which keys it uses, which
keeps each instance's expected output digest storable in
``digests.json``.  The library receives only the generated models.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import padicglue as pg

# suite: random problems shaped like the acceptance suite, SUITE_POOL per
# (prime, ball count) stratum.  One cycle is the whole pool, which takes
# about 22 s at reference speed, so every run glues the same mix and the
# seed sets the order.
SUITE_PRIMES = (2, 3, 5)
SUITE_BALLS = (2, 3, 4)
SUITE_POOL = 8

# sweep: n linear maps on radius 23^-1 balls about distinct residues mod 23;
# epsilon 23^-2 forces M = 5 per ball, so deg F = (5n - 4, 5n)
SWEEP_PRIME = 23
SWEEP_LADDER = (5, 10, 20)
SWEEP_TINY_LADDER = (3, 5)
# the variants of one rung glue within a few percent of each other's time
SWEEP_VARIANTS = 3

# orbits: attracting, repelling and indifferent balls over several primes;
# an odd count keeps the median op inside one prime's ops
ORBIT_PRIMES = (3, 5, 7)
ORBIT_VARIANTS = 6
HENSEL_TARGET = 64  # v(F(z) - z) the refined fixed point must reach
ORBIT_STEPS = 30  # distances reach about 3 + ORBIT_STEPS, below HENSEL_TARGET
# orbit points are reduced mod p^ORBIT_PRECISION once taller than 8 times
# that many bits.  At the library default of 512 some orbits stay just
# under that threshold throughout and cost three times as much as others,
# so the op's cost would depend on which instance the seed drew.
ORBIT_PRECISION = 256


@dataclass(frozen=True)
class GlueInstance:
    key: str
    p: int
    models: tuple
    epsilon: pg.Radius


@dataclass(frozen=True)
class FixedPointInstance:
    key: str
    p: int
    models: tuple
    census: pg.FixedPointCensus
    attracting_center: pg.KElement
    orbit_start: pg.KElement


def suite_key(p: int, n: int, k: int) -> str:
    return f"suite/p{p}n{n}/{k}"


def sweep_key(n: int, v: int) -> str:
    return f"sweep/n{n}/{v}"


def orbit_key(p: int, v: int) -> str:
    return f"orbits/p{p}/{v}"


def _stratum(key: str, prefix: str) -> str:
    """The part of `key` between `prefix` and the instance index."""
    return key.rpartition("/")[0][len(prefix):]


def suite_instance(key: str) -> GlueInstance:
    """Polynomial maps of degree <= 3 with integer coefficients on 2-4
    disjoint balls about integer centers below p^2.

    Integer coefficients send every ball into the closed unit ball, so the
    boundedness hypothesis holds by construction."""
    stratum = _stratum(key, "suite/")
    p_text, n_text = stratum[1:].split("n")
    p, n = int(p_text), int(n_text)
    rng = random.Random(key)
    K = pg.FieldConfig(p)
    centers = rng.sample(range(p * p), n)
    deltas = pg.pairwise_deltas([K(a) for a in centers])
    z = pg.Poly.x(p)
    models = []
    for i, a in enumerate(centers):
        e_r = deltas[i].exp + rng.choice((1, 2))
        deg = rng.choice((1, 2, 3))
        g = [rng.randrange(0, p * p) for _ in range(deg + 1)]
        g[1] = rng.randrange(1, p * p)
        f = pg.Poly.constant(p, g[0])
        power = pg.Poly.one(p)
        for k in range(1, deg + 1):
            power = power * (z - a)
            f = f + power * g[k]
        models.append(pg.LocalModel(f=pg.RationalMap(f), domain=pg.Ball(K(a), pg.Radius(e_r))))
    t_exps = [m.image.radius.exp for m in models]
    e_eps = max([Fraction(1)] + t_exps) + rng.choice((0, 1))
    return GlueInstance(key=key, p=p, models=tuple(models), epsilon=pg.Radius(e_eps))


def sweep_instance(key: str) -> GlueInstance:
    """n maps z -> c + u (z - a) with unit slope u on B(a; 23^-1)."""
    stratum = _stratum(key, "sweep/")
    n = int(stratum[1:])
    p = SWEEP_PRIME
    rng = random.Random(key)
    K = pg.FieldConfig(p)
    z = pg.Poly.x(p)
    models = []
    for a in rng.sample(range(p), n):
        f = (z - a) * rng.randrange(1, p) + rng.randrange(p)
        models.append(pg.LocalModel(f=pg.RationalMap(f), domain=pg.Ball(K(a), pg.Radius(1))))
    return GlueInstance(key=key, p=p, models=tuple(models), epsilon=pg.Radius(2))


def fixed_point_instance(key: str) -> FixedPointInstance:
    """Three balls B(a; p^-2) about distinct multiples of p, carrying an
    attracting, a repelling and an indifferent fixed point at their
    centers, with the census that certifies them."""
    stratum = _stratum(key, "orbits/")
    p = int(stratum[1:])
    rng = random.Random(key)
    K = pg.FieldConfig(p)
    z = pg.Poly.x(p)
    a0, a1, a2 = rng.sample(range(0, p * p, p), 3)
    attracting = (z - a0) * (p * rng.randrange(1, p)) + (z - a0) * (z - a0) * rng.randrange(p) + a0
    repelling = (z - a1) * Fraction(rng.randrange(1, p), p) + a1
    # a unit u with |u - 1| = 1, so the center is an indifferent fixed point
    indifferent = (z - a2) * rng.randrange(2, p) + a2
    models = tuple(
        pg.LocalModel(f=pg.RationalMap(f), domain=pg.Ball(K(a), pg.Radius(2)))
        for f, a in ((attracting, a0), (repelling, a1), (indifferent, a2))
    )
    kinds = (pg.ATTRACTING, pg.REPELLING, pg.INDIFFERENT)
    witnesses = tuple(
        pg.Witness(ball_index=i, disk=pg.suggest_witness(m, m.center, kind), expected=kind)
        for i, (m, kind) in enumerate(zip(models, kinds))
    )
    census = pg.FixedPointCensus(counts=((1, 0, 0), (0, 1, 0), (0, 0, 1)), witnesses=witnesses)
    start = K(a0 + p**3 * rng.randrange(1, p))
    return FixedPointInstance(
        key=key, p=p, models=models, census=census, attracting_center=K(a0), orbit_start=start
    )


def suite_pool() -> list:
    return [
        suite_key(p, n, k) for p in SUITE_PRIMES for n in SUITE_BALLS for k in range(SUITE_POOL)
    ]


def sweep_pool() -> list:
    ns = sorted(set(SWEEP_LADDER) | set(SWEEP_TINY_LADDER))
    return [sweep_key(n, v) for n in ns for v in range(SWEEP_VARIANTS)]


def orbit_pool() -> list:
    return [orbit_key(p, v) for p in ORBIT_PRIMES for v in range(ORBIT_VARIANTS)]


def suite_keys(seed: int, tiny: bool = False) -> list:
    """The whole pool in seeded order (one instance per prime when tiny)."""
    rng = random.Random(f"suite-order/{seed}")
    if tiny:
        return [suite_key(p, 2, rng.randrange(SUITE_POOL)) for p in SUITE_PRIMES]
    return rng.sample(suite_pool(), len(suite_pool()))


def sweep_keys(seed: int, tiny: bool = False) -> list:
    """One seeded variant per rung of the ladder."""
    rng = random.Random(f"sweep-order/{seed}")
    ladder = SWEEP_TINY_LADDER if tiny else SWEEP_LADDER
    return [sweep_key(n, rng.randrange(SWEEP_VARIANTS)) for n in ladder]


def orbit_keys(seed: int, tiny: bool = False) -> list:
    rng = random.Random(f"orbit-order/{seed}")
    primes = ORBIT_PRIMES[:1] if tiny else ORBIT_PRIMES
    return [orbit_key(p, rng.randrange(ORBIT_VARIANTS)) for p in primes]


# ball counts of the suite instances the verify workload re-verifies; with
# the four preset files and one sweep file that makes an odd seven per cycle
VERIFY_SUITE_BALLS = (2, 4)


def verify_suite_candidates() -> list:
    """Suite instances the verify workload may re-verify: the first pool
    entry of each stratum it draws from, whose verify digests are stored."""
    return [suite_key(p, n, 0) for p in SUITE_PRIMES for n in VERIFY_SUITE_BALLS]


def verify_suite_keys(seed: int, tiny: bool = False) -> list:
    """One instance per ball count, its prime drawn by the seed, so every
    run verifies the same mix of sizes."""
    rng = random.Random(f"verify-order/{seed}")
    balls = VERIFY_SUITE_BALLS[:1] if tiny else VERIFY_SUITE_BALLS
    return [suite_key(rng.choice(SUITE_PRIMES), n, 0) for n in balls]


# deg F = (21, 25): between the suite's maps and the sweep's largest.  At
# n = 10 one verify would take most of a run's time.
VERIFY_SWEEP_N = SWEEP_LADDER[0]


def verify_sweep_key(seed: int) -> str:
    rng = random.Random(f"verify-sweep/{seed}")
    return sweep_key(VERIFY_SWEEP_N, rng.randrange(SWEEP_VARIANTS))
