"""The lazy Taylor shift against the eager one.

`algebra._Prefix` yields the coefficients of a polynomial in powers of
(z - a) one synthetic-division pass at a time and bounds the rest by the
ultrametric inequality; `geometry._Diff` carries those bounds through the
three combinations the `geometry` functions scan; `algebra._min_plus` stops
reading a source once no coefficient still to come can reach the minimum.
Every scan must return exactly what a full scan of the eager shift
`certifier_oracle.recenter` returns, and the prefix a certificate
computes is pinned.  `Poly.recenter` forces a `_Prefix`, so it is no
reference for one.
"""

import math
import random
from fractions import Fraction

import pytest

from certifier_oracle import recenter
from padicglue import (
    Ball,
    FieldConfig,
    KElement,
    LocalModel,
    Poly,
    Radius,
    RationalMap,
    build_F,
    certify_theorem1,
    count_roots_with_min_valuation,
    gauss_norm_exp,
    plan_gluing,
)
from padicglue.algebra import _min_plus, _Prefix, _shifted
from padicglue.geometry import _Diff
from padicglue.presets import EX2_EPSILON, ex2_models

SEED = 20261018
RADII = [Fraction(e, 2) for e in range(-3, 5)]  # integral and half-integral
CENTERS = ("zero", "integer", "denominator", "sqrt p", "negative valuation")


def full_scan(P: Poly, e: Fraction, from_k: int) -> tuple:
    """(m, first, last) of 2 v(c_k) + 2k*e over every nonzero coefficient
    of index >= from_k, read one after another with no bound; m is
    math.inf when there is no such coefficient."""
    m, first, last = math.inf, None, None
    for k in range(from_k, len(P.coeffs)):
        c = P.coeffs[k]
        if c.is_zero:
            continue
        t = 2 * (c.valuation().exp + k * e)
        if t < m:
            m, first, last = t, k, k
        elif t == m:
            last = k
    return m, first, last


def element(rng, p: int) -> KElement:
    """Zero about a third of the time, else a K element whose coordinates
    carry powers of p in numerator or denominator and a sqrt p part half
    the time."""
    if rng.random() < 0.3:
        return KElement(p)

    def coord():
        return Fraction(rng.randint(-p * p, p * p) * p ** rng.randint(0, 3), p ** rng.randint(0, 2))

    return KElement(p, coord(), coord() if rng.random() < 0.5 else 0)


def poly(rng, p: int, degree: int) -> Poly:
    coeffs = [element(rng, p) for _ in range(degree)]
    lead = element(rng, p)
    return Poly(p, coeffs + [lead if not lead.is_zero else KElement(p, 1)])


def center(rng, p: int, kind: str) -> KElement:
    """A shift center of the given kind: a = (u + v sqrt p)/w with w > 1
    for "denominator", v != 0 for "sqrt p", and p | w for "negative
    valuation", which makes v(a) < 0."""
    u = rng.choice([x for x in range(1, 4 * p) if x % p])
    v, w = rng.randint(1, 3 * p), rng.choice((7, 11, 13))
    return {
        "zero": KElement(p),
        "integer": KElement(p, u),
        "denominator": KElement(p, Fraction(u, w)),
        "sqrt p": KElement(p, Fraction(u, w), Fraction(v, w)),
        "negative valuation": KElement(p, Fraction(u, p * w), Fraction(v, p ** 2)),
    }[kind]


def lazy_and_eager(rng, p: int, a: KElement) -> list:
    """(name, lazy source, eager Poly) for a shifted polynomial and the three
    combinations the `geometry` functions scan, built as they build them:
    the image numerator Nr*Dr[0] - Dr*Nr[0], the sup-norm numerator
    Nr*dr - nr*Dr against a second map n/d, and Nr - b*Dr for wdeg."""
    N, D = poly(rng, p, rng.randint(0, 9)), poly(rng, p, rng.randint(0, 9))
    n, d = poly(rng, p, rng.randint(0, 3)), poly(rng, p, rng.randint(0, 3))
    b = element(rng, p)
    LN, LD, Ln, Ld = (_Prefix(P, a) for P in (N, D, n, d))
    Nr, Dr, nr, dr = (recenter(P, a) for P in (N, D, n, d))
    na, da = Nr.coeff(0), Dr.coeff(0)
    const = lambda c: Poly.constant(p, c)  # noqa: E731
    return [
        ("shift", LN, Nr),
        ("image", _Diff(LN, const(LD.coeff(0)), LD, const(LN.coeff(0))), Nr * da - Dr * na),
        ("sup norm", _Diff(LN, Ld, Ln, LD), Nr * dr - nr * Dr),
        ("wdeg", _Diff(LN, Poly.one(p), LD, const(b)), Nr - Dr * b),
    ]


@pytest.mark.parametrize("kind", CENTERS)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_lazy_scans_equal_full_scans_of_the_eager_shift(p, kind):
    rng = random.Random(f"{SEED}/{p}/{kind}")
    for _ in range(8):
        a = center(rng, p, kind)
        for name, lazy, eager in lazy_and_eager(rng, p, a):
            # every bound holds, exact for a coefficient known to vanish too
            assert len(lazy.bounds) >= len(eager.coeffs), name
            for k, c in enumerate(eager.coeffs):
                assert c.is_zero or lazy.bounds[k] <= 2 * c.valuation().exp, (name, k)
            for e in RADII:
                for from_k in (0, 1):
                    want = full_scan(eager, e, from_k)
                    assert _min_plus(eager, e, from_k) == want, (name, e, from_k)
                    assert _min_plus(lazy, e, from_k) == want, (name, str(a), e, from_k)
            # the entry points: an open ball counts the first index, a closed
            # one the last; the Gauss norm is the minimum
            e = RADII[-1]
            m, first, last = full_scan(eager, e, 0)
            assert gauss_norm_exp(lazy, e).t == m
            if not eager.is_zero:
                for strict, want in ((True, first), (False, last)):
                    assert count_roots_with_min_valuation(lazy, e, strict) == want


def test_prefix_stops_early_and_continues_where_it_stopped():
    p, a = 3, KElement(3, 1)
    P = Poly(3, [KElement(3, 3**k) for k in range(20)])
    lazy = _Prefix(P, a)
    assert _min_plus(lazy, 0) == _min_plus(recenter(P, a), 0)
    assert lazy._done == 1  # v(c'_k) >= k, and c'_0 = P(1) is a unit
    assert [lazy.coeff(k) for k in range(20)] == list(recenter(P, a).coeffs)
    assert lazy.coeff(20).is_zero
    assert _Prefix(Poly.zero(p), a).bounds == []


def test_zero_source_has_no_roots_to_count():
    lazy = _Diff(_Prefix(Poly.one(3), KElement(3, 1)), Poly.zero(3), Poly.zero(3), Poly.one(3))
    with pytest.raises(ValueError, match="zero polynomial"):
        count_roots_with_min_valuation(lazy, 0, strict=False)


def sweep_models(p: int = 23, n: int = 5) -> list:
    """n maps z -> c + u (z - a) with unit slope u on B(a; p^-1) about
    distinct residues a mod p, the shape of the benchmark's sweep."""
    rng = random.Random(f"{SEED}/sweep")
    K, z = FieldConfig(p), Poly.x(p)
    return [
        LocalModel(f=RationalMap((z - a) * rng.randrange(1, p) + rng.randrange(p)),
                   domain=Ball(K(a), Radius(1)))
        for a in rng.sample(range(p), n)
    ]


def prefix_lengths(models, epsilon, spy_shifts) -> list:
    """(center, deg F.num + 1, coefficients of F.num computed, deg F.den + 1,
    coefficients of F.den computed) for each ball, after certification,
    which starts one shift of each about every center."""
    plan = plan_gluing(models, epsilon)
    F = build_F(models, plan)
    started = spy_shifts()
    assert certify_theorem1(F, models, plan).passes
    out = []
    for m in models:
        a = m.domain.center
        for P in (F.num, F.den):
            assert [b for Q, b in started if Q is P and b == a] == [a]
        num, den = _shifted(F.num, a), _shifted(F.den, a)
        out.append((str(a), len(F.num.coeffs), num._done, len(F.den.coeffs), den._done))
    return out


class TestPrefixLengths:
    """The number of shifted coefficients certification computes per shift
    of F, pinned: shifting every coefficient again fails these."""

    def test_ex2(self, spy_shifts):
        # deg F = (15, 21): of 16 and 22 coefficients, 2, 9 and 7 of each
        assert prefix_lengths(ex2_models(), EX2_EPSILON, spy_shifts) == [
            ("0", 16, 2, 22, 2), ("3", 16, 9, 22, 9), ("6", 16, 7, 22, 7),
        ]

    def test_sweep_shaped_glue(self, spy_shifts):
        # deg F = (21, 25): of 22 and 26 coefficients, 6 of each
        assert prefix_lengths(sweep_models(), Radius(2), spy_shifts) == [
            (a, 22, 6, 26, 6) for a in ("1", "22", "4", "16", "19")
        ]
