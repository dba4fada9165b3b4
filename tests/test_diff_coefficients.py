"""`geometry._Diff.val` on integer triples against the sum in K.

`_Diff.val(k)` sums coefficient k of A*B - C*D on `_point` triples over
one running denominator; `certifier_oracle.diff_val` forms every product
in K.  The seeded factors are Polys and lazy shifts whose coefficients
carry different denominators and sqrt p parts, in pairs of unequal length
so that one side has no product at some k, and every fifth case is
A*B - B*A, which cancels exactly and must read math.inf.
"""

import math
import random
from fractions import Fraction

import pytest

import certifier_oracle as oracle
from padicglue import KElement, Poly
from padicglue.algebra import _Prefix
from padicglue.geometry import _Diff, _products, _triple

SEED = 20261021
CASES = 80


def element(rng, p: int) -> KElement:
    """Zero a fifth of the time, else coordinates over 1, p, p^2 or a
    denominator prime to p, with a sqrt p part half the time."""
    if rng.random() < 0.2:
        return KElement(p)

    def coord():
        return Fraction(rng.randint(-3 * p, 3 * p) * p ** rng.randint(0, 2),
                        rng.choice((1, p, p * p, 7, 5 * p)))

    return KElement(p, coord(), coord() if rng.random() < 0.5 else 0)


def center(rng, p: int) -> KElement:
    return rng.choice((KElement(p), KElement(p, rng.randint(1, 9)),
                       KElement(p, Fraction(rng.randint(1, 9), 7), Fraction(1, p))))


def factor(rng, p: int, a: KElement):
    """A Poly of degree 0 to 5, or its lazy shift about a."""
    lead = element(rng, p)
    P = Poly(p, [element(rng, p) for _ in range(rng.randint(0, 5))]
             + [KElement(p, 1) if lead.is_zero else lead])
    return P if rng.random() < 0.5 else _Prefix(P, a)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_triple_sums_equal_k_sums(p):
    rng = random.Random(f"{SEED}/{p}")
    seen = set()
    for index in range(CASES):
        a = center(rng, p)
        A, B = factor(rng, p, a), factor(rng, p, a)
        C, D = (B, A) if index % 5 == 0 else (factor(rng, p, a), factor(rng, p, a))
        g = _Diff(A, B, C, D)
        for k in range(len(g.bounds)):
            got = g.val(k)
            assert got == oracle.diff_val(A, B, C, D, k), (index, k)
            assert got == math.inf or got >= g.bounds[k]
            terms = [(_triple(X, i), _triple(Y, k - i))
                     for X, Y in ((A, B), (C, D)) for i in _products(X, Y, k)]
            seen.add((got == math.inf, not _products(A, B, k), not _products(C, D, k),
                      len({x[2] * y[2] for x, y in terms}) > 1,
                      any(x[1] and y[1] for x, y in terms),
                      isinstance(A, Poly), isinstance(A, _Prefix)))
    # exact cancellation; either side with no product at k; products over
    # different denominators in one sum; a product of two sqrt p parts;
    # Poly and lazy-shift factors
    for i in range(7):
        assert any(s[i] for s in seen), i
