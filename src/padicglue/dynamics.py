"""Fixed-point analysis of glued maps: classification, refinement, orbits.

A disk's behavior under F is decided purely from exact data: the image of
the disk and the weighted degree of F over it.  Strict contraction or a
degree >= 2 surjection certifies a unique attracting fixed point; a
bijective expansion certifies a unique repelling one; a bijection of the
disk onto itself means any fixed points are indifferent, and existence is
additionally certified when |F'(center) - 1| = 1.

All radii in this module are powers of p, so image radii automatically lie
in the value group |C_v^x|; the surjectivity criteria need that.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from types import SimpleNamespace

from .algebra import Poly, RationalMap, _comb, _convolve, _poly, _values, _values_mod
from .errors import HenselConditionError, PoleInBallError, _show
from .field import (
    KElement, ValExp, _coords_mod, _element, _gap, _int_val, _point, _quotient, _twice_val,
    _twice_val_at_least, reduce_mod,
)
from .geometry import Ball, image_of_ball, pairwise_deltas, wdeg
from .gluing import plan_gluing

__all__ = [
    "ATTRACTING",
    "CensusReport",
    "CountResult",
    "DiskBehavior",
    "FixedPointCensus",
    "INCONCLUSIVE",
    "INDIFFERENT",
    "Multiplier",
    "OrbitStep",
    "REPELLING",
    "Witness",
    "WitnessResult",
    "check_c3_hypotheses",
    "classify_disk",
    "epsilon_for_census",
    "hensel_fixed_point",
    "multiplier",
    "orbit",
    "suggest_witness",
    "validate_census",
    "verify_census",
]

ATTRACTING = "attracting"
REPELLING = "repelling"
INDIFFERENT = "indifferent"
INCONCLUSIVE = "inconclusive"
# the kinds a witness may expect, in the order of a census count triple;
# a classification may also be inconclusive
KINDS = (ATTRACTING, REPELLING, INDIFFERENT)
KIND_SLOT = {kind: slot for slot, kind in enumerate(KINDS)}

# how many times suggest_witness shrinks a disk by p before giving up
MAX_SHRINK = 8
# how many Newton steps hensel_fixed_point takes before giving up
NEWTON_STEPS = 64


@dataclass(frozen=True)
class Multiplier:
    """Derivative at a fixed point, tagged by |value| versus 1."""

    value: KElement
    kind: str


def multiplier(f: RationalMap, x) -> Multiplier:
    """Exact multiplier f'(x) at a verified fixed point x."""
    if not isinstance(x, KElement):
        x = KElement(f.p, x)
    fx, lam = f._value_and_derivative(x)
    if fx is None or fx != x:
        raise ValueError(f"{x} is not a fixed point")
    v = lam.valuation()
    if v > 0:
        kind = ATTRACTING
    elif v < 0:
        kind = REPELLING
    else:
        kind = INDIFFERENT
    return Multiplier(value=lam, kind=kind)


@dataclass(frozen=True)
class DiskBehavior:
    """Classification of an open disk under F, with the evidence used."""

    kind: str
    image: Ball
    wdeg: int | None = None
    existence_certified: bool | None = None
    derivative_at_center: KElement | None = None


def classify_disk(F: RationalMap, U: Ball) -> DiskBehavior:
    """Trichotomy for an open disk U.

    Attracting: F(U) a proper subdisk of U, or F(U) = U with wdeg >= 2.
    Repelling: F(U) a proper superdisk of U with wdeg(F, center, U) = 1.
    Indifferent (bijective): F(U) = U with wdeg 1; any fixed points are
    indifferent, and existence is certified iff |F'(center) - 1| = 1.
    Anything else (including F(U) disjoint from U) is inconclusive.
    `image_of_ball` and `wdeg` read the shifts F keeps about U's center,
    so a disk about an already shifted center shifts nothing.
    """
    if U.closed:
        raise ValueError("classification requires an open disk")
    img = image_of_ball(F, U)  # raises PoleInBallError when F has a pole on U
    if img.disjoint_from(U):
        return DiskBehavior(kind=INCONCLUSIVE, image=img)
    if U.properly_contains(img):
        return DiskBehavior(kind=ATTRACTING, image=img, wdeg=wdeg(F, img.center, U))
    # disks that meet are nested, so F(U) = U or F(U) is a proper superdisk
    d = wdeg(F, U.center, U)
    if img.properly_contains(U):
        return DiskBehavior(kind=REPELLING if d == 1 else INCONCLUSIVE, image=img, wdeg=d)
    if d >= 2:
        return DiskBehavior(kind=ATTRACTING, image=img, wdeg=d)
    # the image exists, so F has no pole on U and lam is a value
    lam = F.derivative_at(U.center)
    return DiskBehavior(
        kind=INDIFFERENT,
        image=img,
        wdeg=d,
        existence_certified=(lam - 1).valuation() == 0,
        derivative_at_center=lam,
    )


@dataclass(frozen=True)
class Witness:
    """One disk expected to isolate one fixed point of a given kind."""

    ball_index: int
    disk: Ball
    expected: str


@dataclass(frozen=True)
class FixedPointCensus:
    """Expected counts (attracting, repelling, indifferent) per ball, with
    the witness disks that exhibit them."""

    counts: tuple
    witnesses: tuple


@dataclass(frozen=True)
class WitnessResult:
    ball_index: int
    disk: Ball
    expected: str
    got: str
    existence_certified: bool | None
    c3_ok: bool | None
    ok: bool


@dataclass(frozen=True)
class CountResult:
    index: int
    expected: tuple
    got: tuple
    ok: bool


@dataclass(frozen=True)
class CensusReport:
    witnesses: tuple
    counts: tuple
    passes: bool


def validate_census(models, census: FixedPointCensus) -> None:
    """Structural checks of a census against its models; raises ValueError.

    One count triple per ball, with no negative count; every witness
    names a known kind and an existing ball, and is an open disk inside
    that ball; no two witness disks overlap.
    """
    n = len(models)
    if len(census.counts) != n:
        raise ValueError(f"census lists {len(census.counts)} count triples for {n} balls")
    for i, counts in enumerate(census.counts):
        if min(counts) < 0:
            raise ValueError(f"census count triple {i} has a negative count, {_show(min(counts))}")
    wits = list(census.witnesses)
    for w in wits:
        if w.expected not in KINDS:
            raise ValueError(f"unknown expected kind {_show(w.expected)}")
        if not (0 <= w.ball_index < n):
            raise ValueError(f"witness ball index {_show(w.ball_index)} out of range")
        if w.disk.closed:
            raise ValueError("witness disks must be open")
        if not models[w.ball_index].domain.contains_ball(w.disk):
            raise ValueError(
                f"witness disk {_show(w.disk)} is not inside ball {w.ball_index}"
            )
    for i, wa in enumerate(wits):
        for wb in wits[i + 1:]:
            if not wa.disk.disjoint_from(wb.disk):
                raise ValueError(f"witness disks {_show(wa.disk)} and {_show(wb.disk)} overlap")


def check_c3_hypotheses(models, i: int) -> bool:
    """Exact check of the indifferent-case hypotheses at the center a_i.

    Requires a_i to be a fixed point of f_i (`multiplier` raises
    ValueError otherwise); returns the conjunction of: |f_i'(a_i)| = 1,
    |f_i'(a_i) - 1| = 1, and for every other index j,
    |f_j'(a_i)| < 1/min{t_1, ..., t_n}.
    """
    models = list(models)
    a = models[i].domain.center
    lam = multiplier(models[i].f, a)
    if lam.kind != INDIFFERENT or (lam.value - 1).valuation() != 0:
        return False
    # min over all model image radii; the bound is |f_j'(a_i)| < p^(max exp)
    max_t = max(m.image.radius for m in models)
    for j, mj in enumerate(models):
        if j != i:
            dj = mj.f.derivative_at(a)
            if dj is None or not dj.valuation() > -max_t:
                return False
    return True


def verify_census(F: RationalMap, models, census: FixedPointCensus) -> CensusReport:
    """Classify every witness disk and compare aggregated counts per ball.

    Structural problems (see validate_census) are caller errors and raise
    ValueError; classification mismatches are reported, never raised.  A
    witness disk that holds a pole of F is classified inconclusive.
    Indifferent witnesses additionally require certified existence and the
    exact indifferent-case hypothesis check; a ball whose center is not a
    fixed point of its local map fails that check.  Each witness asks
    `image_of_ball` and `wdeg` of F on its disk (see classify_disk); a
    disk about a center certify_theorem1 has shifted F about reuses that
    shift.
    """
    models = list(models)
    validate_census(models, census)
    n = len(models)
    wresults = []
    got_counts = [[0, 0, 0] for _ in range(n)]
    for w in census.witnesses:
        try:
            behavior = classify_disk(F, w.disk)
        except PoleInBallError:
            behavior = None
        got = INCONCLUSIVE if behavior is None else behavior.kind
        ok = got == w.expected
        c3_ok = None
        if w.expected == INDIFFERENT:
            try:
                c3_ok = check_c3_hypotheses(models, w.ball_index)
            except ValueError:
                # the center is not a fixed point of its local map
                c3_ok = False
            ok = ok and behavior.existence_certified is True and c3_ok
        if got in KIND_SLOT:
            got_counts[w.ball_index][KIND_SLOT[got]] += 1
        wresults.append(
            WitnessResult(
                ball_index=w.ball_index,
                disk=w.disk,
                expected=w.expected,
                got=got,
                existence_certified=None if behavior is None else behavior.existence_certified,
                c3_ok=c3_ok,
                ok=ok,
            )
        )

    cresults = []
    for i in range(n):
        expected = tuple(int(x) for x in census.counts[i])
        got = tuple(got_counts[i])
        cresults.append(CountResult(index=i, expected=expected, got=got, ok=expected == got))

    passes = all(w.ok for w in wresults) and all(c.ok for c in cresults)
    return CensusReport(witnesses=tuple(wresults), counts=tuple(cresults), passes=passes)


def hensel_fixed_point(F: RationalMap, start, target_exp) -> KElement:
    """Newton refinement of a fixed point of F from a seed satisfying the
    Hensel condition v(G(start)) > 2 v(G'(start)) for G = F - z.

    Iterates z <- z - G(z)/G'(z) until v(G(z)) >= target_exp.  At the
    seed the test reads the map exactly: G(z) = F(z) - z and
    G'(z) = F'(z) - 1 from one pass (`RationalMap._value_and_derivative`).
    After the seed, `_residue_test` decides it from N(z) and Q(z) mod p^K
    only, and F(z) is evaluated exactly again only where Q(z) = 0 mod
    p^K.  Each iterate is a `_step` of Newton's map (`_newton_map`),
    rounded as `orbit` rounds, at a working precision far above the
    target.  Q(z) != 0 is checked first, so a step meets a pole exactly
    where G' vanishes.  `target_exp` is a finite exponent in (1/2)Z; at
    most NEWTON_STEPS steps are taken.
    """
    named = isinstance(target_exp, (bool, str)) or target_exp is None
    try:
        target = None if named else ValExp(target_exp)
    except (TypeError, ValueError, OverflowError):
        target = None
    if target is None:
        raise ValueError(
            f"hensel_fixed_point target_exp must be an exponent in (1/2)Z, got {target_exp!r}"
        )
    if target.is_infinite:
        raise ValueError("target exponent must be finite")
    if not isinstance(start, KElement):
        start = KElement(F.p, start)
    p = F.p
    # working precision: far above the target so rounding never disturbs
    # the valuations the iteration reasons about
    prec = target.t + 128 + F.degree

    fz, dF = F._value_and_derivative(start)
    if fz is None:
        raise HenselConditionError("seed point is a pole of the map")
    vg = (fz - start).valuation()
    if vg >= target:
        return start
    dg = dF - 1
    if dg.is_zero:
        raise HenselConditionError("G' vanishes at the seed point")
    vgp = dg.valuation()
    if not vg > vgp * 2:
        raise HenselConditionError(f"Hensel condition fails at seed: v(G) = {vg}, v(G') = {vgp}")
    newton = _newton_map(F)
    taller = _embedding_prover(newton, 8 * prec)
    # guesses of the moduli of the next Newton step and the next test
    K, test = prec, (target.t + 1) // 2
    point = _point(p, start)
    for _ in range(NEWTON_STEPS):
        z, K = _step(newton, point, taller, K, prec)
        if z is None:
            raise HenselConditionError("G' vanished during the iteration")
        point = _point(p, z)
        done, test = _residue_test(F, point, target.t, test)
        if done is None:
            fz = F.eval(z)
            if fz is None:
                raise HenselConditionError("iteration stepped onto a pole")
            done = (fz - z).valuation() >= target
        if done:
            return z
    raise HenselConditionError(f"no convergence to exponent {target} in {NEWTON_STEPS} steps")


def _newton_map(F: RationalMap) -> SimpleNamespace:
    """Newton's map z - G/G' of G = F - z, for F = N/Q, as the unreduced
    (z W - N Q)/(W - Q^2), W = N'Q - N Q', so that W - Q^2 = Q^2 G'; with
    N = a/Dn, Q = b/Dd over their stored pairs, times Dn Dd^2 that is
    Dd (z c - a b) over Dd c - Dn b^2, c = a'b - a b'.  No gcd is taken:
    where Q(z) != 0 the denominator vanishes exactly where G' does.  For
    m = deg Q > deg N = n the degrees are at most n + m over 2m, which
    `_embedding_prover` covers.  Like a map, it has num, den and p."""
    p = F.p
    (dn, a), (dd, b) = (F.num.D, F.num.pairs), (F.den.D, F.den.pairs)
    da, db = ([(k * x, k * y) for k, (x, y) in enumerate(xs)][1:] for xs in (a, b))
    c = _comb(1, _convolve(p, da, b), -1, _convolve(p, a, db))
    num = _comb(dd, [(0, 0), *c], -dd, _convolve(p, a, b))
    den = _comb(dd, c, -dn, _convolve(p, b, b))
    num, den = _poly(p, 1, num), _poly(p, 1, den)
    return SimpleNamespace(p=p, num=num, den=den)


def _round_point(z: KElement, prec: int) -> KElement:
    # skip tiny representatives; round only when heights grow
    h = max(x.bit_length() for c in (z.a, z.b) for x in (c.numerator, c.denominator))
    return z if h <= 8 * prec else reduce_mod(z, prec)


def _quotient_digits(p: int, num: tuple, tq: int, prec: int) -> int:
    """The K for which num and den mod p^K decide num/den mod p^prec, for
    Z[sqrt p] pairs, den != 0, given tq = 2 v(den) (`_twice_val`, which the
    caller reads once and passes on to `_round_residues`):
    prec + ceil(2 v(den) - min(v(num), v(den))).
    If num' and den' agree with them mod p^K, K > v(den), then v(den') =
    v(den) and num/den - num'/den' = (num (den' - den) - (num' - num) den)
    /(den den') has valuation at least K + min(v(num), v(den)) - 2 v(den)
    >= prec, so both coordinates agree mod p^prec.  The valuations may be
    read off residues mod p^K with den' != 0; num' = 0 counts as v(num) >=
    v(den), which then holds."""
    tn = _twice_val(p, num) if any(num) else tq
    return prec + tq - min(tn, tq) // 2


def _round_residues(p: int, num: tuple, den: tuple, tq: int, prec: int) -> KElement:
    """`reduce_mod(num/den, prec)` for Z[sqrt p] pairs known mod p^K, K >=
    `_quotient_digits(p, num, tq, prec)`, den != 0 mod p^K, tq = 2 v(den):
    the quotient of the residues is congruent mod p^prec, and `_coords_mod`
    rounds it with vden = v_p(d) = tq, d the norm of den."""
    xa, xb, d = _quotient(p, num, den)
    return KElement(p, *_coords_mod((xa, xb), d, tq, p, prec))


def _real_bits(p: int, a: int, b: int) -> tuple:
    """(lo, hi) with 2^lo <= |a + b sqrt p| < 2^hi for integers (a, b) !=
    (0, 0), sqrt p > 0 (pass -b for the conjugate).  m = |a| + |b|
    (isqrt(p) + 1) bounds both conjugates, whose product is the norm; when
    a b >= 0, also |a + b sqrt p| >= max(|a|, |b|)."""
    m = abs(a) + abs(b) * (isqrt(p) + 1)
    lo = (a * a - p * b * b).bit_length() - 1 - m.bit_length()
    if a * b >= 0:
        lo = max(lo, max(abs(a), abs(b)).bit_length() - 1)
    return lo, m.bit_length()


def _top_term_bits(p: int, P: Poly, s: int) -> tuple:
    """(lo, hi, g) for P = (1/D) sum c_k z^k (`Poly.pairs`), deg P = n
    >= 0, under sqrt p -> s sqrt p: at real x, w >= 1 with |x| >= 2^(g + 1) w,
    T = sum c_k x^k w^(n - k) has 2^lo |x|^n < |T| < 2^hi |x|^n.  If 2^a <=
    |c_n| < 2^b, |c_k| < 2^hi_k and g (n - k) >= hi_k - a + 1 for k < n, term
    k is below 2^-(n - k + 1) |c_n x^n|: T is within a factor 2 of c_n x^n."""
    *rest, (ca, cb) = P.pairs
    a, b = _real_bits(p, ca, s * cb)
    his = [(k, _real_bits(p, x, s * y)[1]) for k, (x, y) in enumerate(rest) if x or y]
    return a - 1, b + 1, max((-((a - 1 - hk) // (len(rest) - k)) for k, hk in his), default=0)


def _embedding_prover(F, h: int):
    """A test of `_point` triples (u, v, w), X = u + v sqrt p, True only if
    F(X/w) has a reduced height above h bits or N(X/w) = 0; None unless
    deg Q > deg N.  F = N/Q is a `RationalMap` or a `_newton_map`; only
    F.num and F.den are read, and they need not be coprime.  For (xa, xb,
    d) = `_quotient(p, n0, q0)`, n0 and q0 of `_values`, the real
    embeddings s+- (sqrt p -> +-sqrt p) give d = s+(q0) s-(q0) and
    xa +- xb sqrt p = s+-(n0) s-+(q0), so |xa|, |xb| <= max(|s+(n0) s-(q0)|,
    |s-(n0) s+(q0)|).  s(q0) = Dn T_Q and s(n0) = Dd w^(m - n) T_N for the
    sums T of `_top_term_bits` at s(X), m = deg Q, n = deg N.  If bitlen(d)
    provably exceeds bitlen(x) by more than h, x != 0, then d/gcd(x, d) has
    over h bits, as gcd(x, d) <= |x| < 2^bitlen(x), |d| >= 2^(bitlen(d) - 1)."""
    p, n, m = F.p, F.num.degree, F.den.degree
    if not m > n >= 0:
        return None
    dn, dd = F.num.D.bit_length(), F.den.D.bit_length()
    tops = [(_top_term_bits(p, F.num, s), _top_term_bits(p, F.den, s)) for s in (1, -1)]

    def taller(u: int, v: int, w: int) -> bool:
        if not (u or v):
            return False
        wb, lo_d, his = w.bit_length(), 1, []
        for s, ((_, hi_n, g_n), (lo_q, hi_q, g_q)) in zip((1, -1), tops):
            x_lo, x_hi = _real_bits(p, u, s * v)
            if x_lo - wb - 1 < max(g_n, g_q):
                return False
            # bitlen(d) >= lo_d once both are in; |s(n0)|, |s(q0)| < 2^his
            lo_d += dn - 1 + lo_q + m * x_lo
            his.append((dd + wb * (m - n) + hi_n + n * x_hi, dn + hi_q + m * x_hi))
        (n_p, q_p), (n_m, q_m) = his
        return lo_d - max(n_p + q_m, n_m + q_p) > h

    return taller


def _residues(F, point: tuple, K: int, digits) -> tuple | None:
    """(n0, q0, tq, k): n0 and q0 of `algebra._values` at `point` mod p^K
    (`algebra._values_mod`), for the guess K (at least 1), and tq = 2 v(q0),
    read once per pass, redone at k = digits(n0, tq) while that is larger.
    k is read off the residues, so the caller keeps it as its next guess;
    None where q0 = 0 mod p^K, since no valuation of Q(z) can be read
    there."""
    K = max(K, 1)
    while True:
        n0, q0 = _values_mod(F, point, F.p**K)
        if not any(q0):
            return None
        tq = _twice_val(F.p, q0)
        k = digits(n0, tq)
        if k <= K:
            return n0, q0, tq, k
        K = k


def _residue_test(F, point: tuple, t: int, K: int) -> tuple:
    """(whether 2 v(G(z)) >= t, K') for G = F - z at the `_point` triple
    (u, v, w) of z, X = u + v sqrt p, from N(z) and Q(z) mod p^K' only.
    With G(z) = g0/(w q0), g0 = w n0 - X q0 (`algebra._values`), the test
    is 2 v(g0) >= r, r = t + 2 v(w) + 2 v(q0), which g0 mod p^ceil(r/2)
    decides (`field._twice_val_at_least`), so K' = ceil(r/2) (`_residues`,
    from the guess K).  (None, K) where Q(z) = 0 mod p^K."""
    p = F.p
    tw = t + 2 * _int_val(point[2], p)
    found = _residues(F, point, K, lambda n0, tq: (tw + tq + 1) // 2)
    if found is None:
        return None, K
    n0, q0, tq, K = found
    return _twice_val_at_least(p, n0, q0, point, tw + tq), K


def _residue_step(F, point: tuple, K: int, prec: int) -> tuple:
    """(F(point) rounded mod p^prec, K') for a point proved tall, from n0
    and q0 mod p^K' only, K' = `_quotient_digits` (`_residues`, starting
    from the guess K); (None, K) if q0 or n0 is 0 mod p^K'."""
    p = F.p
    found = _residues(F, point, K, lambda n0, tq: _quotient_digits(p, n0, tq, prec))
    if found is None:
        return None, K
    n0, q0, tq, K = found
    return (_round_residues(p, n0, q0, tq, prec) if any(n0) else None), K


def _step(F, point: tuple, taller, K: int, prec: int) -> tuple:
    """(F(x) rounded as `_round_point` rounds the reduced F(x), K) at the
    `_point` triple of x, or (None, K) at a pole: from residues when
    `taller` (`_embedding_prover` of F, or None) proves F(x) tall, else
    exactly and by gcd.  K guesses the modulus of the residue pass, and the
    K returned, `_quotient_digits` of this step, guesses the next."""
    if taller is not None and taller(*point):
        nxt, K = _residue_step(F, point, K, prec)
        if nxt is not None:
            return nxt, K
    p = F.p
    n0, _, q0, _ = _values(F, point, False)
    if not any(q0):
        return None, K
    z = _round_point(_element(p, *_quotient(p, n0, q0)), prec)
    return z, _quotient_digits(p, n0, _twice_val(p, q0), prec)


@dataclass(frozen=True, slots=True)
class OrbitStep:
    """One orbit entry: the point, distance to the reference (when given),
    and the size of the step from the previous point."""

    k: int
    point: KElement | None
    dist_exp: ValExp | None
    step_exp: ValExp | None

    @property
    def pole(self) -> bool:
        """The orbit stopped on a pole: this entry has no point."""
        return self.point is None


def orbit(F: RationalMap, z0, steps: int, ref=None, precision: int = 512) -> list:
    """Pointwise iteration z_{k+1} = F(z_k), never symbolic composition.

    Records v(z_k - ref) when a reference point is supplied and the size of
    each step, both from the `_point` triples of the points.  A pole
    truncates the orbit with a marked entry.  Points are rounded mod
    p^precision as `_round_point` rounds the reduced F(z), by `_step`: when
    the real embeddings prove F(z) tall, N(z) and Q(z) are formed only mod
    p^K, K = `_quotient_digits`; else they are exact and the quotient is
    reduced by gcd.  `hensel_fixed_point` steps the same way.  A recorded
    valuation is exact only below `precision`, an int >= 1; `steps` is an
    int >= 0.
    """
    for name, n, least in (("steps", steps, 0), ("precision", precision, 1)):
        if not isinstance(n, int) or isinstance(n, bool) or n < least:
            raise ValueError(f"orbit {name} must be an integer >= {least}, got {n!r}")
    p = F.p
    if not isinstance(z0, KElement):
        z0 = KElement(p, z0)
    at = _point(p, ref) if ref is not None else None

    def dist(x: tuple) -> ValExp | None:
        return None if at is None else _gap(p, x, at)

    point = _point(p, z0)
    out = [OrbitStep(0, z0, dist(point), None)]
    taller = _embedding_prover(F, 8 * precision)
    K = precision
    for k in range(1, steps + 1):
        nxt, K = _step(F, point, taller, K, precision)
        if nxt is None:
            out.append(OrbitStep(k=k, point=None, dist_exp=None, step_exp=None))
            break
        prev, point = point, _point(p, nxt)
        out.append(OrbitStep(k, nxt, dist(point), _gap(p, point, prev)))
    return out


def suggest_witness(model, fixed_point, expected: str) -> Ball:
    """Smallest-shrink open witness disk around a fixed point of the LOCAL
    map whose local classification matches the expected kind.

    Starts from the open disk with the domain's radius and shrinks by p,
    at most MAX_SHRINK times, until classify_disk(f, disk) returns the
    expected kind.
    """
    if not isinstance(fixed_point, KElement):
        fixed_point = KElement(model.domain.p, fixed_point)
    if not model.domain.contains_point(fixed_point):
        raise ValueError("fixed point lies outside the model domain")
    for j in range(MAX_SHRINK + 1):
        disk = Ball(fixed_point, model.domain.radius + j, closed=False)
        try:
            behavior = classify_disk(model.f, disk)
        except PoleInBallError:
            continue
        if behavior.kind == expected:
            return disk
    raise ValueError(
        f"no witness disk within {MAX_SHRINK} shrinks classifies as {expected}"
    )


def epsilon_for_census(models, census: FixedPointCensus) -> ValExp:
    """Tolerance small enough that gluing preserves every witness's kind.

    Needs epsilon below each witness's local image radius; indifferent
    witnesses additionally need epsilon below every separation delta and
    below the witness radius, with all plan exponents M >= 2.
    """
    models = list(models)
    exps = [m.image.radius for m in models]
    has_indifferent = False
    for w in census.witnesses:
        exps.append(image_of_ball(models[w.ball_index].f, w.disk).radius)
        if w.expected == INDIFFERENT:
            has_indifferent = True
            exps.append(w.disk.radius)
    if has_indifferent:
        exps.extend(pairwise_deltas([m.domain.center for m in models]))
    e = max(exps) + 1
    while has_indifferent:
        plan = plan_gluing(models, e)
        if all(M >= 2 for M in plan.M):
            break
        e += 1
    return e
