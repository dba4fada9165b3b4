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
from itertools import count
from math import inf

from .algebra import (
    RationalMap, _element, _mul, _point, _quotient, _sub, _values,
)
from .errors import HenselConditionError, PoleInBallError, _show
from .field import KElement, ValExp, _coords_mod, _int_val, _twice_val, reduce_mod
from .geometry import Ball, Expansions, image_of_ball, pairwise_deltas
from .gluing import check_c3_hypotheses, plan_gluing

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


@dataclass(frozen=True)
class Multiplier:
    """Derivative at a fixed point, tagged by |value| versus 1."""

    value: KElement
    kind: str


def multiplier(f: RationalMap, x) -> Multiplier:
    """Exact multiplier f'(x) at a verified fixed point x."""
    if not isinstance(x, KElement):
        x = KElement(f.p, x)
    fx = f.eval(x)
    if fx is None or fx != x:
        raise ValueError(f"{x} is not a fixed point")
    lam = f.derivative_at(x)
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


def classify_disk(F: RationalMap, U: Ball, expansions: Expansions | None = None) -> DiskBehavior:
    """Trichotomy for an open disk U.

    Attracting: F(U) a proper subdisk of U, or F(U) = U with wdeg >= 2.
    Repelling: F(U) a proper superdisk of U with wdeg(F, center, U) = 1.
    Indifferent (bijective): F(U) = U with wdeg 1; any fixed points are
    indifferent, and existence is certified iff |F'(center) - 1| = 1.
    Anything else (including F(U) disjoint from U) is inconclusive.
    F's expansion about U comes from `expansions` when given (they must be
    F's), so a disk about an already shifted center shifts nothing.
    """
    if U.closed:
        raise ValueError("classification requires an open disk")
    local = Expansions.of(F, expansions)(U)
    img = local.image  # raises PoleInBallError when F has a pole on U
    if img.disjoint_from(U):
        return DiskBehavior(kind=INCONCLUSIVE, image=img)
    if U.properly_contains(img):
        d = local.wdeg(img.center)
        return DiskBehavior(kind=ATTRACTING, image=img, wdeg=d)
    if img.same_set(U):
        d = local.wdeg(U.center)
        if d >= 2:
            return DiskBehavior(kind=ATTRACTING, image=img, wdeg=d)
        # local.image succeeded, so F has no pole on U and lam is a value
        lam = F.derivative_at(U.center)
        return DiskBehavior(
            kind=INDIFFERENT,
            image=img,
            wdeg=d,
            existence_certified=(lam - 1).valuation() == 0,
            derivative_at_center=lam,
        )
    if img.properly_contains(U):
        d = local.wdeg(U.center)
        if d == 1:
            return DiskBehavior(kind=REPELLING, image=img, wdeg=d)
        return DiskBehavior(kind=INCONCLUSIVE, image=img, wdeg=d)
    return DiskBehavior(kind=INCONCLUSIVE, image=img)


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

    One count triple per ball; every witness names a known kind and an
    existing ball, and is an open disk inside that ball; no two witness
    disks overlap.
    """
    n = len(models)
    if len(census.counts) != n:
        raise ValueError(f"census lists {len(census.counts)} count triples for {n} balls")
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


def verify_census(
    F: RationalMap, models, census: FixedPointCensus, expansions: Expansions | None = None,
) -> CensusReport:
    """Classify every witness disk and compare aggregated counts per ball.

    Structural problems (see validate_census) are caller errors and raise
    ValueError; classification mismatches are reported, never raised.  A
    witness disk that holds a pole of F is classified inconclusive.
    Indifferent witnesses additionally require certified existence and the
    exact indifferent-case hypothesis check; a ball whose center is not a
    fixed point of its local map fails that check.  Disks are expanded
    through `expansions` when given (see classify_disk).
    """
    models = list(models)
    validate_census(models, census)
    n = len(models)
    wresults = []
    got_counts = [[0, 0, 0] for _ in range(n)]
    for w in census.witnesses:
        try:
            behavior = classify_disk(F, w.disk, expansions=expansions)
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


def hensel_fixed_point(F: RationalMap, start, target_exp, max_iter: int = 64) -> KElement:
    """Newton refinement of a fixed point of F from a seed satisfying the
    Hensel condition v(G(start)) > 2 v(G'(start)) for G = F - z.

    Iterates z <- z - G(z)/G'(z) until v(G(z)) >= target_exp (checked by
    exact evaluation).  Each iterate steps on F itself: with z = X/w and
    the pairs n0, n1, q0, q1 of `algebra._values` (F(z) = n0/q0 and
    F'(z) = T/q0^2, T = n1 q0 - n0 q1), G(z) = g0/(w q0) with
    g0 = w n0 - X q0 and G'(z) = g1/q0^2 with g1 = T - q0^2, so the
    iterate is (X g1 - q0 g0)/(w g1).  Iterates are rounded to a generous
    p-adic working precision so coordinate heights stay bounded: the
    pairs X g1 - q0 g0 and g1 and the scale w go to `_round_quotient`,
    which forms the quotient from residues when the leading bits prove
    the iterate tall.  The final exactness check is unaffected by the
    rounding.
    """
    if not isinstance(start, KElement):
        start = KElement(F.p, start)
    target = ValExp(target_exp)
    if target.is_infinite:
        raise ValueError("target exponent must be finite")
    p = F.p
    # working precision: far above the target so rounding never disturbs
    # the valuations the iteration reasons about
    prec = target.t + 128 + F.degree

    z = start
    for k in count():
        *X, w = point = _point(p, z)
        n0, n1, q0, q1 = _values(F, point, True)
        if not any(q0):
            raise HenselConditionError(
                "seed point is a pole of the map" if k == 0 else "iteration stepped onto a pole"
            )
        g0 = _sub(_mul(p, (w, 0), n0), _mul(p, X, q0))
        # T - q0^2 = (n1 - q0) q0 - n0 q1
        g1 = _sub(_mul(p, _sub(n1, q0), q0), _mul(p, n0, q1))
        vq = _twice_val(p, q0)
        vg = ValExp.twice(_twice_val(p, g0) - 2 * _int_val(w, p) - vq if any(g0) else inf)
        if vg >= target:
            return z
        if not any(g1):
            raise HenselConditionError(
                "G' vanishes at the seed point" if k == 0 else "G' vanished during the iteration"
            )
        vgp = ValExp.twice(_twice_val(p, g1) - 2 * vq)
        if k == 0 and not vg > vgp * 2:
            raise HenselConditionError(
                f"Hensel condition fails at seed: v(G) = {vg}, v(G') = {vgp}"
            )
        if k >= max_iter:
            raise HenselConditionError(f"no convergence to exponent {target} in {max_iter} steps")
        z = _round_quotient(p, _sub(_mul(p, X, g1), _mul(p, q0, g0)), g1, w, prec)


def _round_point(z: KElement, prec: int) -> KElement:
    # skip tiny representatives; round only when heights grow
    h = max(
        z.a.numerator.bit_length(),
        z.a.denominator.bit_length(),
        z.b.numerator.bit_length(),
        z.b.denominator.bit_length(),
    )
    if h <= 8 * prec:
        return z
    return reduce_mod(z, prec)


def _provably_taller(h: int, den: int, *coords: int) -> bool:
    """True when some nonzero x in coords has |bitlen(x) - bitlen(den)| > h,
    for den != 0; then x/den in lowest terms has a numerator or denominator
    of more than h bits.

    g = gcd(x, den) divides both, so bitlen(g) <= min(bitlen(x), bitlen(den)).
    Since |x| >= 2^(bitlen(x) - 1) and g < 2^bitlen(g), |x/g| exceeds
    2^(bitlen(x) - bitlen(g) - 1), so x/g has at least bitlen(x) - bitlen(den)
    bits; likewise den/g has at least bitlen(den) - bitlen(x).
    """
    bd = den.bit_length()
    return any(x and abs(x.bit_length() - bd) > h for x in coords)


# leading bits of each factor that `_quotient_bits` keeps
_LEAD_BITS = 96


def _lead(x: int) -> tuple:
    """x as an interval (lo, hi, s) with lo 2^s <= x <= hi 2^s, from the
    leading _LEAD_BITS bits of x; exact (lo = hi = x, s = 0) for a short x."""
    s = max(x.bit_length() - _LEAD_BITS, 0)
    t = x >> s  # floor, for either sign
    return (t, t, 0) if not s else (t, t + 1, s)


def _lead_mul(x: tuple, y: tuple) -> tuple:
    (a, b, s), (c, d, t) = x, y
    ends = (a * c, a * d, b * c, b * d)
    return min(ends), max(ends), s + t


def _lead_sub(x: tuple, y: tuple) -> tuple:
    # both intervals are widened to the coarser scale, lo down and hi up
    (a, b, s), (c, d, t) = x, y
    u = max(s, t)
    a, b, c, d = a >> (u - s), -(-b >> (u - s)), c >> (u - t), -(-d >> (u - t))
    return a - d, b - c, u


def _lead_bitlen(x: tuple) -> tuple | None:
    """(lo, hi) with lo <= bitlen(v) <= hi for every v in the interval x,
    or None when x holds 0: then the truncation error could hide
    cancellation down to any size, zero included."""
    lo, hi, s = x
    if lo > 0:
        return lo.bit_length() + s, hi.bit_length() + s
    if hi < 0:
        return (-hi).bit_length() + s, (-lo).bit_length() + s
    return None


def _quotient_bits(p: int, num: tuple, den: tuple, scale: int) -> tuple:
    """Bounds on the bit lengths of xa, xb and d * scale for
    (xa, xb, d) = `_quotient(p, num, den)`, each a `_lead_bitlen` range
    or None, from the leading bits of the factors alone: xa = na da -
    p nb db, xb = nb da - na db and d = da^2 - p db^2 are never formed."""
    (na, nb), (da, db) = num, den
    na, nb, da, db, cp = _lead(na), _lead(nb), _lead(da), _lead(db), _lead(p)
    d = _lead_mul(_lead_sub(_lead_mul(da, da), _lead_mul(cp, _lead_mul(db, db))), _lead(scale))
    xa = _lead_sub(_lead_mul(na, da), _lead_mul(cp, _lead_mul(nb, db)))
    xb = _lead_sub(_lead_mul(nb, da), _lead_mul(na, db))
    return _lead_bitlen(xa), _lead_bitlen(xb), _lead_bitlen(d)


def _leading_bits_taller(h: int, p: int, num: tuple, den: tuple, scale: int) -> bool:
    """`_provably_taller(h, d * scale, xa, xb)` for (xa, xb, d) =
    `_quotient(p, num, den)`, proved from `_quotient_bits` alone.  False
    when the bounds cannot prove it, whatever the exact test would say."""
    *coords, bits_d = _quotient_bits(p, num, den, scale)
    if bits_d is None:
        return False
    lo_d, hi_d = bits_d
    return any(
        bits is not None and (bits[0] - hi_d > h or lo_d - bits[1] > h) for bits in coords
    )


def _round_quotient(p: int, num: tuple, den: tuple, scale: int, prec: int) -> KElement:
    """`_round_point` of the point num/(den scale), for Z[sqrt p] pairs
    num and den != (0, 0) and an integer scale != 0, in three tiers.

    The rule stays `_round_point`'s: round mod p^prec iff the reduced
    height exceeds H = 8 prec bits.  Rounding depends only on the value,
    so whenever the height is proved to exceed H the result is the residue
    `reduce_mod` gives for the reduced point.
    - Leading bits: when `_leading_bits_taller` proves the size test of
      `_provably_taller` for the quotient's integers xa, xb and
      d = (da^2 - p db^2) scale, every input is first reduced mod
      p^(prec + 2 vden), vden = v_p(d), which is all the residue reads
      (see `field._coords_mod`).  The two terms of da^2 - p db^2 have
      valuations of different parity, so vden = min(2 v(da), 2 v(db) + 1)
      + v(scale) needs no product.
    - Size test: otherwise the quotient is formed in full, and
      `_provably_taller` decides from its exact bit lengths.
    - gcd: otherwise the point is reduced and handed to `_round_point`.
    """
    h = 8 * prec
    if _leading_bits_taller(h, p, num, den, scale):
        vden = _twice_val(p, den) + _int_val(scale, p)
        m = p ** (prec + 2 * vden)
        (na, nb), (da, db) = num, den
        xa, xb, d = _quotient(p, (na % m, nb % m), (da % m, db % m))
        return KElement(p, *_coords_mod((xa, xb), d * (scale % m), vden, p, prec))
    xa, xb, d = _quotient(p, num, den)
    d *= scale
    if _provably_taller(h, d, xa, xb):
        return KElement(p, *_coords_mod((xa, xb), d, _int_val(d, p), p, prec))
    return _round_point(_element(p, xa, xb, d), prec)


@dataclass(frozen=True)
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
    each step.  A pole truncates the orbit with a marked entry.  Points are
    held at bounded height by rounding mod p^precision: each F(z) goes to
    `_round_quotient` as the pairs N(z), Q(z) of `algebra._values`, so a
    point that the leading bits prove tall is rounded from residues, and
    the full quotient is formed only otherwise.  A recorded valuation is
    exact only while it is below `precision`; `precision` must be an
    int >= 1.
    """
    if not isinstance(precision, int) or isinstance(precision, bool) or precision < 1:
        raise ValueError(f"orbit precision must be an integer >= 1, got {precision!r}")
    if not isinstance(z0, KElement):
        z0 = KElement(F.p, z0)
    if ref is not None and not isinstance(ref, KElement):
        ref = KElement(F.p, ref)
    out = [
        OrbitStep(
            k=0,
            point=z0,
            dist_exp=(z0 - ref).valuation() if ref is not None else None,
            step_exp=None,
        )
    ]
    z = z0
    for k in range(1, steps + 1):
        n0, _, q0, _ = _values(F, _point(F.p, z), False)
        if not any(q0):
            out.append(OrbitStep(k=k, point=None, dist_exp=None, step_exp=None))
            break
        nxt = _round_quotient(F.p, n0, q0, 1, precision)
        out.append(
            OrbitStep(
                k=k,
                point=nxt,
                dist_exp=(nxt - ref).valuation() if ref is not None else None,
                step_exp=(nxt - z).valuation(),
            )
        )
        z = nxt
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
