"""Reference evaluation for differential tests.

These are the `KElement` Horner loops that the integer kernel in
`padicglue.algebra` replaced: every step multiplies and adds two
`KElement`s, so every coordinate is reduced by a gcd at every step, and
`derivative_at` builds both derivative polynomials.  They are slow but
plainly faithful to the definitions, so the library's values must equal
theirs exactly.  The same holds for the Newton loop of
`hensel_fixed_point`, kept here as it was before each iterate became an
orbit step of Newton's map (`newton_step` is one step of that loop,
unrounded), for the loop of `orbit`, kept here as it was before each
point was rounded straight from the integers of its quotient, and for
`newton_map`, Newton's map as it was built from four products.
"""

from math import ceil
from types import SimpleNamespace

from padicglue import HenselConditionError, KElement, OrbitStep, Poly, RationalMap, ValExp
from padicglue.algebra import _comb, _convolve, _poly
from padicglue.dynamics import _round_point


def poly_eval(P, x):
    if not isinstance(x, KElement):
        x = KElement(P.p, x)
    acc = KElement(P.p)
    for c in reversed(P.coeffs):
        acc = acc * x + c
    return acc


def ratmap_eval(f, x):
    if not isinstance(x, KElement):
        x = KElement(f.p, x)
    d = poly_eval(f.den, x)
    if d.is_zero:
        return None
    return poly_eval(f.num, x) * d.inverse()


def derivative_at(f, x):
    if not isinstance(x, KElement):
        x = KElement(f.p, x)
    d = poly_eval(f.den, x)
    if d.is_zero:
        return None
    n = poly_eval(f.num, x)
    # the coefficients k*c_k of each derivative, spelled out
    dn, dd = (poly_eval(Poly(f.p, [k * c for k, c in enumerate(P.coeffs)][1:]), x)
              for P in (f.num, f.den))
    return (dn * d - n * dd) * (d * d).inverse()


def newton_step(F, x):
    """x - G(x) G'(x)^(-1) for G = F - z, by the loops above; None where G'
    vanishes.  x must not be a pole of F."""
    if not isinstance(x, KElement):
        x = KElement(F.p, x)
    G = RationalMap(F.num - F.den * Poly.x(F.p), F.den)
    gpx = derivative_at(G, x)
    return None if gpx.is_zero else x - ratmap_eval(G, x) * gpx.inverse()


def newton_map(F):
    """Newton's map as `dynamics._newton_map` built it from four products:
    (z W - N Q)/(W - Q^2), W = N'Q - N Q', over the stored pairs a of N
    and b of Q as Dd (z c - a b) over Dd c - Dn b^2, c = a'b - a b'."""
    p = F.p
    (dn, a), (dd, b) = (F.num.D, F.num.pairs), (F.den.D, F.den.pairs)
    da, db = ([(k * x, k * y) for k, (x, y) in enumerate(xs)][1:] for xs in (a, b))
    c = _comb(1, _convolve(p, da, b), -1, _convolve(p, a, db))
    num = _comb(dd, [(0, 0), *c], -dd, _convolve(p, a, b))
    den = _comb(dd, c, -dn, _convolve(p, b, b))
    return SimpleNamespace(p=p, num=_poly(p, 1, num), den=_poly(p, 1, den))


def hensel_fixed_point(F, start, target_exp, max_iter=64):
    """The Newton loop that `padicglue.hensel_fixed_point` replaced: each
    iterate evaluates G = F - z and G' as `KElement`s and steps by
    z - G(z) G'(z)^(-1) in `KElement` arithmetic, rounding as the library
    does.  Errors carry the library's messages."""
    if not isinstance(start, KElement):
        start = KElement(F.p, start)
    target = ValExp(target_exp)
    if target.is_infinite:
        raise ValueError("target exponent must be finite")
    G = RationalMap(F.num - F.den * Poly.x(F.p), F.den)

    z = start
    gz = G.eval(z)
    if not isinstance(gz, KElement):
        raise HenselConditionError("seed point is a pole of the map")
    if gz.valuation() >= target:
        return z
    gpz = G.derivative_at(z)
    if not isinstance(gpz, KElement) or gpz.is_zero:
        raise HenselConditionError("G' vanishes at the seed point")
    if not gz.valuation() > gpz.valuation() * 2:
        raise HenselConditionError(
            f"Hensel condition fails at seed: v(G) = {gz.valuation()}, v(G') = {gpz.valuation()}"
        )
    # rounding at p^prec moves G by p^(prec + v(G')): 2 target when v(G')
    # >= -target, else target - v(G'), then the same margin
    prec = max(int(2 * target.exp), ceil(target.exp - gpz.valuation().exp)) + 128 + F.degree
    for _ in range(max_iter):
        z = _round_point(z - gz * gpz.inverse(), prec)
        gz = G.eval(z)
        if not isinstance(gz, KElement):
            raise HenselConditionError("iteration stepped onto a pole")
        if gz.valuation() >= target:
            return z
        gpz = G.derivative_at(z)
        if not isinstance(gpz, KElement) or gpz.is_zero:
            raise HenselConditionError("G' vanished during the iteration")
    raise HenselConditionError(f"no convergence to exponent {target} in {max_iter} steps")


def orbit(F, z0, steps, ref=None, precision=512):
    """The loop that `padicglue.orbit` replaced: each point is F.eval of
    the last, a reduced `KElement`, then `_round_point`."""
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
        nxt = F.eval(z)
        if not isinstance(nxt, KElement):
            out.append(OrbitStep(k=k, point=None, dist_exp=None, step_exp=None))
            break
        nxt = _round_point(nxt, precision)
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
