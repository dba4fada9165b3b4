"""Reference evaluation for differential tests.

These are the `KElement` Horner loops that the integer kernel in
`padicglue.algebra` replaced: every step multiplies and adds two
`KElement`s, so every coordinate is reduced by a gcd at every step, and
`derivative_at` builds both derivative polynomials.  They are slow but
plainly faithful to the definitions, so the library's values must equal
theirs exactly.
"""

from padicglue import POLE, KElement


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
        return POLE
    return poly_eval(f.num, x) * d.inverse()


def derivative_at(f, x):
    if not isinstance(x, KElement):
        x = KElement(f.p, x)
    d = poly_eval(f.den, x)
    if d.is_zero:
        return POLE
    n = poly_eval(f.num, x)
    dn = poly_eval(f.num.derivative(), x)
    dd = poly_eval(f.den.derivative(), x)
    return (dn * d - n * dd) * (d * d).inverse()
