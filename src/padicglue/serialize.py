"""JSON encoding of every exact object: problems, plans, maps, certificates.

All numbers are exact rational strings ("7/2", "-1", "inf"); no floats
anywhere.  Problem and result documents share one strict reader: every
object must carry its required keys and no key outside its known set, and
the sections both documents hold (prime, epsilon, models, census) are read
under the problem rules (rational ball centers, integer ball and epsilon
exponents).  Every diagnostic names the offending entry.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm

from .algebra import Poly, RationalMap
from .dynamics import (
    ATTRACTING,
    INDIFFERENT,
    REPELLING,
    CensusReport,
    FixedPointCensus,
    Witness,
    validate_census,
)
# re-exported: the README names the echo limit serialize.SHOW_LIMIT too
from .errors import SHOW_LIMIT, LimitExceeded, SpecFormatError, _show
from .field import KElement, ValExp, _rational_str, is_prime
from .geometry import Ball
from .gluing import BallCheck, Certificate, GluingPlan, LocalModel

__all__ = [
    "ball_from_json",
    "ball_to_json",
    "census_from_json",
    "census_report_to_json",
    "census_to_json",
    "certificate_from_json",
    "certificate_to_json",
    "check_count",
    "kelement_from_json",
    "kelement_to_json",
    "orbit_to_json",
    "parse_point",
    "parse_rational",
    "plan_from_json",
    "plan_to_json",
    "poly_from_json",
    "poly_to_json",
    "problem_from_json",
    "problem_to_json",
    "ratmap_from_json",
    "ratmap_to_json",
    "read_json",
    "result_from_json",
    "result_to_json",
    "valexp_to_json",
    "write_json",
]

# is_prime is trial division: about 23,000 divisions just below this bound,
# hours for a prime near 2^61
PRIME_LIMIT = 2**31
# sample points per ball (glue, verify and example use 8 or 100) and orbit
# steps (the benchmark's orbits take 30); each costs one exact evaluation
SAMPLES_LIMIT = 10**4
STEPS_LIMIT = 10**4


# -- scalars ------------------------------------------------------------------


def parse_rational(s, where: str) -> Fraction:
    """An exact rational from a JSON integer or a string such as '-1/3'."""
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str):
        raise SpecFormatError(f"{where}: expected an exact rational string, got {_show(s)}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"{where}: bad rational {_show(s)}") from exc


def check_count(n: int, limit: int, where: str) -> int:
    """n itself when 0 <= n <= limit: a negative count is malformed, and a
    larger one asks for more work than the limit allows."""
    if n < 0:
        raise SpecFormatError(f"{where}: must not be negative, got {_show(n)}")
    if n > limit:
        raise LimitExceeded(f"{where}: {_show(n)} is above the limit of {limit}")
    return n


def _exp_from_json(s, where: str, integral: bool = False) -> ValExp:
    # a finite exponent e of p^(-e); integral=True narrows (1/2)Z to Z
    e = parse_rational(s, where)
    if integral and e.denominator != 1:
        raise SpecFormatError(f"{where}: must be an integer, got {_show(e)}")
    if e.denominator not in (1, 2):
        raise SpecFormatError(f"{where}: valuation exponent must lie in (1/2)Z, got {_show(e)}")
    return ValExp(e)


def _int_from_json(x, where: str) -> int:
    # counts and indices: a JSON float or bool is never silently truncated
    if type(x) is not int:
        raise SpecFormatError(f"{where}: expected an integer, got {_show(x)}")
    return x


def _bool_from_json(x, where: str) -> bool:
    if not isinstance(x, bool):
        raise SpecFormatError(f"{where}: expected true or false, got {_show(x)}")
    return x


def _list_from_json(x, where: str) -> list:
    # every JSON array field; a scalar here would otherwise end in a TypeError
    if not isinstance(x, list):
        raise SpecFormatError(f"{where}: expected a list, got {_show(x)}")
    return x


def _fields(obj, where: str, required, optional=()) -> dict:
    # every JSON object: all required keys present, no key outside the known set
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{where}: expected an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise SpecFormatError(f"{where}: unknown key {_show(unknown[0])}")
    if not all(k in obj for k in required):
        *rest, last = required
        names = f"{', '.join(rest)}, or {last}" if len(rest) > 1 else " or ".join(required)
        raise SpecFormatError(f"{where}: missing {names}")
    return obj


def _prime_from_json(p, where: str) -> int:
    if type(p) is int and p >= PRIME_LIMIT:
        raise SpecFormatError(f"{where}: must be below 2^31, got {_show(p)}")
    if type(p) is not int or not is_prime(p):
        raise SpecFormatError(f"{where}: expected an integer prime, got {_show(p)}")
    return p


def valexp_to_json(v: ValExp) -> dict:
    return {"exp": str(v)}


def valexp_from_json(obj, where: str) -> ValExp:
    obj = _fields(obj, where, ("exp",))
    if obj["exp"] == "inf":
        return ValExp(None)
    return _exp_from_json(obj["exp"], where)


def kelement_to_json(x: KElement) -> dict:
    return {"a": _rational_str(x.a), "b": _rational_str(x.b)}


def kelement_from_json(obj, p: int, where: str, rational_only: bool = False) -> KElement:
    if isinstance(obj, (str, int)):
        # plain rational shorthand
        return KElement(p, parse_rational(obj, where))
    obj = _fields(obj, where, ("a",), ("b",))
    a = parse_rational(obj["a"], f"{where}.a")
    b = parse_rational(obj.get("b", "0"), f"{where}.b")
    if rational_only and b:
        raise SpecFormatError(f"{where}: must be rational (no sqrt part), got b = {_show(b)}")
    return KElement(p, a, b)


def parse_point(text: str, p: int) -> KElement:
    """Parse a command-line point: 'a' or 'a,b' with exact rationals."""
    parts = text.split(",")
    if len(parts) > 2:
        raise SpecFormatError(f"point {_show(text)}: expected 'a' or 'a,b'")
    a = parse_rational(parts[0].strip(), "point")
    b = parse_rational(parts[1].strip(), "point") if len(parts) == 2 else Fraction(0)
    return KElement(p, a, b)


# -- geometry -----------------------------------------------------------------


def ball_to_json(B: Ball) -> dict:
    return {
        "center": kelement_to_json(B.center),
        "radius_exp": str(B.radius),
        "kind": B.kind,
    }


def ball_from_json(obj, p: int, where: str, strict: bool = False) -> Ball:
    obj = _fields(obj, where, ("center", "radius_exp"), ("kind",))
    center = kelement_from_json(obj["center"], p, f"{where}.center", rational_only=strict)
    radius = _exp_from_json(obj["radius_exp"], f"{where}.radius_exp", integral=strict)
    kind = obj.get("kind", "closed")
    if kind not in ("closed", "open"):
        raise SpecFormatError(f"{where}.kind: expected 'closed' or 'open', got {_show(kind)}")
    return Ball(center, radius, closed=kind == "closed")


# -- algebra ------------------------------------------------------------------


def poly_to_json(P: Poly) -> list:
    return [kelement_to_json(c) for c in P.coeffs]


def poly_from_json(obj, p: int, where: str) -> Poly:
    coeffs = _list_from_json(obj, where)
    return Poly(p, [kelement_from_json(c, p, f"{where}[{k}]") for k, c in enumerate(coeffs)])


def ratmap_to_json(f: RationalMap) -> dict:
    # emit the integral coprime representative; parsing re-canonicalizes.
    # Each content is in lowest terms (a prime dividing every numerator
    # divides no reduced denominator), so the joint content of num and den
    # is the gcd of their numerators over the lcm of their denominators.
    cn, cd = f.num.content(), f.den.content()
    scale = Fraction(lcm(cn.denominator, cd.denominator), gcd(cn.numerator, cd.numerator))
    return {"num": poly_to_json(f.num * scale), "den": poly_to_json(f.den * scale)}


def ratmap_from_json(obj, p: int, where: str) -> RationalMap:
    obj = _fields(obj, where, ("num",), ("den",))
    num = poly_from_json(obj["num"], p, f"{where}.num")
    den = poly_from_json(obj.get("den", [{"a": "1", "b": "0"}]), p, f"{where}.den")
    if den.is_zero:
        raise SpecFormatError(f"{where}.den: zero denominator")
    return RationalMap(num, den)


# -- gluing -------------------------------------------------------------------


def plan_to_json(plan: GluingPlan) -> dict:
    return {
        "delta_exps": [str(d) for d in plan.deltas],
        "s_exps": [str(s) for s in plan.s],
        "c": [kelement_to_json(c) for c in plan.c],
        "M": list(plan.M),
        "tau_exp": str(plan.tau),
        "epsilon_exp": str(plan.epsilon),
    }


def plan_from_json(obj, p: int, where: str) -> GluingPlan:
    obj = _fields(obj, where, ("delta_exps", "s_exps", "c", "M", "tau_exp", "epsilon_exp"))

    def items(key):
        return _list_from_json(obj[key], f"{where}.{key}")

    return GluingPlan(
        deltas=tuple(_exp_from_json(d, f"{where}.delta_exps") for d in items("delta_exps")),
        s=tuple(_exp_from_json(s, f"{where}.s_exps") for s in items("s_exps")),
        c=tuple(kelement_from_json(c, p, f"{where}.c") for c in items("c")),
        M=tuple(_int_from_json(m, f"{where}.M") for m in items("M")),
        tau=_exp_from_json(obj["tau_exp"], f"{where}.tau_exp"),
        epsilon=_exp_from_json(obj["epsilon_exp"], f"{where}.epsilon_exp"),
    )


def certificate_to_json(cert: Certificate) -> dict:
    balls = []
    for ch in cert.checks:
        balls.append(
            {
                "index": ch.index,
                "pole_free_ok": ch.pole_free_ok,
                "image_ok": ch.image_ok,
                "image": ball_to_json(ch.image) if ch.image is not None else None,
                "eps_bound_exp": valexp_to_json(ch.eps_bound_exp)
                if ch.eps_bound_exp is not None
                else None,
                "witnesses": [
                    {"point": kelement_to_json(z), "diff_exp": valexp_to_json(w)}
                    for z, w in ch.witnesses
                ],
                "samples_ok": ch.samples_ok,
            }
        )
    return {
        "passes": cert.passes,
        "epsilon_exp": str(cert.epsilon),
        "degree": {"num": cert.degree_num, "den": cert.degree_den},
        "balls": balls,
    }


def _ball_check_from_json(ch, p: int, w: str) -> BallCheck:
    ch = _fields(ch, w, ("index", "pole_free_ok", "image_ok", "image", "eps_bound_exp",
                         "witnesses", "samples_ok"))
    witnesses = []
    for j, e in enumerate(_list_from_json(ch["witnesses"], f"{w}.witnesses")):
        ww = f"{w}.witnesses[{j}]"
        e = _fields(e, ww, ("point", "diff_exp"))
        witnesses.append(
            (
                kelement_from_json(e["point"], p, f"{ww}.point"),
                valexp_from_json(e["diff_exp"], f"{ww}.diff_exp"),
            )
        )
    return BallCheck(
        index=_int_from_json(ch["index"], f"{w}.index"),
        pole_free_ok=_bool_from_json(ch["pole_free_ok"], f"{w}.pole_free_ok"),
        image_ok=_bool_from_json(ch["image_ok"], f"{w}.image_ok"),
        image=ball_from_json(ch["image"], p, f"{w}.image") if ch["image"] is not None else None,
        eps_bound_exp=valexp_from_json(ch["eps_bound_exp"], f"{w}.eps_bound_exp")
        if ch["eps_bound_exp"] is not None
        else None,
        witnesses=tuple(witnesses),
        samples_ok=_bool_from_json(ch["samples_ok"], f"{w}.samples_ok"),
    )


def certificate_from_json(obj, p: int, where: str) -> Certificate:
    obj = _fields(obj, where, ("passes", "epsilon_exp", "degree", "balls"))
    # the stored verdict is a claim; verify compares it with its own
    _bool_from_json(obj["passes"], f"{where}.passes")
    balls = _list_from_json(obj["balls"], f"{where}.balls")
    deg = _fields(obj["degree"], f"{where}.degree", ("num", "den"))
    return Certificate(
        checks=tuple(
            _ball_check_from_json(ch, p, f"{where}.balls[{k}]") for k, ch in enumerate(balls)
        ),
        epsilon=_exp_from_json(obj["epsilon_exp"], f"{where}.epsilon_exp"),
        degree_num=_int_from_json(deg["num"], f"{where}.degree.num"),
        degree_den=_int_from_json(deg["den"], f"{where}.degree.den"),
    )


# -- dynamics -----------------------------------------------------------------


def census_to_json(census: FixedPointCensus) -> dict:
    return {
        "counts": [list(c) for c in census.counts],
        "witnesses": [
            {
                "ball_index": w.ball_index,
                "disk": ball_to_json(w.disk),
                "expected": w.expected,
            }
            for w in census.witnesses
        ],
    }


def census_from_json(obj, p: int, where: str) -> FixedPointCensus:
    obj = _fields(obj, where, ("counts", "witnesses"))
    counts = []
    for i, c in enumerate(_list_from_json(obj["counts"], f"{where}.counts")):
        if not (isinstance(c, list) and len(c) == 3):
            raise SpecFormatError(f"{where}.counts[{i}]: expected [n, m, l] integers")
        counts.append(tuple(_int_from_json(x, f"{where}.counts[{i}]") for x in c))
    witnesses = []
    for i, w in enumerate(_list_from_json(obj["witnesses"], f"{where}.witnesses")):
        ww = f"{where}.witnesses[{i}]"
        w = _fields(w, ww, ("ball_index", "disk", "expected"))
        if w["expected"] not in (ATTRACTING, REPELLING, INDIFFERENT):
            raise SpecFormatError(f"{ww}.expected: unknown kind {_show(w['expected'])}")
        witnesses.append(
            Witness(
                ball_index=_int_from_json(w["ball_index"], f"{ww}.ball_index"),
                disk=ball_from_json(w["disk"], p, f"{ww}.disk", strict=True),
                expected=w["expected"],
            )
        )
    return FixedPointCensus(counts=tuple(counts), witnesses=tuple(witnesses))


def census_report_to_json(report: CensusReport) -> dict:
    return {
        "passes": report.passes,
        "witnesses": [
            {
                "ball_index": w.ball_index,
                "disk": ball_to_json(w.disk),
                "expected": w.expected,
                "got": w.got,
                "existence_certified": w.existence_certified,
                "c3_ok": w.c3_ok,
                "ok": w.ok,
            }
            for w in report.witnesses
        ],
        "counts": [
            {"index": c.index, "expected": list(c.expected), "got": list(c.got), "ok": c.ok}
            for c in report.counts
        ],
    }


def orbit_to_json(steps) -> list:
    out = []
    for s in steps:
        out.append(
            {
                "k": s.k,
                "point": kelement_to_json(s.point) if s.point is not None else None,
                "dist_exp": valexp_to_json(s.dist_exp) if s.dist_exp is not None else None,
                "step_exp": valexp_to_json(s.step_exp) if s.step_exp is not None else None,
                "pole": s.pole,
            }
        )
    return out


# -- problems and results ------------------------------------------------------


def problem_to_json(p: int, epsilon: ValExp, models, census: FixedPointCensus | None = None,
                    orbits=None) -> dict:
    out = {
        "prime": p,
        "epsilon_exp": str(epsilon),
        "models": [
            {
                "map": ratmap_to_json(m.f),
                "ball": ball_to_json(m.domain),
                **({"image": ball_to_json(m.declared_image)} if m.declared_image else {}),
            }
            for m in models
        ],
    }
    if census is not None:
        out["census"] = census_to_json(census)
    if orbits is not None:
        out["orbits"] = orbits
    return out


def _document(obj, where: str, required, optional) -> dict:
    """Check a document's keys, then read the sections problems and results
    share: prime, epsilon, models and census, under the problem rules."""
    obj = _fields(obj, where, required, optional + ("prime", "epsilon_exp", "models", "census"))
    p = _prime_from_json(obj.get("prime"), f"{where}.prime")
    epsilon = _exp_from_json(obj.get("epsilon_exp"), f"{where}.epsilon_exp", integral=True)
    raw_models = obj.get("models")
    if not isinstance(raw_models, list) or not raw_models:
        raise SpecFormatError(f"{where}.models: expected a non-empty list")
    models = []
    for i, m in enumerate(raw_models):
        w = f"{where}.models[{i}]"
        m = _fields(m, w, ("map", "ball"), ("image",))
        image = m.get("image")
        models.append(
            LocalModel(
                f=ratmap_from_json(m["map"], p, f"{w}.map"),
                domain=ball_from_json(m["ball"], p, f"{w}.ball", strict=True),
                declared_image=None
                if image is None
                else ball_from_json(image, p, f"{w}.image", strict=True),
            )
        )
    census = None
    if obj.get("census") is not None:
        census = census_from_json(obj["census"], p, f"{where}.census")
        try:
            validate_census(models, census)
        except ValueError as exc:
            raise SpecFormatError(f"{where}.census: census is malformed: {exc}") from exc
    return {"p": p, "epsilon": epsilon, "models": models, "census": census}


def _orbit_request_from_json(obj, p: int, where: str) -> dict:
    obj = _fields(obj, where, ("start",), ("steps", "ref"))
    ref = obj.get("ref")
    return {
        "start": kelement_from_json(obj["start"], p, f"{where}.start"),
        "steps": check_count(
            _int_from_json(obj.get("steps", 10), f"{where}.steps"), STEPS_LIMIT, f"{where}.steps"
        ),
        "ref": None if ref is None else kelement_from_json(ref, p, f"{where}.ref"),
    }


def problem_from_json(obj) -> dict:
    """Strict parse of a problem document.

    Returns a dict with keys: p, epsilon, models, delta_override,
    M_override, c_override, census, orbits.  Raises SpecFormatError with
    the offending entry named.
    """
    prob = _document(obj, "problem", (), ("delta_override", "M_override", "c_override", "orbits"))
    p = prob["p"]

    def entries(key, read):
        # an optional list section, null meaning absent; read(entry, where)
        raw = obj.get(key)
        if raw is None:
            return None
        return [read(x, f"problem.{key}[{i}]")
                for i, x in enumerate(_list_from_json(raw, f"problem.{key}"))]

    prob["delta_override"] = entries(
        "delta_override", lambda d, w: _exp_from_json(d, w, integral=True)
    )
    M_override = obj.get("M_override")
    if M_override is not None and not (
        isinstance(M_override, list) and all(m is None or type(m) is int for m in M_override)
    ):
        raise SpecFormatError("problem.M_override: expected a list of integers")
    prob["M_override"] = M_override
    prob["c_override"] = entries(
        "c_override", lambda c, w: None if c is None else kelement_from_json(c, p, w)
    )
    prob["orbits"] = entries("orbits", lambda o, w: _orbit_request_from_json(o, p, w))
    return prob


def result_to_json(p: int, epsilon: ValExp, models, plan: GluingPlan, F: RationalMap,
                   cert: Certificate, census: FixedPointCensus | None = None,
                   census_report: CensusReport | None = None, orbit_tables=None) -> dict:
    out = problem_to_json(p, epsilon, models)
    out["plan"] = plan_to_json(plan)
    out["F"] = ratmap_to_json(F)
    out["certificate"] = certificate_to_json(cert)
    if census is not None:
        out["census"] = census_to_json(census)
    if census_report is not None:
        out["census_report"] = census_report_to_json(census_report)
    if orbit_tables is not None:
        out["orbit_tables"] = orbit_tables
    return out


def result_from_json(obj) -> dict:
    """Strict parse of a result document (glue output).

    Returns a dict with keys: p, epsilon, models, census, plan, F,
    certificate, and stored_passes, the document's own verdict.  The
    census_report and orbit_tables sections are recomputed output and are
    not read.
    """
    res = _document(obj, "result", ("plan", "F", "certificate"), ("census_report", "orbit_tables"))
    p = res["p"]
    res["plan"] = plan_from_json(obj["plan"], p, "result.plan")
    res["F"] = ratmap_from_json(obj["F"], p, "result.F")
    res["certificate"] = certificate_from_json(obj["certificate"], p, "result.certificate")
    res["stored_passes"] = obj["certificate"]["passes"]
    return res


# -- files ---------------------------------------------------------------------


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors; nesting
        # deeper than the interpreter's recursion limit raises RecursionError
        raise SpecFormatError(f"{path}: invalid JSON ({exc})") from exc


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
