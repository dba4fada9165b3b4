"""JSON encoding of every exact object: problems, plans, maps, certificates.

All numbers are exact rational strings ("7/2", "-1", "inf"); no floats
anywhere.  Problem files are parsed strictly (rational ball centers,
integer radius exponents, named diagnostics); result files round-trip the
canonical in-memory forms exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm

from .algebra import Poly, RationalMap
from .dynamics import CensusReport, FixedPointCensus, Witness
from .errors import SpecFormatError
from .field import KElement, ValExp, is_prime
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


# -- scalars ------------------------------------------------------------------


def parse_rational(s, where: str) -> Fraction:
    """An exact rational from a JSON integer or a string such as '-1/3'."""
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise SpecFormatError(f"{where}: expected an exact rational string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"{where}: bad rational {s!r}") from exc


def _exp_from_json(s, where: str, integral: bool = False) -> ValExp:
    # a finite exponent e of p^(-e); integral=True narrows (1/2)Z to Z
    e = parse_rational(s, where)
    if integral and e.denominator != 1:
        raise SpecFormatError(f"{where}: must be an integer, got {e}")
    try:
        return ValExp(e)
    except ValueError as exc:
        raise SpecFormatError(f"{where}: {exc}") from exc


def _int_from_json(x, where: str) -> int:
    # counts and indices: a JSON float or bool is never silently truncated
    if not isinstance(x, int) or isinstance(x, bool):
        raise SpecFormatError(f"{where}: expected an integer, got {x!r}")
    return x


def _list_from_json(x, where: str) -> list:
    # every JSON array field; a scalar here would otherwise end in a TypeError
    if not isinstance(x, list):
        raise SpecFormatError(f"{where}: expected a list, got {x!r}")
    return x


def _prime_from_json(obj: dict, where: str) -> int:
    p = obj.get("prime")
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise SpecFormatError(f"{where}.prime: expected an integer prime, got {p!r}")
    return p


def valexp_to_json(v: ValExp) -> dict:
    return {"exp": str(v)}


def valexp_from_json(obj, where: str) -> ValExp:
    if not isinstance(obj, dict) or "exp" not in obj:
        raise SpecFormatError(f"{where}: expected an object with an 'exp' field")
    if obj["exp"] == "inf":
        return ValExp(None)
    return _exp_from_json(obj["exp"], where)


def kelement_to_json(x: KElement) -> dict:
    return {"a": str(x.a), "b": str(x.b)}


def kelement_from_json(obj, p: int, where: str, rational_only: bool = False) -> KElement:
    if isinstance(obj, (str, int)):
        # plain rational shorthand
        return KElement(p, parse_rational(obj, where))
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{where}: expected a field element object")
    a = parse_rational(obj.get("a", "0"), f"{where}.a")
    b = parse_rational(obj.get("b", "0"), f"{where}.b")
    if rational_only and b:
        raise SpecFormatError(f"{where}: must be rational (no sqrt part), got b = {b}")
    return KElement(p, a, b)


def parse_point(text: str, p: int) -> KElement:
    """Parse a command-line point: 'a' or 'a,b' with exact rationals."""
    parts = text.split(",")
    if len(parts) > 2:
        raise SpecFormatError(f"point {text!r}: expected 'a' or 'a,b'")
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
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{where}: expected a ball object")
    center = kelement_from_json(obj.get("center"), p, f"{where}.center", rational_only=strict)
    radius = _exp_from_json(obj.get("radius_exp"), f"{where}.radius_exp", integral=strict)
    kind = obj.get("kind", "closed")
    if kind not in ("closed", "open"):
        raise SpecFormatError(f"{where}.kind: expected 'closed' or 'open', got {kind!r}")
    return Ball(center, radius, closed=kind == "closed")


# -- algebra ------------------------------------------------------------------


def poly_to_json(P: Poly) -> list:
    return [kelement_to_json(c) for c in P.coeffs]


def poly_from_json(obj, p: int, where: str) -> Poly:
    if not isinstance(obj, list):
        raise SpecFormatError(f"{where}: expected a coefficient list")
    return Poly(p, [kelement_from_json(c, p, f"{where}[{k}]") for k, c in enumerate(obj)])


def ratmap_to_json(f: RationalMap) -> dict:
    # emit the integral coprime representative; parsing re-canonicalizes.
    # Each content is in lowest terms (a prime dividing every numerator
    # divides no reduced denominator), so the joint content of num and den
    # is the gcd of their numerators over the lcm of their denominators.
    cn, cd = f.num.content(), f.den.content()
    scale = Fraction(lcm(cn.denominator, cd.denominator), gcd(cn.numerator, cd.numerator))
    return {"num": poly_to_json(f.num * scale), "den": poly_to_json(f.den * scale)}


def ratmap_from_json(obj, p: int, where: str) -> RationalMap:
    if not isinstance(obj, dict) or "num" not in obj:
        raise SpecFormatError(f"{where}: expected an object with 'num' and 'den'")
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
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{where}: expected a plan object")

    def items(key):
        return _list_from_json(obj[key], f"{where}.{key}")

    try:
        deltas = tuple(_exp_from_json(d, f"{where}.delta_exps") for d in items("delta_exps"))
        ss = tuple(_exp_from_json(s, f"{where}.s_exps") for s in items("s_exps"))
        cs = tuple(kelement_from_json(c, p, f"{where}.c") for c in items("c"))
        Ms = tuple(_int_from_json(m, f"{where}.M") for m in items("M"))
        tau = _exp_from_json(obj["tau_exp"], f"{where}.tau_exp")
        epsilon = _exp_from_json(obj["epsilon_exp"], f"{where}.epsilon_exp")
    except KeyError as exc:
        raise SpecFormatError(f"{where}: missing plan field {exc}") from exc
    return GluingPlan(deltas=deltas, s=ss, c=cs, M=Ms, tau=tau, epsilon=epsilon)


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


def certificate_from_json(obj, p: int, where: str) -> Certificate:
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{where}: expected a certificate object")
    checks = []
    for k, ch in enumerate(_list_from_json(obj.get("balls", []), f"{where}.balls")):
        w = f"{where}.balls[{k}]"
        if not isinstance(ch, dict):
            raise SpecFormatError(f"{w}: expected a ball check object")
        try:
            witnesses = []
            for j, e in enumerate(_list_from_json(ch.get("witnesses", []), f"{w}.witnesses")):
                ww = f"{w}.witnesses[{j}]"
                if not isinstance(e, dict):
                    raise SpecFormatError(f"{ww}: expected a witness object")
                witnesses.append(
                    (
                        kelement_from_json(e["point"], p, f"{ww}.point"),
                        valexp_from_json(e["diff_exp"], f"{ww}.diff_exp"),
                    )
                )
            checks.append(
                BallCheck(
                    index=_int_from_json(ch["index"], f"{w}.index"),
                    pole_free_ok=bool(ch["pole_free_ok"]),
                    image_ok=bool(ch["image_ok"]),
                    image=ball_from_json(ch["image"], p, f"{w}.image") if ch.get("image") else None,
                    eps_bound_exp=valexp_from_json(ch["eps_bound_exp"], f"{w}.eps_bound_exp")
                    if ch.get("eps_bound_exp")
                    else None,
                    witnesses=tuple(witnesses),
                    samples_ok=bool(ch["samples_ok"]),
                )
            )
        except KeyError as exc:
            raise SpecFormatError(f"{w}: missing field {exc}") from exc
    deg = obj.get("degree", {})
    if not isinstance(deg, dict):
        raise SpecFormatError(f"{where}.degree: expected an object")
    return Certificate(
        checks=tuple(checks),
        epsilon=_exp_from_json(obj.get("epsilon_exp"), f"{where}.epsilon_exp"),
        degree_num=_int_from_json(deg.get("num", -1), f"{where}.degree.num"),
        degree_den=_int_from_json(deg.get("den", -1), f"{where}.degree.den"),
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


def census_from_json(obj, p: int, where: str, strict: bool = False) -> FixedPointCensus:
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{where}: expected a census object")
    counts = obj.get("counts")
    if not isinstance(counts, list):
        raise SpecFormatError(f"{where}.counts: expected a list of [n, m, l] triples")
    parsed_counts = []
    for i, c in enumerate(counts):
        if not (isinstance(c, list) and len(c) == 3 and all(isinstance(x, int) for x in c)):
            raise SpecFormatError(f"{where}.counts[{i}]: expected [n, m, l] integers")
        parsed_counts.append(tuple(c))
    witnesses = []
    for i, w in enumerate(obj.get("witnesses", [])):
        ww = f"{where}.witnesses[{i}]"
        if not isinstance(w, dict):
            raise SpecFormatError(f"{ww}: expected a witness object")
        witnesses.append(
            Witness(
                ball_index=_int_from_json(w.get("ball_index", -1), f"{ww}.ball_index"),
                disk=ball_from_json(w.get("disk"), p, f"{ww}.disk", strict=strict),
                expected=w.get("expected", ""),
            )
        )
    return FixedPointCensus(counts=tuple(parsed_counts), witnesses=tuple(witnesses))


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


def problem_to_json(p: int, epsilon: ValExp, models, delta_override=None, M_override=None,
                    c_override=None, census: FixedPointCensus | None = None,
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
    if delta_override is not None:
        out["delta_override"] = [str(d) for d in delta_override]
    if M_override is not None:
        out["M_override"] = list(M_override)
    if c_override is not None:
        out["c_override"] = [
            kelement_to_json(c) if c is not None else None for c in c_override
        ]
    if census is not None:
        out["census"] = census_to_json(census)
    if orbits is not None:
        out["orbits"] = orbits
    return out


def problem_from_json(obj) -> dict:
    """Strict parse of a problem document.

    Returns a dict with keys: p, epsilon, models, delta_override,
    M_override, census, orbits.  Raises SpecFormatError with the offending
    entry named.
    """
    if not isinstance(obj, dict):
        raise SpecFormatError("problem: expected a JSON object")
    p = _prime_from_json(obj, "problem")
    epsilon = _exp_from_json(obj.get("epsilon_exp"), "problem.epsilon_exp", integral=True)
    raw_models = obj.get("models")
    if not isinstance(raw_models, list) or not raw_models:
        raise SpecFormatError("problem.models: expected a non-empty list")
    models = []
    for i, m in enumerate(raw_models):
        where = f"problem.models[{i}]"
        if not isinstance(m, dict) or "map" not in m or "ball" not in m:
            raise SpecFormatError(f"{where}: expected an object with 'map' and 'ball'")
        f = ratmap_from_json(m["map"], p, f"{where}.map")
        ball = ball_from_json(m["ball"], p, f"{where}.ball", strict=True)
        image = (
            ball_from_json(m["image"], p, f"{where}.image", strict=True)
            if m.get("image") is not None
            else None
        )
        models.append(LocalModel(f=f, domain=ball, declared_image=image))
    delta_override = None
    if obj.get("delta_override") is not None:
        raw = obj["delta_override"]
        if not isinstance(raw, list):
            raise SpecFormatError("problem.delta_override: expected a list of exponents")
        delta_override = [
            _exp_from_json(d, f"problem.delta_override[{i}]", integral=True)
            for i, d in enumerate(raw)
        ]
    M_override = None
    if obj.get("M_override") is not None:
        raw = obj["M_override"]
        if not isinstance(raw, list) or not all(isinstance(x, (int, type(None))) for x in raw):
            raise SpecFormatError("problem.M_override: expected a list of integers")
        M_override = list(raw)
    c_override = None
    if obj.get("c_override") is not None:
        raw = obj["c_override"]
        if not isinstance(raw, list):
            raise SpecFormatError("problem.c_override: expected a list")
        c_override = [
            kelement_from_json(c, p, f"problem.c_override[{i}]") if c is not None else None
            for i, c in enumerate(raw)
        ]
    census = None
    if obj.get("census") is not None:
        census = census_from_json(obj["census"], p, "problem.census", strict=True)
    orbits = None
    if obj.get("orbits") is not None:
        raw = obj["orbits"]
        if not isinstance(raw, list):
            raise SpecFormatError("problem.orbits: expected a list")
        orbits = []
        for i, o in enumerate(raw):
            if not isinstance(o, dict) or "start" not in o:
                raise SpecFormatError(f"problem.orbits[{i}]: expected an object with 'start'")
            orbits.append(
                {
                    "start": kelement_from_json(o["start"], p, f"problem.orbits[{i}].start"),
                    "steps": _int_from_json(o.get("steps", 10), f"problem.orbits[{i}].steps"),
                    "ref": kelement_from_json(o["ref"], p, f"problem.orbits[{i}].ref")
                    if o.get("ref") is not None
                    else None,
                }
            )
    return {
        "p": p,
        "epsilon": epsilon,
        "models": models,
        "delta_override": delta_override,
        "M_override": M_override,
        "c_override": c_override,
        "census": census,
        "orbits": orbits,
    }


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
    """Lenient parse of a result document (glue output).

    Returns a dict with keys: p, epsilon, models, plan, F, certificate,
    census (optional).  Models are re-validated on construction.
    """
    if not isinstance(obj, dict):
        raise SpecFormatError("result: expected a JSON object")
    p = _prime_from_json(obj, "result")
    eps = _exp_from_json(obj.get("epsilon_exp"), "result.epsilon_exp")
    raw_models = obj.get("models")
    if not isinstance(raw_models, list) or not raw_models:
        raise SpecFormatError("result.models: expected a non-empty list")
    models = []
    for i, m in enumerate(raw_models):
        where = f"result.models[{i}]"
        if not isinstance(m, dict):
            raise SpecFormatError(f"{where}: expected a model object")
        f = ratmap_from_json(m.get("map"), p, f"{where}.map")
        ball = ball_from_json(m.get("ball"), p, f"{where}.ball")
        image = (
            ball_from_json(m["image"], p, f"{where}.image")
            if m.get("image") is not None
            else None
        )
        models.append(LocalModel(f=f, domain=ball, declared_image=image))
    if "plan" not in obj or "F" not in obj or "certificate" not in obj:
        raise SpecFormatError("result: missing plan, F, or certificate")
    plan = plan_from_json(obj["plan"], p, "result.plan")
    F = ratmap_from_json(obj["F"], p, "result.F")
    cert = certificate_from_json(obj["certificate"], p, "result.certificate")
    census = (
        census_from_json(obj["census"], p, "result.census") if obj.get("census") else None
    )
    return {
        "p": p,
        "epsilon": eps,
        "models": models,
        "plan": plan,
        "F": F,
        "certificate": cert,
        "census": census,
    }


# -- files ---------------------------------------------------------------------


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}: invalid JSON ({exc})") from exc


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
