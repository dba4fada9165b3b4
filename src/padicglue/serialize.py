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
import re
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .algebra import Poly, RationalMap
from .dynamics import (
    INCONCLUSIVE,
    KINDS,
    CensusReport,
    CountResult,
    FixedPointCensus,
    Witness,
    WitnessResult,
    validate_census,
)
from .errors import LimitExceeded, SpecFormatError, _show
from .field import KElement, ValExp, _check_prime, _rational_str, is_prime
from .geometry import Ball
from .gluing import BallCheck, Certificate, GluingPlan, LocalModel

__all__ = [
    "ball_from_json",
    "ball_to_json",
    "census_from_json",
    "census_report_from_json",
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
# sample points per ball (8 or 100 in use), each one exact evaluation, and
# orbit steps per run or problem file (30 in use), each one evaluation of F
SAMPLES_LIMIT = 10**3
STEPS_LIMIT = 10**4


# -- scalars ------------------------------------------------------------------


def parse_rational(s, where: str) -> Fraction:
    """An exact rational from a JSON integer or a string such as '-1/3'.

    The forms the writer emits, -?digits and -?digits/digits, are read
    with int; every other string goes to Fraction, which accepts more
    (a sign, spaces, underscores, decimals) and says what it refuses.
    int refuses more than sys.get_int_max_str_digits() digits, and a
    decimal or exponent form whose value needs more (`_check_decimal`) is
    refused before Fraction builds it."""
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str):
        raise SpecFormatError(f"{where}: expected an exact rational string, got {_show(s)}")
    try:
        num, slash, den = s.partition("/")
        if s.isascii() and num.removeprefix("-").isdigit() and (not slash or den.isdigit()):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        _check_decimal(s, where)
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"{where}: bad rational {_show(s)}") from exc


# a decimal as Fraction reads it: digits, an optional fraction part and an
# optional exponent, with underscores; it matches more than Fraction reads,
# and Fraction refuses the rest
_DECIMAL = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?\s*")


def _check_decimal(s: str, where: str) -> None:
    # Fraction reads a decimal w.f e x as the integer wf times 10^k, with
    # k = x - len(f), and builds the power of ten in full before it reduces:
    # '1e10000000' took 9 s.  Refuse a value that needs more digits than int
    # reads, as numerator wf 10^max(k, 0) or as denominator 10^max(-k, 0);
    # a bad exponent raises ValueError, as in Fraction
    m = _DECIMAL.fullmatch(s)
    limit = sys.get_int_max_str_digits()
    if m is None or not limit:
        return
    whole, part, exp = m.groups()
    if part is exp is None:
        return  # an integer: int refuses it past the limit
    frac = len((part or "").replace("_", ""))
    n = len(whole.replace("_", "")) + frac
    k = int(exp or 0) - frac
    if max(n + k, n, 1 - k) > limit:
        raise LimitExceeded(f"{where}: {_show(s)} is above the limit of {limit} digits")


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


@cache
def _key_sets(required: tuple, optional: tuple) -> tuple:
    # (the required keys, every known key) of one kind of object
    return frozenset(required), frozenset(required + optional)


def _fields(obj, where: str, required: tuple, optional: tuple = ()) -> dict:
    # every JSON object: all required keys present, no key outside the known set
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{where}: expected an object")
    needed, known = _key_sets(required, optional)
    keys = obj.keys()
    if not keys <= known:
        raise SpecFormatError(f"{where}: unknown key {_show(sorted(keys - known)[0])}")
    if not keys >= needed:
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
    # parse_rational returns Fractions, so the element is built as they are,
    # after the same prime check as KElement's, in the same order of errors
    if isinstance(obj, (str, int)):
        # plain rational shorthand
        a, b = parse_rational(obj, where), Fraction(0)
    else:
        obj = _fields(obj, where, ("a",), ("b",))
        a = parse_rational(obj["a"], f"{where}.a")
        b = parse_rational(obj.get("b", "0"), f"{where}.b")
        if rational_only and b:
            raise SpecFormatError(f"{where}: must be rational (no sqrt part), got b = {_show(b)}")
    _check_prime(p)
    return KElement._of(p, a, b)


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


# -- records ------------------------------------------------------------------
#
# A record is a dataclass whose JSON object has one key per field, under the
# field's name: a certificate ball, a census and its witnesses, a census
# report and its rows, an orbit step.  Its dataclass is the one list of its
# fields; the writer walks them, and each reader table maps the same names,
# in the order the "missing ..." diagnostic lists them, to their readers.


def _to_json(x):
    """x by type: a field element, exponent or ball through its writer, a
    certificate's (point, diff_exp) sample witness as {point, diff_exp}, a
    record as one key per field, any other tuple or list as a list, and
    None, bool, int and str as they are."""
    if isinstance(x, (tuple, list)):
        if len(x) == 2 and isinstance(x[0], KElement) and isinstance(x[1], ValExp):
            return {"point": kelement_to_json(x[0]), "diff_exp": valexp_to_json(x[1])}
        return [_to_json(v) for v in x]
    if isinstance(x, KElement):
        return kelement_to_json(x)
    if isinstance(x, ValExp):
        return valexp_to_json(x)
    if isinstance(x, Ball):
        return ball_to_json(x)
    if is_dataclass(x):
        return {f.name: _to_json(getattr(x, f.name)) for f in fields(x)}
    return x


def _record_from_json(cls, obj, where: str, readers: dict):
    # exactly the keys of readers; readers[key](value, where) reads each
    obj = _fields(obj, where, tuple(readers))
    return cls(**{k: read(obj[k], f"{where}.{k}") for k, read in readers.items()})


def _maybe(read):
    # a nullable field
    return lambda x, where: None if x is None else read(x, where)


def _items(read):
    # a list field, read into a tuple; each item keeps its [i] path
    return lambda x, where: tuple(
        read(v, f"{where}[{i}]") for i, v in enumerate(_list_from_json(x, where))
    )


def _records(cls, readers: dict):
    return _items(lambda x, where: _record_from_json(cls, x, where, readers))


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

    def items(key, read):
        return _items(read)(obj[key], f"{where}.{key}")

    return GluingPlan(
        deltas=items("delta_exps", _exp_from_json),
        s=items("s_exps", _exp_from_json),
        c=items("c", lambda x, w: kelement_from_json(x, p, w)),
        M=items("M", _int_from_json),
        tau=_exp_from_json(obj["tau_exp"], f"{where}.tau_exp"),
        epsilon=_exp_from_json(obj["epsilon_exp"], f"{where}.epsilon_exp"),
    )


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "passes": cert.passes,
        "epsilon_exp": str(cert.epsilon),
        "degree": {"num": cert.degree_num, "den": cert.degree_den},
        "balls": _to_json(cert.checks),
    }


def certificate_from_json(obj, p: int, where: str) -> Certificate:
    obj = _fields(obj, where, ("passes", "epsilon_exp", "degree", "balls"))
    # the stored verdict is a claim; verify compares it with its own
    _bool_from_json(obj["passes"], f"{where}.passes")
    deg = _fields(obj["degree"], f"{where}.degree", ("num", "den"))
    # a sample witness is a (point, diff_exp) pair, not a record
    samples = {"point": lambda x, w: kelement_from_json(x, p, w), "diff_exp": valexp_from_json}
    balls = _records(BallCheck, {
        "index": _int_from_json,
        "pole_free_ok": _bool_from_json,
        "image_ok": _bool_from_json,
        "image": _maybe(lambda x, w: ball_from_json(x, p, w)),
        "eps_bound_exp": _maybe(valexp_from_json),
        "witnesses": _records(lambda **pair: tuple(pair.values()), samples),
        "samples_ok": _bool_from_json,
    })
    return Certificate(
        checks=balls(obj["balls"], f"{where}.balls"),
        epsilon=_exp_from_json(obj["epsilon_exp"], f"{where}.epsilon_exp"),
        degree_num=_int_from_json(deg["num"], f"{where}.degree.num"),
        degree_den=_int_from_json(deg["den"], f"{where}.degree.den"),
    )


# -- dynamics -----------------------------------------------------------------


def _kind(kinds):
    def read(x, where: str) -> str:
        if x not in kinds:
            raise SpecFormatError(f"{where}: unknown kind {_show(x)}")
        return x

    return read


def _count_triple(c, where: str) -> tuple:
    if not (isinstance(c, list) and len(c) == 3):
        raise SpecFormatError(f"{where}: expected [n, m, l] integers")
    triple = tuple(_int_from_json(x, where) for x in c)
    if min(triple) < 0:
        raise SpecFormatError(f"{where}: must not be negative, got {_show(min(triple))}")
    return triple


def _witness_readers(p: int) -> dict:
    # a census witness; a census report witness extends it
    return {
        "ball_index": _int_from_json,
        "disk": lambda x, w: ball_from_json(x, p, w, strict=True),
        "expected": _kind(KINDS),
    }


def census_to_json(census: FixedPointCensus) -> dict:
    return _to_json(census)


def census_from_json(obj, p: int, where: str) -> FixedPointCensus:
    return _record_from_json(FixedPointCensus, obj, where, {
        "counts": _items(_count_triple),
        "witnesses": _records(Witness, _witness_readers(p)),
    })


def census_report_to_json(report: CensusReport) -> dict:
    return _to_json(report)


def census_report_from_json(obj, p: int, where: str) -> CensusReport:
    """Strict parse of a stored census report, which verify compares with
    the one it recomputes; existence_certified and c3_ok may be null."""
    return _record_from_json(CensusReport, obj, where, {
        "passes": _bool_from_json,
        "witnesses": _records(WitnessResult, {
            **_witness_readers(p),
            "got": _kind(KINDS + (INCONCLUSIVE,)),
            "existence_certified": _maybe(_bool_from_json),
            "c3_ok": _maybe(_bool_from_json),
            "ok": _bool_from_json,
        }),
        "counts": _records(CountResult, {
            "index": _int_from_json,
            "expected": _count_triple,
            "got": _count_triple,
            "ok": _bool_from_json,
        }),
    })


def orbit_to_json(steps) -> list:
    return [{**_to_json(s), "pole": s.pole} for s in steps]


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
        return None if raw is None else list(_items(read)(raw, f"problem.{key}"))

    prob["delta_override"] = entries(
        "delta_override", lambda d, w: _exp_from_json(d, w, integral=True)
    )
    prob["M_override"] = entries(
        "M_override", lambda m, w: None if m is None else _int_from_json(m, w)
    )
    prob["c_override"] = entries(
        "c_override", lambda c, w: None if c is None else kelement_from_json(c, p, w)
    )
    prob["orbits"] = entries("orbits", lambda o, w: _orbit_request_from_json(o, p, w))
    check_count(sum(o["steps"] for o in prob["orbits"] or ()), STEPS_LIMIT, "problem.orbits steps")
    return prob


def result_to_json(p: int, epsilon: ValExp, models, plan: GluingPlan, F: RationalMap,
                   cert: Certificate, census: FixedPointCensus | None = None,
                   census_report: CensusReport | None = None, orbit_tables=None) -> dict:
    out = problem_to_json(p, epsilon, models, census)
    out["plan"] = plan_to_json(plan)
    out["F"] = ratmap_to_json(F)
    out["certificate"] = certificate_to_json(cert)
    if census_report is not None:
        out["census_report"] = census_report_to_json(census_report)
    if orbit_tables is not None:
        out["orbit_tables"] = orbit_tables
    return out


def result_from_json(obj) -> dict:
    """Strict parse of a result document (glue output).

    Returns a dict with keys: p, epsilon, models, census, plan, F,
    certificate, stored_passes, the document's own verdict, and
    census_report, the stored report or None.  F must not be constant,
    and a census report needs the census it reports on.  The orbit_tables
    section is recomputed output and is not read.
    """
    res = _document(obj, "result", ("plan", "F", "certificate"), ("census_report", "orbit_tables"))
    p = res["p"]
    res["plan"] = plan_from_json(obj["plan"], p, "result.plan")
    res["F"] = ratmap_from_json(obj["F"], p, "result.F")
    if res["F"].degree == 0:
        raise SpecFormatError("result.F: a constant map sends no ball onto a ball")
    res["certificate"] = certificate_from_json(obj["certificate"], p, "result.certificate")
    res["stored_passes"] = obj["certificate"]["passes"]
    res["census_report"] = None
    if obj.get("census_report") is not None:
        if res["census"] is None:
            raise SpecFormatError("result.census_report: the result has no census to report on")
        res["census_report"] = census_report_from_json(
            obj["census_report"], p, "result.census_report"
        )
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
