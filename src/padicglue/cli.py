"""Command line front end: glue, verify, orbit, example.

Exit codes are a stable contract: 0 success, 1 certificate or census
failure, 2 I/O and parse errors (including bad flags) and inputs above a
size limit, 3 hypothesis violations.  All printed numbers are exact;
absolute values appear as p^(e) with exact rational e.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .dynamics import multiplier, orbit, verify_census
from .errors import (
    HypothesisViolation, LimitExceeded, PadicGlueError, SpecFormatError, _power_str, _show,
)
from .geometry import Ball
from .gluing import build_F, certify_theorem1, plan_gluing, validate_plan
from .presets import (
    EX2_EPSILON,
    crossed_sum,
    ex1_census,
    ex1_derivative_closed_form,
    ex1_epsilon,
    ex1_models,
    ex2_census,
    ex2_models,
)
from .serialize import (
    SAMPLES_LIMIT,
    STEPS_LIMIT,
    check_count,
    kelement_to_json,
    orbit_to_json,
    parse_point,
    parse_rational,
    problem_from_json,
    read_json,
    result_from_json,
    result_to_json,
    write_json,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_IO = 2
EXIT_HYPOTHESIS = 3

# The one map from library errors to exit codes and stderr prefixes; the
# first matching row wins.  An OSError also exits 2 (see main).
_EXIT_CODES = (
    (SpecFormatError, EXIT_IO, "parse error"),
    (LimitExceeded, EXIT_IO, "limit exceeded"),
    (HypothesisViolation, EXIT_HYPOTHESIS, "hypothesis violation"),
    (PadicGlueError, EXIT_FAIL, "error"),
)


def _print_plan(p: int, models, plan) -> None:
    print(f"prime {p}, epsilon {_power_str(p, plan.epsilon)}")
    for i, m in enumerate(models):
        print(
            f"ball {i}: {m.domain}  delta {_power_str(p, plan.deltas[i])}"
            f"  s {_power_str(p, plan.s[i])}  M {plan.M[i]}"
        )
    print(f"tau {_power_str(p, plan.tau)}")


def _print_certificate(p: int, cert) -> None:
    for ch in cert.checks:
        bound = (
            _power_str(p, ch.eps_bound_exp) if ch.eps_bound_exp is not None else "n/a"
        )
        print(
            f"ball {ch.index}: pole-free {ch.pole_free_ok}, image {ch.image}"
            f" matches {ch.image_ok}, |F - f_{ch.index}| <= {bound}"
            f" (needs < {_power_str(p, cert.epsilon)}), samples ok {ch.samples_ok}"
        )
    print(f"F degree: numerator {cert.degree_num}, denominator {cert.degree_den}")
    print(f"certificate: {'PASS' if cert.passes else 'FAIL'}")


def _print_census(p: int, report) -> None:
    for w in report.witnesses:
        extra = ""
        if w.expected == "indifferent":
            extra = f", existence certified {w.existence_certified}, hypotheses {w.c3_ok}"
        print(
            f"witness in ball {w.ball_index} at {w.disk}: expected {w.expected},"
            f" got {w.got}{extra}"
        )
    for c in report.counts:
        print(
            f"ball {c.index} counts (attracting, repelling, indifferent):"
            f" expected {c.expected}, got {c.got}"
        )
    print(f"census: {'PASS' if report.passes else 'FAIL'}")


def _certify(p: int, models, plan, F, census, samples: int):
    """Certify F, print the plan and the certificate, then check and print
    the census when there is one: the one path of glue, verify and example.
    F keeps its Taylor shifts, so a census witness disk about a ball's
    center reads the shift the certificate made about it.

    Returns (certificate, census report or None, whether both pass).
    """
    cert = certify_theorem1(F, models, plan, samples=samples)
    _print_plan(p, models, plan)
    _print_certificate(p, cert)
    report = None
    if census is not None:
        report = verify_census(F, models, census)
        _print_census(p, report)
    return cert, report, cert.passes and (report is None or report.passes)


def _write_result(path, p, epsilon, models, plan, F, cert, census, report, tables=None):
    if path:
        write_json(
            path,
            result_to_json(p, epsilon, models, plan, F, cert, census=census,
                           census_report=report, orbit_tables=tables),
        )
        print(f"result written to {path}")


def _claims_agree(res, cert, report) -> bool:
    """Compare a result's epsilon, stored certificate claims and stored
    census report with the recomputed ones, printing one stderr line per
    disagreement.  Certificate balls and census report rows are compared
    over the fields of their dataclass, a ball's witnesses as a prefix.

    samples_ok depends on --samples and is skipped; passes does not, since
    every sample obeys the certified sup bound.  Sample points are taken
    breadth-first, so the points of a smaller budget are a prefix of those
    of a larger one: the first min(stored, recomputed) witnesses of each
    ball, point and diff_exp, must agree.  Images and disks are compared as
    sets: a deep perturbation of F moves the exact center F(a_i) but not
    the ball.  A stored census report (read only with a census, so report
    is then recomputed too) is compared in full.
    """
    stored = res["certificate"]
    claims = [
        ("epsilon_exp", res["epsilon"], cert.epsilon),
        ("certificate.passes", res["stored_passes"], cert.passes),
        ("certificate.epsilon_exp", stored.epsilon, cert.epsilon),
        ("certificate.degree", (stored.degree_num, stored.degree_den),
         (cert.degree_num, cert.degree_den)),
        ("certificate.balls", len(stored.checks), len(cert.checks)),
    ]
    for k, (s, c) in enumerate(zip(stored.checks, cert.checks)):
        claims += _field_claims(f"certificate.balls[{k}]", s, c, skip=("witnesses", "samples_ok"))
        for j, (sw, cw) in enumerate(zip(s.witnesses, c.witnesses)):
            claims.append((f"certificate.balls[{k}].witnesses[{j}]", sw, cw))
    told = res["census_report"]
    if told is not None:
        claims.append(("census_report.passes", told.passes, report.passes))
        for name in ("witnesses", "counts"):
            s_rows, c_rows = getattr(told, name), getattr(report, name)
            claims.append((f"census_report.{name}", len(s_rows), len(c_rows)))
            for k, (s, c) in enumerate(zip(s_rows, c_rows)):
                claims += _field_claims(f"census_report.{name}[{k}]", s, c)
    agree = True
    for name, s, c in claims:
        same = s.same_set(c) if isinstance(s, Ball) and isinstance(c, Ball) else s == c
        if not same:
            print(f"result.{name}: stored {_echo(s)}, recomputed {_echo(c)}", file=sys.stderr)
            agree = False
    return agree


def _field_claims(name: str, stored, recomputed, skip=()) -> list:
    # one claim per field of a record, in the dataclass's order
    return [(f"{name}.{f.name}", getattr(stored, f.name), getattr(recomputed, f.name))
            for f in fields(stored) if f.name not in skip]


def _echo(x) -> str:
    # a claim as a mismatch line shows it; a pair such as a degree or a
    # witness (point, diff_exp) shows each part through _show
    return f"({', '.join(map(_show, x))})" if isinstance(x, tuple) else _show(x)


def _orbit_rows(p: int, steps) -> None:
    for s in steps:
        if s.pole:
            print(f"  k={s.k}: pole reached, orbit stops")
            continue
        zs = str(s.point)
        if len(zs) > 48:
            # the table reports valuations; huge exact points go to the JSON
            zs = f"({len(zs)}-char element)"
        parts = [f"  k={s.k}: z = {zs}"]
        if s.dist_exp is not None:
            parts.append(f"|z - ref| = {_power_str(p, s.dist_exp)}")
        if s.step_exp is not None:
            parts.append(f"step {_power_str(p, s.step_exp)}")
        print("  ".join(parts))


def _run_orbits(p: int, F, models, requests):
    tables = []
    for req in requests:
        start = req["start"]
        ref = req.get("ref")
        if ref is None:
            home = next((m for m in models if m.domain.contains_point(start)), None)
            if home is None:
                print(f"warning: start {start} lies outside every model ball")
            else:
                ref = home.domain.center
        print(f"orbit from {start}" + (f" (ref {ref})" if ref is not None else ""))
        steps = orbit(F, start, req["steps"], ref=ref)
        _orbit_rows(p, steps)
        tables.append(
            {
                "start": kelement_to_json(start),
                "ref": kelement_to_json(ref) if ref is not None else None,
                "steps": orbit_to_json(steps),
            }
        )
    return tables


def cmd_glue(args) -> int:
    prob = problem_from_json(read_json(args.input))
    p, models, census = prob["p"], prob["models"], prob["census"]
    plan = plan_gluing(
        models,
        prob["epsilon"],
        delta_override=prob["delta_override"],
        M_override=prob["M_override"],
        c_override=prob["c_override"],
    )
    F = build_F(models, plan)
    cert, report, ok = _certify(p, models, plan, F, census, args.samples)
    tables = _run_orbits(p, F, models, prob["orbits"]) if prob["orbits"] else None
    _write_result(args.output, p, prob["epsilon"], models, plan, F, cert, census, report, tables)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_verify(args) -> int:
    res = result_from_json(read_json(args.input))
    models, plan = res["models"], res["plan"]
    validate_plan(models, plan)
    cert, report, ok = _certify(res["p"], models, plan, res["F"], res["census"], args.samples)
    if _claims_agree(res, cert, report) and ok:
        print(f"verification passed with {args.samples} samples per ball")
        return EXIT_PASS
    print("verification FAILED")
    return EXIT_FAIL


def cmd_orbit(args) -> int:
    res = result_from_json(read_json(args.input))
    p = res["p"]
    start = parse_point(args.start, p)
    _run_orbits(p, res["F"], res["models"], [{"start": start, "steps": args.steps}])
    return EXIT_PASS


def _example_ex2(args) -> int:
    models = ex2_models()
    census = ex2_census(models)
    plan = plan_gluing(models, EX2_EPSILON)
    F = build_F(models, plan)
    cert, report, ok = _certify(3, models, plan, F, census, args.samples)
    print(
        "note: ball 2 carries the identity map; every point is fixed and"
        " none is isolated, so it contributes no witnesses"
    )

    # cert.passes, and so ok, already requires every image to match
    for ch, m in zip(cert.checks, models):
        verdict = "equal" if ch.image_ok else "DIFFERENT"
        print(f"image of ball {ch.index}: got {ch.image}, expected {m.image}: {verdict}")

    crossed = crossed_sum(models, plan)
    crossed_cert = certify_theorem1(crossed, models, plan, samples=2)
    print(
        "mis-paired control (local maps attached to the wrong bump factors)"
        f" certificate passes: {crossed_cert.passes} (expected False)"
    )
    _print_certificate(3, crossed_cert)

    _write_result(args.output, 3, EX2_EPSILON, models, plan, F, cert, census, report)
    return EXIT_PASS if ok and not crossed_cert.passes else EXIT_FAIL


def _example_ex1(args) -> int:
    if args.alpha is None or args.beta is None:
        raise SpecFormatError("example ex1 requires --alpha and --beta")
    alpha = parse_rational(args.alpha, "--alpha")
    beta = parse_rational(args.beta, "--beta")
    models = ex1_models(alpha, beta)
    census = ex1_census(models)
    eps = ex1_epsilon(models, census)
    plan = plan_gluing(models, eps)
    F = build_F(models, plan)
    cert, report, ok = _certify(3, models, plan, F, census, args.samples)

    # both f_i fix 0 and no bump factor has a pole there, so F fixes 0
    mult = multiplier(F, 0)
    closed = ex1_derivative_closed_form(alpha, beta, plan)
    equal = mult.value == closed
    print(f"F'(0) evaluated: {mult.value}")
    print(f"F'(0) closed form: {closed}")
    print(f"closed form matches evaluation exactly: {equal}")
    print(
        f"fixed point 0 of the glued map is {mult.kind}"
        f" (|F'(0)| = {_power_str(3, mult.value.valuation())})"
    )

    _write_result(args.output, 3, eps, models, plan, F, cert, census, report)
    return EXIT_PASS if ok and equal else EXIT_FAIL


def cmd_example(args) -> int:
    if args.name == "ex1":
        return _example_ex1(args)
    return _example_ex2(args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="padicglue",
        description="Glue local maps on disjoint balls into one rational map, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("glue", help="plan, build, and certify from a problem file")
    g.add_argument("--input", required=True)
    g.add_argument("--output")
    g.add_argument("--samples", type=int, default=8)
    g.set_defaults(func=cmd_glue)

    v = sub.add_parser("verify", help="independently re-certify a result file")
    v.add_argument("--input", required=True)
    v.add_argument("--samples", type=int, default=100)
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("orbit", help="iterate the glued map from a start point")
    o.add_argument("--input", required=True)
    o.add_argument("--start", required=True)
    o.add_argument("--steps", type=int, default=10)
    o.set_defaults(func=cmd_orbit)

    e = sub.add_parser("example", help="run a built-in instance end to end")
    e.add_argument("--name", required=True, choices=("ex1", "ex2"))
    e.add_argument("--alpha")
    e.add_argument("--beta")
    e.add_argument("--output")
    e.add_argument("--samples", type=int, default=8)
    e.set_defaults(func=cmd_example)

    args = parser.parse_args(argv)
    try:
        for flag, limit in (("samples", SAMPLES_LIMIT), ("steps", STEPS_LIMIT)):
            if hasattr(args, flag):
                check_count(getattr(args, flag), limit, f"--{flag}")
        return args.func(args)
    except OSError as exc:
        source = getattr(args, "input", None)
        verb = "read" if exc.filename in (None, source) else "write"
        print(f"cannot {verb} {exc.filename or source}: {exc}", file=sys.stderr)
        return EXIT_IO
    except PadicGlueError as exc:
        code, prefix = next((c, t) for kind, c, t in _EXIT_CODES if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
