"""Command line front end: glue, verify, orbit, example.

Exit codes are a stable contract: 0 success, 1 certificate or census
failure, 2 I/O and parse errors (including bad flags), 3 hypothesis
violations.  All printed numbers are exact; absolute values appear as
p^(e) with exact rational e.
"""

from __future__ import annotations

import argparse
import sys

from .dynamics import multiplier, orbit, verify_census
from .errors import HypothesisViolation, PadicGlueError, SpecFormatError
from .field import KElement
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
    (HypothesisViolation, EXIT_HYPOTHESIS, "hypothesis violation"),
    (PadicGlueError, EXIT_FAIL, "error"),
)


def _fmt_abs(p: int, v) -> str:
    # |x| = p^(-v(x)); valuation infinity means the value 0
    return "0" if v.is_infinite else f"{p}^({-v.exp})"


def _print_plan(p: int, models, plan) -> None:
    print(f"prime {p}, epsilon {_fmt_abs(p, plan.epsilon)}")
    for i, m in enumerate(models):
        print(
            f"ball {i}: {m.domain}  delta {_fmt_abs(p, plan.deltas[i])}"
            f"  s {_fmt_abs(p, plan.s[i])}  M {plan.M[i]}"
        )
    print(f"tau {_fmt_abs(p, plan.tau)}")


def _print_certificate(p: int, models, cert) -> None:
    for ch in cert.checks:
        bound = (
            _fmt_abs(p, ch.eps_bound_exp) if ch.eps_bound_exp is not None else "n/a"
        )
        print(
            f"ball {ch.index}: pole-free {ch.pole_free_ok}, image {ch.image}"
            f" matches {ch.image_ok}, |F - f_{ch.index}| <= {bound}"
            f" (needs < {_fmt_abs(p, cert.epsilon)}), samples ok {ch.samples_ok}"
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
            parts.append(f"|z - ref| = {_fmt_abs(p, s.dist_exp)}")
        if s.step_exp is not None:
            parts.append(f"step {_fmt_abs(p, s.step_exp)}")
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
                "start": str(start),
                "ref": str(ref) if ref is not None else None,
                "steps": orbit_to_json(steps),
            }
        )
    return tables


def cmd_glue(args) -> int:
    prob = problem_from_json(read_json(args.input))
    p = prob["p"]
    models = prob["models"]
    plan = plan_gluing(
        models,
        prob["epsilon"],
        delta_override=prob["delta_override"],
        M_override=prob["M_override"],
        c_override=prob["c_override"],
    )
    F = build_F(models, plan)
    cert = certify_theorem1(F, models, plan, samples=args.samples)
    _print_plan(p, models, plan)
    _print_certificate(p, models, cert)

    report = None
    if prob["census"] is not None:
        try:
            report = verify_census(F, models, prob["census"])
        except ValueError as exc:
            print(f"census is malformed: {exc}", file=sys.stderr)
            return EXIT_IO
        _print_census(p, report)

    tables = None
    if prob["orbits"]:
        tables = _run_orbits(p, F, models, prob["orbits"])

    if args.output:
        write_json(
            args.output,
            result_to_json(
                p,
                prob["epsilon"],
                models,
                plan,
                F,
                cert,
                census=prob["census"],
                census_report=report,
                orbit_tables=tables,
            ),
        )
        print(f"result written to {args.output}")

    ok = cert.passes and (report is None or report.passes)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_verify(args) -> int:
    res = result_from_json(read_json(args.input))
    p = res["p"]
    models = res["models"]
    validate_plan(models, res["plan"])
    cert = certify_theorem1(res["F"], models, res["plan"], samples=args.samples)
    _print_plan(p, models, res["plan"])
    _print_certificate(p, models, cert)

    census_ok = True
    if res["census"] is not None:
        try:
            report = verify_census(res["F"], models, res["census"])
        except ValueError as exc:
            print(f"census is malformed: {exc}", file=sys.stderr)
            return EXIT_IO
        _print_census(p, report)
        census_ok = report.passes

    if cert.passes and census_ok:
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
    cert = certify_theorem1(F, models, plan, samples=args.samples)
    _print_plan(3, models, plan)
    _print_certificate(3, models, cert)

    images_ok = True
    for i, m in enumerate(models):
        got = cert.checks[i].image
        want = m.image
        same = got is not None and got.same_set(want)
        images_ok = images_ok and same
        print(f"image of ball {i}: got {got}, expected {want}: {'equal' if same else 'DIFFERENT'}")

    report = verify_census(F, models, census)
    _print_census(3, report)
    print(
        "note: ball 2 carries the identity map; every point is fixed and"
        " none is isolated, so it contributes no witnesses"
    )

    crossed = crossed_sum(models, plan)
    crossed_cert = certify_theorem1(crossed, models, plan, samples=2)
    print(
        "mis-paired control (local maps attached to the wrong bump factors)"
        f" certificate passes: {crossed_cert.passes} (expected False)"
    )

    if args.output:
        write_json(
            args.output,
            result_to_json(
                3, EX2_EPSILON, models, plan, F, cert, census=census, census_report=report
            ),
        )
        print(f"result written to {args.output}")

    ok = cert.passes and report.passes and images_ok and not crossed_cert.passes
    return EXIT_PASS if ok else EXIT_FAIL


def _example_ex1(args) -> int:
    if args.alpha is None or args.beta is None:
        print("example ex1 requires --alpha and --beta", file=sys.stderr)
        return EXIT_IO
    alpha = parse_rational(args.alpha, "--alpha")
    beta = parse_rational(args.beta, "--beta")
    models = ex1_models(alpha, beta)
    census = ex1_census(models)
    eps = ex1_epsilon(models, census)
    plan = plan_gluing(models, eps)
    F = build_F(models, plan)
    cert = certify_theorem1(F, models, plan, samples=args.samples)
    _print_plan(3, models, plan)
    _print_certificate(3, models, cert)

    zero = KElement(3, 0)
    lam = F.derivative_at(zero)
    if not isinstance(lam, KElement):
        print("F has a pole at 0; no derivative to compare", file=sys.stderr)
        return EXIT_FAIL
    closed = ex1_derivative_closed_form(alpha, beta, plan)
    equal = lam == closed
    print(f"F'(0) evaluated: {lam}")
    print(f"F'(0) closed form: {closed}")
    print(f"closed form matches evaluation exactly: {equal}")

    kind = multiplier(F, zero).kind
    print(f"fixed point 0 of the glued map is {kind} (|F'(0)| = {_fmt_abs(3, lam.valuation())})")

    report = verify_census(F, models, census)
    _print_census(3, report)

    if args.output:
        write_json(
            args.output,
            result_to_json(3, eps, models, plan, F, cert, census=census, census_report=report),
        )
        print(f"result written to {args.output}")

    ok = cert.passes and report.passes and equal
    return EXIT_PASS if ok else EXIT_FAIL


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
