"""padicglue benchmark.

    python3 perfbench/run.py --workload {suite,sweep,verify,orbits} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its
``src/``.  One process, one thread, a closed loop with one client: each op
starts when the previous one has finished.  The loop runs whole cycles of
the workload's ops until ``--seconds`` of op time at reference speed (see
refclock.py) have passed, then checks every output against the digests
in ``digests.json``.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the first cycle is run again under
the tracer and the object holds the per-layer metrics.  Lines above it
are the human-readable report.  A record of the run (and, traced, every
span) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

from refclock import RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 3
IMPORT_REPEATS = 9
WALL_CAP = 3  # stop after this many times --seconds of raw op time, whatever the speed

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer metrics in the final JSON line of a traced run; every other
# span's calls and self time are in the report and the trace file
PER_LAYER_SPAN_CALLS = (
    "field.reduce_mod",
    "algebra.Poly.recenter",
    "algebra.gauss_norm_exp",
    "algebra.count_roots_with_min_valuation",
    "algebra.poly_gcd",
    "algebra.RationalMap.eval",
    "geometry.pole_free_on_ball",
    "geometry.image_of_ball",
    "geometry.sup_norm_exp_on_ball",
    "geometry.wdeg",
    "geometry.sample_points",
    "gluing.plan_gluing",
    "gluing.build_F",
    "gluing.certify_theorem1",
    "dynamics.verify_census",
    "dynamics.classify_disk",
    "dynamics.hensel_fixed_point",
    "dynamics.orbit",
    "serialize.result_to_json",
    "serialize.result_from_json",
    "cli.main",
)
# self times of spans that every workload's ops enter, so never zero
PER_LAYER_SELF_S = ("algebra.poly_gcd", "algebra.RationalMap.eval")
PER_LAYER_COUNTS = {
    "field.KElement.mul.calls": "count",
    "field.KElement.addsub.calls": "count",
    "field.KElement.inverse.calls": "count",
    "field.KElement.valuation.calls": "count",
    "field.max_coord_bits": "bits",
    "algebra.Poly.recenter.coeff_ops": "count",
    "gluing.samples_checked": "count",
    "dynamics.orbit.steps": "count",
    "serialize.bytes_written": "bytes",
    "serialize.bytes_read": "bytes",
}


def _import_library():
    for name in [m for m in sys.modules if m == "padicglue" or m.startswith("padicglue.")]:
        del sys.modules[name]
    import padicglue.cli

    return padicglue.cli


def load_library(clock: RefClock) -> float:
    """Import padicglue from the checkout's src/; return the median time of
    several fresh imports at reference speed.  Call once per process,
    before importing the workload modules, which keep the last import."""
    if not (SRC / "padicglue" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no padicglue sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        module, raw, factor = clock.time(_import_library)
        times.append(raw * factor)
    if Path(module.__file__).resolve().parent != SRC / "padicglue":
        raise SystemExit(f"perfbench: imported padicglue from {module.__file__}, not {SRC}")
    return statistics.median(times)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, ops: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "ops": ops,
    }


def attempt(call, op) -> tuple:
    """Run one op; return (output, traceback text or None)."""
    try:
        return call(op), None
    except Exception:  # a failing op is counted, never fatal
        return None, traceback.format_exc()


def run_ops(clock: RefClock, workload, call, ops) -> dict:
    """Time `call` on each op; columns of outputs, errors, raw times and the
    factors that scale them to reference speed."""
    cols = {"outputs": [], "errors": [], "raw_s": [], "factor": []}
    for op in ops:
        (out, err), raw, factor = clock.time(attempt, call, op)
        factor **= workload.speed_exponent
        for key, value in zip(cols, (out, err, raw, factor)):
            cols[key].append(value)
    return cols


def measure(clock: RefClock, workload, seconds: float) -> tuple:
    """Closed loop over whole cycles until `seconds` of op time at reference
    speed have passed, so a seed runs the same ops on a fast or a slow
    host.  Returns (ops, columns as in run_ops).  Outputs are checked
    after the loop so checking costs no op time."""
    ops, cols = [], None
    while True:
        got = run_ops(clock, workload, workload.run, workload.ops)
        ops.extend(workload.ops)
        cols = got if cols is None else {k: cols[k] + got[k] for k in cols}
        scaled = sum(r * f for r, f in zip(cols["raw_s"], cols["factor"]))
        if scaled >= seconds or sum(cols["raw_s"]) >= WALL_CAP * seconds:
            return ops, cols


def check_outputs(workload, ops, outputs, errors) -> tuple:
    """Return (digests, problems per op)."""
    digests, problems = [], []
    for op, out, err in zip(ops, outputs, errors):
        if err is not None:
            digests.append(None)
            problems.append([err.strip().splitlines()[-1]])
            continue
        digest, found = workload.check(op, out)
        digests.append(digest)
        problems.append(found)
    return digests, problems


def percentile_with_tail(values, q: int):
    """The q-th percentile, or None when fewer than ten values lie beyond it."""
    if len(values) < 2:
        return None
    cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return cut if sum(1 for v in values if v > cut) >= 10 else None


def size_scaling(ops, latencies) -> tuple:
    """Median op time at the largest size, and the log-log slope of median
    op time against size."""
    by_size = {}
    for op, t in zip(ops, latencies):
        by_size.setdefault(op.size, []).append(t)
    points = [(math.log(s), math.log(statistics.median(ts))) for s, ts in sorted(by_size.items())]
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    spread = sum((x - mx) ** 2 for x, _ in points)
    slope = sum((x - mx) * (y - my) for x, y in points) / spread if spread else None
    return math.exp(points[-1][1]), slope


def traced_pass(clock: RefClock, workload, ops, untraced_s, untraced_digests) -> tuple:
    """Rerun `ops` under the tracer; return (per-layer metrics, report
    lines, record, failed op count)."""
    import tracer as tracing

    tr = tracing.Tracer(clock.now)

    def traced_run(item):
        return tr.run_op(item[0], workload.run, item[1])

    tr.install()
    try:
        cols = run_ops(clock, workload, traced_run, list(enumerate(ops)))
    finally:
        tr.restore()
    digests, problems = check_outputs(workload, ops, cols["outputs"], cols["errors"])
    lines = []
    for op, before, after, found in zip(ops, untraced_digests, digests, problems):
        if before != after:
            found.append("traced output digest differs from the untraced one")
        lines.extend(f"FAILED traced {op.key}: {x}" for x in found)
    traced_s = sum(r * f for r, f in zip(cols["raw_s"], cols["factor"]))
    lines.append(
        f"traced {len(ops)} ops (the first cycle): {traced_s:.3f} s of op time, "
        f"untraced {untraced_s:.3f} s, tracing overhead {traced_s - untraced_s:.3f} s"
    )
    metrics, table_lines, record = layer_metrics(tr, cols["factor"], traced_s - untraced_s)
    lines.extend(table_lines)
    path = OUT / f"trace-{workload.name}-seed{workload.seed}.json"
    env = environment(workload.name, workload.seed, len(ops))
    path.write_text(json.dumps({"env": env, "op_factors": cols["factor"], **tr.span_dump()}))
    lines.append(f"spans written to {path.relative_to(ROOT)}")
    return metrics, lines, record, sum(1 for p in problems if p)


def layer_metrics(tr, op_factors, overhead_s: float) -> tuple:
    """Per-layer metrics for the final line, report lines and the record."""
    table = tr.layer_table(op_factors)
    counts = tr.counts
    metrics = {}
    for name in PER_LAYER_SPAN_CALLS:
        metrics[name + ".calls"] = {"value": table.get(name, {}).get("calls", 0), "unit": "count"}
    for name in PER_LAYER_SELF_S:
        metrics[name + ".self_s"] = {"value": table.get(name, {}).get("self_s", 0.0), "unit": "s"}
    for name, unit in PER_LAYER_COUNTS.items():
        metrics[name] = {"value": counts.get(name, 0), "unit": unit}
    balls = counts.get("balls_certified", 0)
    metrics["algebra.recenter_per_ball"] = {
        "value": counts.get("recenter_in_certify", 0) / balls if balls else 0.0,
        "unit": "calls/ball",
    }
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}

    op_total = table[tr.OP_SPAN]["total_s"]
    lines = [f"{'span':44} {'calls':>9} {'self_s':>10} {'self%':>6}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:44} {row['calls']:9d} {row['self_s']:10.4f} "
            f"{100 * row['self_s'] / op_total:6.1f}"
        )
    for name in sorted(counts):
        lines.append(f"{name:44} {counts[name]}")
    lines.append(f"algebra.recenter_per_ball {metrics['algebra.recenter_per_ball']['value']:.4g}")
    return metrics, lines, {"spans": table, "counts": dict(counts), "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: bool, clock: RefClock,
                 import_s: float, tiny: bool = False) -> dict:
    """Set up, measure and check one workload; returns the report lines,
    the final JSON object and the run record."""
    import workloads

    digests = json.loads(DIGESTS.read_text())
    workload = workloads.WORKLOADS[name](seed, OUT / name, digests, tiny=tiny)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        _, raw, factor = clock.time(workload.setup)
        setup_times.append(raw * factor)

    ops, cols = measure(clock, workload, seconds)
    digests_run, problems = check_outputs(workload, ops, cols.pop("outputs"), cols["errors"])
    latencies = [r * f for r, f in zip(cols["raw_s"], cols["factor"])]
    attempted = len(ops)
    failed = sum(1 for p in problems if p)

    e2e = {
        "setup_s": import_s + statistics.median(setup_times),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "ops_per_s": attempted / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"fail_frac": failed / attempted}
    p90 = percentile_with_tail(latencies, 90)
    if p90 is not None:
        extra["op_p90_ms"] = p90 * 1e3
    if name == "sweep":
        extra["nmax_glue_s"], extra["scaling_exp"] = size_scaling(ops, latencies)

    record = {
        "env": environment(name, seed, attempted),
        "seconds": seconds,
        "tiny": tiny,
        "import_s": import_s,
        "setup_times_s": setup_times,
        "end_to_end": e2e,
        "extra": extra,
        "ops": [
            {"key": op.key, "size": op.size, "raw_s": r, "factor": f, "digest": d, "problems": p}
            for op, r, f, d, p in zip(ops, cols["raw_s"], cols["factor"], digests_run, problems)
        ],
    }
    lines = [
        f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}",
        "env " + " ".join(f"{k}={v}" for k, v in record["env"].items()),
        f"ops {attempted}, closed loop, one client; {sum(cols['raw_s']):.3f} s raw op time, "
        f"{sum(latencies):.3f} s at reference speed (median factor "
        f"{statistics.median(cols['factor']):.3f})",
    ]
    for metric, value in e2e.items():
        lines.append(f"{metric} {value:.6g} {END_TO_END_UNITS[metric]}")
    for metric, value in extra.items():
        lines.append(f"{metric} {value:.6g}" if value is not None else f"{metric} n/a")
    for op, p in zip(ops, problems):
        lines.extend(f"FAILED {op.key}: {x}" for x in p)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    if trace:
        # the first cycle again, traced: a fixed op set per seed, so its
        # counts repeat exactly
        k = len(workload.ops)
        metrics, layer_lines, record["per_layer"], traced_failed = traced_pass(
            clock, workload, ops[:k], sum(latencies[:k]), digests_run[:k]
        )
        attempted += k
        failed += traced_failed
        lines.extend(layer_lines)

    record["reference_loop_s"] = clock.loops
    record_path = OUT / f"run-{name}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1))
    lines.append(f"record written to {record_path.relative_to(ROOT)}")
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"lines": lines, "final": final, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "sweep", "verify", "orbits"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    clock = RefClock()
    import_s = load_library(clock)
    OUT.mkdir(exist_ok=True)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), clock, import_s
    )
    for line in result["lines"]:
        print(line)
    print(json.dumps(result["final"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
