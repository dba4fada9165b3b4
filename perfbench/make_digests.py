"""Regenerate ``digests.json``: the expected output digest of every input
the benchmark can draw, for any seed.

    python3 perfbench/make_digests.py

Run it only when a change is meant to alter results; the plan, F and
certificate sections are otherwise required to stay byte-identical.  It
refuses to write digests for an output that fails its own checks.  Takes
a few minutes: it runs every pooled instance once.
"""

from __future__ import annotations

import json
import sys
import time

import run
from refclock import RefClock


def main() -> int:
    run.load_library(RefClock())
    import inputs
    import padicglue.serialize as serialize
    import workloads

    out = run.OUT / "digests"
    digests, failures = {}, []

    def record(op, workload) -> None:
        t0 = time.perf_counter()
        digest, problems = workload.check(op, workload.run(op))
        failures.extend(f"{op.key}: {p}" for p in problems)
        digests[op.key] = digest
        print(f"{op.key} {time.perf_counter() - t0:.2f}s", flush=True)

    glue = workloads.Suite(0, out, None)
    for key in inputs.suite_pool():
        record(workloads.glue_op(inputs.suite_instance(key)), glue)
    for key in inputs.sweep_pool():
        record(workloads.glue_op(inputs.sweep_instance(key)), glue)

    orbits = workloads.Orbits(0, out, None)
    for key in inputs.orbit_pool():
        record(workloads.orbit_op(key), orbits)

    verify = workloads.Verify(0, out, None)
    files = out / "files"
    files.mkdir(exist_ok=True)
    ops = verify.preset_ops("ex2", files) + verify.preset_ops("ex1", files)
    for name in ("ex2", "ex1"):
        doc = serialize.read_json(files / f"{name}.json")
        digests["glue/" + name] = workloads.result_digest(doc)
    glued = [inputs.suite_instance(k) for k in inputs.verify_suite_candidates()]
    glued += [
        inputs.sweep_instance(inputs.sweep_key(inputs.VERIFY_SWEEP_N, v))
        for v in range(inputs.SWEEP_VARIANTS)
    ]
    ops += [verify.result_file_op(inst, files) for inst in glued]
    for op in ops:
        failures.extend(f"{op.key}: {p}" for p in op.setup_problems)
        record(op, verify)

    if failures:
        print("not writing digests; outputs failed their checks:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
