"""Every input the benchmark can draw gives the output digest stored for it.

`perfbench/test_smoke.py` checks the digests of one tiny cycle at seed 1.
This runs every key of `perfbench/digests.json` through its workload's own
op and check, as `perfbench/make_digests.py` does when it writes them, so
a change to any pool instance's plan, F, certificate, verify output or
orbit fails here.  The harness is loaded by path and only read
(`conftest.load_perfbench`); its outputs go to a temporary directory.
"""

import json
import sys

import pytest

from conftest import ROOT, load_perfbench

DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text())


@pytest.fixture(scope="module")
def pool(tmp_path_factory) -> dict:
    """(digest, problems) for every input key of the pool, by key."""
    inputs = load_perfbench("inputs")
    # workloads.py imports its sibling as `inputs`
    saved = sys.modules.get("inputs")
    sys.modules["inputs"] = inputs
    try:
        workloads = load_perfbench("workloads")
    finally:
        if saved is None:
            del sys.modules["inputs"]
        else:
            sys.modules["inputs"] = saved
    out = tmp_path_factory.mktemp("perfbench")
    results = {}

    def record(op, workload):
        digest, problems = workload.check(op, workload.run(op))
        results[op.key] = digest, list(op.setup_problems) + problems

    glue = workloads.Suite(0, out, DIGESTS)
    for key in inputs.suite_pool():
        record(workloads.glue_op(inputs.suite_instance(key)), glue)
    for key in inputs.sweep_pool():
        record(workloads.glue_op(inputs.sweep_instance(key)), glue)
    orbits = workloads.Orbits(0, out, DIGESTS)
    for key in inputs.orbit_pool():
        record(workloads.orbit_op(key), orbits)

    verify = workloads.Verify(0, out, DIGESTS)
    files = out / "files"
    files.mkdir()
    ops = verify.preset_ops("ex2", files) + verify.preset_ops("ex1", files)
    # the preset glues are checked while their verify ops are built
    for name in ("ex2", "ex1"):
        results["glue/" + name] = workloads.result_digest(json.loads((files / f"{name}.json")
                                                                     .read_text())), []
    glued = [inputs.suite_instance(k) for k in inputs.verify_suite_candidates()]
    glued += [inputs.sweep_instance(inputs.sweep_key(inputs.VERIFY_SWEEP_N, v))
              for v in range(inputs.SWEEP_VARIANTS)]
    ops += [verify.result_file_op(inst, files) for inst in glued]
    for op in ops:
        record(op, verify)
    return results


def test_every_stored_key_is_drawn(pool):
    assert sorted(pool) == sorted(DIGESTS)


def test_every_output_matches_its_digest(pool):
    assert {k: problems for k, (_, problems) in pool.items() if problems} == {}
    assert {k: d for k, (d, _) in pool.items() if DIGESTS.get(k) != d} == {}
