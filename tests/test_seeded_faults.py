"""Every seeded fault of `seeded_faults.FAULTS` fails the tests it names.

Each entry runs its tests in a fresh pytest process with the fault in
place (the hook in `conftest.py`), so no edit reaches another test.  A
fault whose tests all pass, or that fails fewer than its minimum, means a
guard no longer bites; a text that no longer occurs in its target means
the entry must follow the code it breaks.  An entry takes about 2 s, and
the selected entries run two processes at a time (`WORKERS`).
"""

import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import seeded_faults
from seeded_faults import FAULT_VARIABLE, FAULTS

ROOT = Path(__file__).resolve().parents[1]
WORKERS = 2


def run_with_fault(name: str) -> tuple:
    """(tests failed or in error, pytest's output) for the entry's tests
    with its fault in place."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **{FAULT_VARIABLE: name})
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", "addopts=",
         *FAULTS[name].tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    out = done.stdout + done.stderr
    summary = out.strip().splitlines()[-1] if out.strip() else ""
    caught = sum(int(n) for n in re.findall(r"(\d+) (?:failed|errors?)\b", summary))
    return caught, out


@pytest.fixture(scope="module")
def runs(request) -> dict:
    """The run of every entry this session selected, by name, each started
    as soon as one of the WORKERS is free."""
    names = [item.callspec.params["name"] for item in request.session.items
             if getattr(item, "originalname", None) == "test_seeded_fault_is_caught"]
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        yield {name: pool.submit(run_with_fault, name) for name in names}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_seeded_fault_is_caught(name, runs):
    caught, out = runs[name].result()
    assert caught >= FAULTS[name].min_failed, out[-3000:]


def test_unknown_text_is_refused(monkeypatch):
    # an entry whose text no longer occurs stops the run before any test
    monkeypatch.setitem(FAULTS, "stale", FAULTS["no-models-accepted"]._replace(old="no such text"))
    with pytest.raises(RuntimeError, match="seeded fault stale: 'no such text' occurs 0 times"):
        seeded_faults.apply("stale")
