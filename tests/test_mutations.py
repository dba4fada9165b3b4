"""Seeded structural mutations of problem and result files.

Each case applies one to three random edits to a preset problem or to a
glued ex2 result: a dropped or added key, a value of another type, a huge
or negative number, a bool for an int, or deep nesting.  A few value-level
edits set the result's F to a constant map.  `glue`, `verify` and `orbit`
then run in-process and must end in an exit code of the CLI contract,
without a traceback and within a bounded wall time.  Every crash these
cases have found is pinned as its own test in `test_cli.py`.
"""

import copy
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from padicglue.cli import main
from padicglue.gluing import RADIUS_LIMIT

ROOT = Path(__file__).resolve().parents[1]
CASES = 70  # per source document
EXIT_CODES = {0, 1, 2, 3}
# the slowest case takes well under a second on a 2-vCPU host; a lost size
# limit (say on M) shows up as tens of seconds
CASE_SECONDS = 20

# stands for a list nested deeper than Python's recursion limit, which
# json.dumps cannot write; it is spliced into the serialized text
DEEP = "\x00deep"
DEEP_TEXT = "[" * 5000 + "]" * 5000

SCALARS = (None, True, False, 0, 1, 1.5, "", "x", "1/0", "inf", "0", [], {})
HUGE = (10**40, -(10**40), 2**63, 99999999999)
NEGATIVE = (-1, -2, -7, -100)


def _paths(node, prefix=()):
    """Every path below the root, as key tuples."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(doc, rng: random.Random) -> None:
    path = rng.choice(list(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    kind = rng.choice(("drop", "add", "type", "huge", "negative", "bool", "nest"))
    if kind == "drop":
        del parent[key]
    elif kind == "add":
        target = value if isinstance(value, (dict, list)) else parent
        extra = copy.deepcopy(rng.choice(SCALARS + (value,)))
        if isinstance(target, dict):
            target[f"extra{rng.randrange(3)}"] = extra
        else:
            target.append(extra)
    elif kind == "type":
        parent[key] = copy.deepcopy(rng.choice(SCALARS))
    elif kind in ("huge", "negative"):
        n = rng.choice(HUGE if kind == "huge" else NEGATIVE)
        # numbers are mostly rational strings in these documents
        parent[key] = str(n) if isinstance(value, str) else n
    elif kind == "bool":
        parent[key] = rng.choice((True, False))
    else:
        depth = rng.choice((1, 3, 50, None))
        if depth is None:
            parent[key] = DEEP
        else:
            for _ in range(depth):
                value = [value] if rng.random() < 0.5 else {"a": value}
            parent[key] = value


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc).replace(json.dumps(DEEP), DEEP_TEXT))


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    d = tmp_path_factory.mktemp("sources")
    result = d / "ex2.result.json"
    assert main(["glue", "--input", str(ROOT / "presets" / "ex2.json"),
                 "--output", str(result), "--samples", "2"]) == 0
    return {
        "ex1": json.loads((ROOT / "presets" / "ex1.json").read_text()),
        "ex2": json.loads((ROOT / "presets" / "ex2.json").read_text()),
        "result": json.loads(result.read_text()),
    }


def _exits_cleanly(path: Path, capsys, source: str) -> None:
    if source == "result":
        runs = [["verify", "--input", str(path), "--samples", "2"],
                ["orbit", "--input", str(path), "--start", "9", "--steps", "3"]]
    else:
        runs = [["glue", "--input", str(path), "--samples", "2"]]
    for argv in runs:
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in EXIT_CODES, (argv[0], code, err)
        assert "Traceback" not in err
        assert seconds < CASE_SECONDS, (argv[0], seconds)


@pytest.mark.parametrize("case", range(CASES))
@pytest.mark.parametrize("source", ["ex1", "ex2", "result"])
def test_mutation_exits_cleanly(sources, tmp_path, capsys, source, case):
    rng = random.Random(f"{source}/{case}")
    doc = copy.deepcopy(sources[source])
    for _ in range(rng.choice((1, 1, 2, 3))):
        _mutate(doc, rng)
    path = tmp_path / "mutant.json"
    _write(path, doc)
    _exits_cleanly(path, capsys, source)


# well-typed values of the result's F that no structural edit above makes
F_VALUES = {
    "constant": {"num": ["5"], "den": ["1"]},
    "zero-numerator": {"num": [], "den": ["1"]},
    "zero-coefficients": {"num": ["0", "0"], "den": ["1", "1"]},
}


@pytest.mark.parametrize("name", list(F_VALUES))
def test_value_edit_of_F_exits_cleanly(sources, tmp_path, capsys, name):
    doc = copy.deepcopy(sources["result"])
    doc["F"] = F_VALUES[name]
    path = tmp_path / "mutant.json"
    _write(path, doc)
    _exits_cleanly(path, capsys, "result")


@pytest.mark.parametrize("radius", [str(RADIUS_LIMIT + 1), str(-(RADIUS_LIMIT + 1)), str(HUGE[3])])
def test_radius_edit_exits_2_promptly(sources, tmp_path, radius):
    # a radius exponent sets the size of c_i = p^(s_i): without a limit, ex2
    # with every radius at 10^4 runs for seconds, and longer radii longer
    # still, so a separate process turns a lost limit into a timeout
    doc = copy.deepcopy(sources["ex2"])
    for m in doc["models"]:
        m["ball"]["radius_exp"] = radius
        del m["image"]  # the images and the census are those of radius 2
    del doc["census"], doc["orbits"]
    path = tmp_path / "radius.json"
    _write(path, doc)
    run = subprocess.run(
        [sys.executable, "-m", "padicglue.cli", "glue", "--input", str(path)],
        capture_output=True, text=True, timeout=CASE_SECONDS,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert run.returncode == 2
    assert run.stderr.startswith(f"limit exceeded: ball 0: radius exponent {radius} is outside")


@pytest.mark.parametrize("delta", [str(-(RADIUS_LIMIT + 1)), "-1000000", str(-HUGE[3])])
def test_delta_override_edit_exits_2_promptly(sources, tmp_path, delta):
    # with one ball nothing bounds delta from below, and s = (r + delta)/2
    # sets the size of c = p^s: ex2's first ball alone with delta 3^(10^6)
    # still ran after 40 s, so a separate process turns a lost limit into a
    # timeout
    doc = copy.deepcopy(sources["ex2"])
    doc["models"] = doc["models"][:1]
    doc["delta_override"] = [delta]
    del doc["census"], doc["orbits"]
    path = tmp_path / "delta.json"
    _write(path, doc)
    run = subprocess.run(
        [sys.executable, "-m", "padicglue.cli", "glue", "--input", str(path)],
        capture_output=True, text=True, timeout=CASE_SECONDS,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert run.returncode == 2
    assert run.stderr.startswith(f"limit exceeded: delta_override[0]: exponent {delta} is outside")


# an epsilon exponent of 4,300 nines sets a least M_i of 4,301 digits,
# one more than Python prints
LONG_NINES = "9" * 4300


def test_long_epsilon_glue_exits_2_with_a_named_diagnostic(sources, tmp_path, capsys):
    doc = copy.deepcopy(sources["ex2"])
    doc["epsilon_exp"] = LONG_NINES
    path = tmp_path / "epsilon.json"
    _write(path, doc)
    assert main(["glue", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "limit exceeded: ball 0: M = <a value too long to print> is above the limit of 256\n"
    )


def test_long_epsilon_verify_exits_3_with_a_named_diagnostic(sources, tmp_path, capsys):
    doc = copy.deepcopy(sources["result"])
    doc["epsilon_exp"] = doc["plan"]["epsilon_exp"] = doc["plan"]["tau_exp"] = LONG_NINES
    path = tmp_path / "epsilon.json"
    _write(path, doc)
    assert main(["verify", "--input", str(path)]) == 3
    assert capsys.readouterr().err == (
        "hypothesis violation: ball 0: M = 7 fails the strict tau bound; M must be an integer"
        " >= the minimal value <a value too long to print>\n"
    )


# Fraction builds a decimal's power of ten in full: '1e10000000' took 9 s
# and each further exponent digit about 35 times longer, so a separate
# process turns a lost digit limit into a timeout
LONG_DECIMALS = ("1e4301", "1e-4301", "1.5e10000000", "-1E999999999")


@pytest.mark.parametrize("text", LONG_DECIMALS)
@pytest.mark.parametrize("where", ["file", "--alpha", "--beta", "--start"])
def test_long_decimal_exits_2_promptly(sources, tmp_path, text, where):
    path = tmp_path / "doc.json"
    if where == "file":
        doc = copy.deepcopy(sources["ex2"])
        doc["epsilon_exp"] = text
        argv, named = ["glue", "--input", str(path)], "problem.epsilon_exp"
    elif where == "--start":
        doc = sources["result"]
        argv, named = ["orbit", "--input", str(path), f"--start={text}"], "point"
    else:
        doc = None
        values = {"--alpha": "2", "--beta": "1/3", where: text}
        argv = ["example", "--name", "ex1", *(f"{k}={v}" for k, v in values.items())]
        named = where
    if doc is not None:
        _write(path, doc)
    run = subprocess.run(
        [sys.executable, "-m", "padicglue.cli", *argv],
        capture_output=True, text=True, timeout=CASE_SECONDS,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert run.returncode == 2
    assert run.stderr == f"limit exceeded: {named}: {text!r} is above the limit of 4300 digits\n"
