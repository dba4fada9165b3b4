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
import random
import time
from pathlib import Path

import pytest

from padicglue.cli import main

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
