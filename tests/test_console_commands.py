"""CI's console commands, run locally through `python -m padicglue.cli`.

The list and its runner live in `console_commands.py`; CI runs the same
list through the installed `padicglue` script.  Each command must end
with its exit code and print the stdout whose sha256 the list records.
"""

import hashlib
import os
import sys

from console_commands import COMMANDS, make_problems, run
from padicglue import cli


def test_ci_console_commands_pass(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(sys.path))
    assert run([sys.executable, "-m", "padicglue.cli"], tmp_path) == []
    # each glue wrote its result where the verify after it read it
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == [
        "ex2-m128.json", "p17.json", "p2.json", "r.json", "r1.json", "r128.json", "r17.json",
        "r2.json",
    ]


def test_runner_reports_every_command_that_fails(tmp_path):
    # a prefix that exits 3 whatever it is asked: every command is run and
    # named, none stops the list
    failed = run([sys.executable, "-c", "raise SystemExit(3)"], tmp_path)
    assert [line.split(":")[0] for line in failed] == [" ".join(a) for a, *_ in COMMANDS]
    assert all(": exit 3, expected 0: " in line for line in failed)


def test_runner_reports_every_stdout_that_drifts(tmp_path):
    # a prefix that exits 0 but prints another stdout: every command is
    # named once, with the digest it printed and the one it should have
    failed = run([sys.executable, "-c", "print('drift')"], tmp_path)
    got = hashlib.sha256(b"drift\n").hexdigest()
    assert failed == [
        f"{' '.join(args)}: stdout sha256 {got}, expected {digest}"
        for args, _, _, digest in COMMANDS
    ]


# the glue, verify and orbit entries, less the M_i = 128 pair and the
# 1,000-sample walks, which take most of the list's time
IN_PROCESS = [
    entry for entry in COMMANDS
    if entry[0][0] in ("glue", "verify", "orbit")
    and "1000" not in entry[0] and "128" not in " ".join(entry[0])
]


def test_console_commands_repeat_in_one_process(tmp_path, monkeypatch, capsys):
    # in-process callers such as the benchmark's verify op call cli.main
    # again and again: each run prints and exits as the first did, whatever
    # the per-process caches (the parser, shared exponents, valuation
    # rungs, primality and pretest primes) kept from the runs before it
    monkeypatch.chdir(tmp_path)
    make_problems(tmp_path)
    for _ in range(2):
        for args, _, code, digest in IN_PROCESS:
            assert cli.main(args) == code, args
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, args
