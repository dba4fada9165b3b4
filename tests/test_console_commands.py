"""CI's console commands, run locally through `python -m padicglue.cli`.

The list and its runner live in `console_commands.py`; CI runs the same
list through the installed `padicglue` script.  Each command must end
with its exit code and print the stdout whose sha256 the list records.
"""

import hashlib
import os
import sys

from console_commands import COMMANDS, run


def test_ci_console_commands_pass(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(sys.path))
    assert run([sys.executable, "-m", "padicglue.cli"], tmp_path) == []
    # each glue wrote its result where the verify after it read it
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["ex2-m128.json", "p17.json", "r.json", "r1.json", "r128.json", "r17.json"]


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
