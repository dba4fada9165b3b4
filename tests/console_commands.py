"""The console commands that CI runs from an editable install, as one list.

Each entry of COMMANDS gives the arguments after the command prefix, the
seconds the command may take and the exit code it must end with.  `run`
writes the two generated problems, then runs every entry in a working
directory with a given prefix.  CI runs the list through the installed
console script:

    python tests/console_commands.py padicglue

and `tests/test_console_commands.py` runs the same list in tier-1 with the
prefix `python -m padicglue.cli`.  Every command runs, also after one
fails, and the failures are reported together.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = Path(__file__).resolve().parents[1] / "presets"
EX1, EX2 = str(PRESETS / "ex1.json"), str(PRESETS / "ex2.json")

# (arguments, timeout in seconds, expected exit code), in order: later
# entries read the result files that earlier ones write
COMMANDS = (
    (["example", "--name", "ex2"], 120, 0),
    (["example", "--name", "ex1", "--alpha", "2", "--beta", "1/3"], 120, 0),
    (["glue", "--input", EX1, "--output", "r1.json"], 120, 0),
    (["verify", "--input", "r1.json"], 120, 0),
    # the deepest sample walk the cap allows (serialize.SAMPLES_LIMIT)
    (["verify", "--input", "r1.json", "--samples", "1000"], 60, 0),
    (["glue", "--input", EX2, "--output", "r.json"], 120, 0),
    (["verify", "--input", "r.json"], 120, 0),
    # ex2's F has sqrt 3 parts, so its deepest shells exercise the
    # integer-built sample points and the one-digit valuations
    (["verify", "--input", "r.json", "--samples", "1000"], 60, 0),
    (["orbit", "--input", "r.json", "--start", "9", "--steps", "200"], 120, 0),
    # ex2 with every M_i = 128, so deg F = 257/384: the only glue of degree
    # above ~100 that any test or step runs
    (["glue", "--input", "ex2-m128.json", "--output", "r128.json"], 300, 0),
    (["verify", "--input", "r128.json"], 300, 0),
    # 16 balls B(a; 17^-1), a = 0..15, maps z -> (a + 1)(z - a) + a mod 7:
    # F has sqrt 17 parts, and 17 has no square root mod the fixed primes
    # the gcd pretest once used, which sent this glue to the exact Euclid
    (["glue", "--input", "p17.json", "--output", "r17.json"], 120, 0),
    (["verify", "--input", "r17.json"], 120, 0),
)


def make_problems(where: Path) -> None:
    """Write ex2-m128.json and p17.json, the problems COMMANDS generates."""
    ex2 = json.loads(Path(EX2).read_text())
    ex2["M_override"] = [128] * 3
    (where / "ex2-m128.json").write_text(json.dumps(ex2))

    def k(x: int) -> dict:
        return {"a": str(x), "b": "0"}

    models = [
        {"ball": {"center": k(a), "radius_exp": "1"},
         "map": {"num": [k(a % 7 - (a + 1) * a), k(a + 1)]}}
        for a in range(16)
    ]
    p17 = {"prime": 17, "epsilon_exp": "2", "models": models}
    (where / "p17.json").write_text(json.dumps(p17))


def run(prefix: list, where: Path) -> list:
    """Run every entry of COMMANDS as prefix + arguments in `where`, after
    make_problems, printing each command and its output as it runs; return
    one line per command that timed out or ended with another exit code."""
    make_problems(where)
    failures = []
    for args, timeout, code in COMMANDS:
        command = " ".join(args)
        print(f"$ {command}", flush=True)
        try:
            done = subprocess.run(
                [*prefix, *args], cwd=where, timeout=timeout, text=True, stderr=subprocess.PIPE
            )
        except subprocess.TimeoutExpired:
            failures.append(f"{command}: still running after {timeout} s")
            continue
        print(done.stderr, end="", flush=True)
        if done.returncode != code:
            failures.append(f"{command}: exit {done.returncode}, expected {code}: {done.stderr}")
    return failures


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/console_commands.py PREFIX...  (e.g. padicglue)")
    with tempfile.TemporaryDirectory() as tmp:
        failed = run(sys.argv[1:], Path(tmp))
    sys.exit("\n".join(["console commands failed:", *failed]) if failed else 0)
