"""The console commands that CI runs from an editable install, as one list.

Each entry of COMMANDS gives the arguments after the command prefix, the
seconds the command may take, the exit code it must end with and the
sha256 of the stdout it must print, so a change in what the CLI prints
fails like a change in how it exits.  `run` writes the three generated
problems, then runs every entry in a working directory with a given
prefix.  CI runs the list through the installed console script:

    python tests/console_commands.py padicglue

and `tests/test_console_commands.py` runs the same list in tier-1 with the
prefix `python -m padicglue.cli`.  Every command runs, also after one
fails, and the failures are reported together.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = Path(__file__).resolve().parents[1] / "presets"
EX1, EX2 = str(PRESETS / "ex1.json"), str(PRESETS / "ex2.json")

# (arguments, timeout in seconds, expected exit code, sha256 of the expected
# stdout), in order: later entries read the result files that earlier ones
# write.  Every stdout names files by the relative paths given here, so no
# digest depends on the working directory
COMMANDS = (
    (["example", "--name", "ex2"], 120, 0,
     "6a07b71fda245e2e61e3bdd0199f363b6eb298f2bbdee3636db8fde9af83bb7f"),
    (["example", "--name", "ex1", "--alpha", "2", "--beta", "1/3"], 120, 0,
     "52aa2794050e9eb4ceae06d95196f3493eb7a24983b5a81ec4f9e57b38835a87"),
    (["glue", "--input", EX1, "--output", "r1.json"], 120, 0,
     "893a5ef86c4be9e497f2c2d8a1edd1bd79cf00a77b64826ae20a895ba0d3aaa0"),
    (["verify", "--input", "r1.json"], 120, 0,
     "329e38ed0d45c0488e42c60328a086001b9ea00df9286f9c19fa829fc76cc5ff"),
    # the deepest sample walk the cap allows (serialize.SAMPLES_LIMIT)
    (["verify", "--input", "r1.json", "--samples", "1000"], 60, 0,
     "288b54c63d1d9754abce186a28ac4a9697b07bce29df46473509cc34e3470ab9"),
    (["glue", "--input", EX2, "--output", "r.json"], 120, 0,
     "aa8aa9b455d709c18f8c673138c41d29d3b48661921226a379b57858bd2ddf12"),
    (["verify", "--input", "r.json"], 120, 0,
     "c8300a937ad0e6805e983dea7838fb47ef4594d594de59bb531966efb734c018"),
    # ex2's F has sqrt 3 parts, so its deepest shells exercise the
    # integer-built sample points and the one-digit valuations
    (["verify", "--input", "r.json", "--samples", "1000"], 60, 0,
     "db4ab41a10b401fa657df906297522e5614a6c33a66d2d56d6a20e1e520b2dab"),
    (["orbit", "--input", "r.json", "--start", "9", "--steps", "200"], 120, 0,
     "708bd4915bc65159e77767eb5b3277ab7be55cb61e7f7f75924ee53bb4e5e1c3"),
    # 3 sqrt 3 = a_0 + c_0 is a pole of ex2's F: the table's pole row
    (["orbit", "--input", "r.json", "--start", "0,3", "--steps", "3"], 60, 0,
     "cf3a7647ef31c4bbc8a79bacb45836672d5bd473783e5c03d02daf12344fde9a"),
    # ex2 with every M_i = 128, so deg F = 257/384: the only glue of degree
    # above ~100 that any test or step runs
    (["glue", "--input", "ex2-m128.json", "--output", "r128.json"], 300, 0,
     "325bc5e6884cb5fbccd6a6eab67785644c3e5a813bb3aa2aad72a42a822a3c3a"),
    (["verify", "--input", "r128.json"], 300, 0,
     "9ddb94c2dcc53da818bf4b8b63f02690539b6676499faaf6df996b4f5a5084f3"),
    # 16 balls B(a; 17^-1), a = 0..15, maps z -> (a + 1)(z - a) + a mod 7:
    # F has sqrt 17 parts, and 17 has no square root mod the fixed primes
    # the gcd pretest once used, which sent this glue to the exact Euclid
    (["glue", "--input", "p17.json", "--output", "r17.json"], 120, 0,
     "979df4670fec1c7182a48b4ec8f1780eecd58291b5c9d3c93c250c751608aae3"),
    (["verify", "--input", "r17.json"], 120, 0,
     "78a8245c94490d8a1df2dd5db3a665b4605876bb7c1009fb88eca7efce7c29f0"),
    # p = 2 moves one shell inward per sample, so 1,000 samples reach
    # a + 2^(r + 999); ball 0's center 1/2 has valuation -1, and the
    # census witness is an open disk
    (["glue", "--input", "p2.json", "--output", "r2.json"], 120, 0,
     "6a6b1df4c5fad80b2d8844633d21f2fb18d3e3aab6557767964630ac8e0acd59"),
    (["verify", "--input", "r2.json", "--samples", "1000"], 60, 0,
     "ac62921cb830af30915d8160ae85c39eef388ba7ae1bc12cf79a13b63d062c59"),
)


def make_problems(where: Path) -> None:
    """Write ex2-m128.json, p17.json and p2.json, the problems COMMANDS
    generates."""
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

    # B(1/2; 2^-2) under z -> 2z and B(0; 2^-2) under z -> 2z + 4z^2, whose
    # attracting fixed point 0 the open disk D(0; 2^-2) witnesses
    models = [
        {"ball": {"center": k(x), "radius_exp": "2"}, "map": {"num": [k(c) for c in num]}}
        for x, num in (("1/2", (0, 2)), (0, (0, 2, 4)))
    ]
    disk = {"center": k(0), "kind": "open", "radius_exp": "2"}
    census = {"counts": [[0, 0, 0], [1, 0, 0]],
              "witnesses": [{"ball_index": 1, "expected": "attracting", "disk": disk}]}
    p2 = {"prime": 2, "epsilon_exp": "4", "models": models, "census": census}
    (where / "p2.json").write_text(json.dumps(p2))


def run(prefix: list, where: Path) -> list:
    """Run every entry of COMMANDS as prefix + arguments in `where`, after
    make_problems, printing each command and its output as it runs; return
    one line per command that timed out, ended with another exit code or
    printed another stdout."""
    make_problems(where)
    failures = []
    for args, timeout, code, digest in COMMANDS:
        command = " ".join(args)
        print(f"$ {command}", flush=True)
        try:
            done = subprocess.run([*prefix, *args], cwd=where, timeout=timeout, capture_output=True)
        except subprocess.TimeoutExpired:
            failures.append(f"{command}: still running after {timeout} s")
            continue
        stderr = done.stderr.decode(errors="replace")
        print(done.stdout.decode(errors="replace") + stderr, end="", flush=True)
        got = hashlib.sha256(done.stdout).hexdigest()
        if done.returncode != code:
            failures.append(f"{command}: exit {done.returncode}, expected {code}: {stderr}")
        elif got != digest:
            failures.append(f"{command}: stdout sha256 {got}, expected {digest}")
    return failures


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/console_commands.py PREFIX...  (e.g. padicglue)")
    with tempfile.TemporaryDirectory() as tmp:
        failed = run(sys.argv[1:], Path(tmp))
    sys.exit("\n".join(["console commands failed:", *failed]) if failed else 0)
