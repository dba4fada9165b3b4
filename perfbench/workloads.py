"""The four benchmark workloads: suite, sweep, verify, orbits.

Each workload builds its inputs and the ops of one cycle in ``setup``
(repeatable; the last build is kept), runs one op, and checks one op's
output.  Ops call the library only through module
attributes (``pg.plan_gluing``, ``serialize.write_json``, ``cli.main``),
so the tracer's patched bindings are the ones called.

Every checked output is reduced to a sha256 digest and compared with the
digest stored for its input key in ``digests.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import padicglue as pg
import padicglue.cli as cli
import padicglue.presets as presets
import padicglue.serialize as serialize

import inputs

GLUE_SAMPLES = 8  # glue's default samples per ball
VERIFY_SAMPLES = 100  # verify's default samples per ball


def sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(doc: dict) -> str:
    """Digest of the plan, F and certificate sections of a result document."""
    return sha256_json({k: doc[k] for k in ("plan", "F", "certificate")})


def glue(inst: inputs.GlueInstance, out_path: Path, samples: int = GLUE_SAMPLES) -> dict:
    """One `glue --output`: plan, build F, certify, write the result file."""
    plan = pg.plan_gluing(inst.models, inst.epsilon)
    F = pg.build_F(inst.models, plan)
    cert = pg.certify_theorem1(F, inst.models, plan, samples=samples)
    doc = serialize.result_to_json(inst.p, inst.epsilon, inst.models, plan, F, cert)
    serialize.write_json(out_path, doc)
    return doc


def check_glue(key: str, doc: dict, digests: dict) -> tuple:
    problems = []
    cert = doc["certificate"]
    if not cert["passes"]:
        problems.append("certificate fails")
    digest = result_digest(doc)
    if digests is not None and digests.get(key) != digest:
        problems.append("result digest differs from the stored one")
    return digest, problems


@dataclass
class Op:
    """One unit of work; `size` is the problem size the op reports against."""

    key: str
    size: int
    payload: object
    setup_problems: list = field(default_factory=list)


def glue_op(inst: inputs.GlueInstance) -> Op:
    return Op(inst.key, len(inst.models), inst)


class Workload:
    name = ""
    # how an op's time follows the reference loop's (refclock.py) between
    # the host's fast and slow states: op time scales by (loop time)^exponent
    speed_exponent = 1.0

    def __init__(self, seed: int, out_dir: Path, digests: dict | None, tiny: bool = False):
        self.seed = seed
        self.out_dir = out_dir
        self.digests = digests
        self.tiny = tiny
        out_dir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Build the inputs and set `self.ops`, the ops of one cycle."""
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output) -> tuple:
        """Return (digest, problems) for one op's output."""
        raise NotImplementedError


class GlueWorkload(Workload):
    """Shared op for suite and sweep: one full glue per instance."""

    def run(self, op: Op):
        return glue(op.payload, self.out_dir / "glue-result.json")

    def check(self, op: Op, output) -> tuple:
        return check_glue(op.key, output, self.digests)


class Suite(GlueWorkload):
    """Many small random problems: p in {2,3,5}, 2-4 balls, degree <= 3."""

    name = "suite"

    def setup(self) -> None:
        keys = inputs.suite_keys(self.seed, self.tiny)
        self.ops = [glue_op(inputs.suite_instance(key)) for key in keys]


class Sweep(GlueWorkload):
    """One glue per n of the ladder at p = 23, n rising to 20."""

    name = "sweep"

    def setup(self) -> None:
        keys = inputs.sweep_keys(self.seed, self.tiny)
        self.ops = [glue_op(inputs.sweep_instance(key)) for key in keys]


@dataclass(frozen=True)
class VerifyFile:
    path: Path
    expect_exit: int


class Verify(Workload):
    """`verify --samples 100` of result files written during set-up."""

    name = "verify"

    def setup(self) -> None:
        files = self.out_dir / "files"
        files.mkdir(exist_ok=True)
        self.ops = self.preset_ops("ex2", files)
        if not self.tiny:
            self.ops.extend(self.preset_ops("ex1", files))
        for key in inputs.verify_suite_keys(self.seed, self.tiny):
            self.ops.append(self.result_file_op(inputs.suite_instance(key), files))
        if not self.tiny:
            sweep = inputs.sweep_instance(inputs.verify_sweep_key(self.seed))
            self.ops.append(self.result_file_op(sweep, files))

    def result_file_op(self, inst: inputs.GlueInstance, files: Path) -> Op:
        """Glue a generated instance to a result file that verify must pass."""
        path = files / (inst.key.replace("/", "-") + ".json")
        _, problems = check_glue(inst.key, glue(inst, path), self.digests)
        file = VerifyFile(path, cli.EXIT_PASS)
        return Op("verify/" + inst.key, len(inst.models), file, problems)

    def preset_ops(self, name: str, files: Path) -> list:
        """The preset's result file and its mis-paired control."""
        if name == "ex2":
            models = presets.ex2_models()
            census = presets.ex2_census(models)
            eps = presets.EX2_EPSILON
        else:
            models = presets.ex1_models("3", "1/3")
            census = presets.ex1_census(models)
            eps = presets.ex1_epsilon(models, census)
        plan = pg.plan_gluing(models, eps)
        F = pg.build_F(models, plan)
        cert = pg.certify_theorem1(F, models, plan, samples=GLUE_SAMPLES)
        report = pg.verify_census(F, models, census)
        doc = serialize.result_to_json(
            3, eps, models, plan, F, cert, census=census, census_report=report
        )
        problems = []
        if not (cert.passes and report.passes):
            problems.append(f"{name} glue does not pass")
        if self.digests is not None and self.digests.get("glue/" + name) != result_digest(doc):
            problems.append(f"{name} result digest differs from the stored one")
        if name == "ex2":
            K = pg.FieldConfig(3)
            wanted = [pg.Ball(K(c), pg.Radius(e)) for c, e in ((0, 3), (3, 1), (6, 2))]
            for ch, want in zip(cert.checks, wanted):
                if ch.image is None or not ch.image.same_set(want):
                    problems.append(f"ex2 image of ball {ch.index} is {ch.image}, wanted {want}")
        path = files / f"{name}.json"
        serialize.write_json(path, doc)

        crossed = presets.crossed_sum(models, plan)
        crossed_cert = pg.certify_theorem1(crossed, models, plan, samples=2)
        crossed_problems = ["mis-paired control passes at glue time"] if crossed_cert.passes else []
        crossed_path = files / f"{name}-crossed.json"
        serialize.write_json(
            crossed_path, serialize.result_to_json(3, eps, models, plan, crossed, crossed_cert)
        )
        n = len(models)
        return [
            Op(f"verify/{name}", n, VerifyFile(path, cli.EXIT_PASS), problems),
            Op(
                f"verify/{name}-crossed",
                n,
                VerifyFile(crossed_path, cli.EXIT_FAIL),
                crossed_problems,
            ),
        ]

    def run(self, op: Op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(
                ["verify", "--input", str(op.payload.path), "--samples", str(VERIFY_SAMPLES)]
            )
        return code, out.getvalue()

    def check(self, op: Op, output) -> tuple:
        code, text = output
        problems = list(op.setup_problems)
        if code != op.payload.expect_exit:
            problems.append(f"exit code {code}, wanted {op.payload.expect_exit}")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests is not None and self.digests.get(op.key) != digest:
            problems.append("verify output digest differs from the stored one")
        return digest, problems


def orbit_op(key: str) -> Op:
    """Glue a fixed-point instance at the census tolerance."""
    inst = inputs.fixed_point_instance(key)
    eps = pg.epsilon_for_census(inst.models, inst.census)
    plan = pg.plan_gluing(inst.models, eps)
    return Op(key, inst.p, (inst, pg.build_F(inst.models, plan)))


class Orbits(Workload):
    """Hensel refinement of the attracting fixed point, then a long orbit."""

    name = "orbits"
    # big-integer arithmetic in C slows less than the interpreter-bound
    # reference loop when the host does: on the defining host, scaling by
    # the loop's factor to this power left the least spread over seeds
    speed_exponent = 0.7

    def setup(self) -> None:
        self.ops = [orbit_op(key) for key in inputs.orbit_keys(self.seed, self.tiny)]

    def run(self, op: Op):
        inst, F = op.payload
        zstar = pg.hensel_fixed_point(F, inst.attracting_center, inputs.HENSEL_TARGET)
        steps = pg.orbit(
            F, inst.orbit_start, inputs.ORBIT_STEPS, ref=zstar, precision=inputs.ORBIT_PRECISION
        )
        return zstar, steps

    def check(self, op: Op, output) -> tuple:
        inst, F = op.payload
        zstar, steps = output
        problems = []
        if not (F.eval(zstar) - zstar).valuation() >= inputs.HENSEL_TARGET:
            problems.append("Hensel result misses the target valuation")
        dists = [s.dist_exp for s in steps]
        if len(dists) != inputs.ORBIT_STEPS + 1 or any(d is None or d.is_infinite for d in dists):
            problems.append("orbit did not record finite distances at every step")
        elif not all(b > a for a, b in zip(dists, dists[1:])):
            problems.append("orbit distances do not rise strictly")
        digest = sha256_json(
            {
                "fixed_point": serialize.kelement_to_json(zstar),
                "orbit": serialize.orbit_to_json(steps),
            }
        )
        if self.digests is not None and self.digests.get(op.key) != digest:
            problems.append("orbit digest differs from the stored one")
        return digest, problems


WORKLOADS = {w.name: w for w in (Suite, Sweep, Verify, Orbits)}
