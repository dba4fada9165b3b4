"""Exit-code contract and output of the command line front end."""

import ast
import copy
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import load_perfbench, shared_pole_problem
from padicglue import (
    Ball, FieldConfig, KElement, LocalModel, Poly, Radius, RationalMap, build_F,
    certify_theorem1, epsilon_for_census, hensel_fixed_point, orbit, plan_gluing,
    uniformizer_power,
)
from padicglue import cli
from padicglue.cli import main
from padicglue.gluing import M_LIMIT, GluingPlan, _glued_sum
from padicglue.presets import (
    EX2_EPSILON, crossed_sum, ex1_census, ex1_epsilon, ex1_models, ex2_models, ex2_problem,
)
from padicglue.serialize import (
    SAMPLES_LIMIT, STEPS_LIMIT, kelement_from_json, kelement_to_json, orbit_to_json,
    problem_from_json, problem_to_json, ratmap_from_json, read_json, result_to_json, write_json,
)

K3 = FieldConfig(3)
Z = Poly.x(3)
ROOT = Path(__file__).resolve().parents[1]
# a rational of 4,002 characters, below Python's 4,300-digit print limit
LONG = "1/" + "7" * 4000


@pytest.fixture(scope="module")
def ex2_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("ex2")
    problem = d / "problem.json"
    result = d / "result.json"
    write_json(problem, ex2_problem())
    code = main(["glue", "--input", str(problem), "--output", str(result)])
    assert code == 0
    return problem, result


class TestGlue:
    def test_reference_problem_passes(self, ex2_paths, capsys):
        problem, _ = ex2_paths
        assert main(["glue", "--input", str(problem)]) == 0
        out = capsys.readouterr().out
        assert "M 7" in out
        assert "certificate: PASS" in out
        assert "census: PASS" in out
        assert "orbit from 9 (ref 0)" in out

    def test_overlapping_balls_exit_3(self, tmp_path, capsys):
        models = [
            LocalModel(RationalMap(3 * Z), Ball(K3(0), Radius(2))),
            LocalModel(RationalMap(Z), Ball(K3(9), Radius(3))),
        ]
        path = tmp_path / "overlap.json"
        write_json(path, problem_to_json(3, Radius(3), models))
        assert main(["glue", "--input", str(path)]) == 3
        assert "balls not pairwise disjoint" in capsys.readouterr().err

    def test_pole_on_ball_exit_3(self, tmp_path, capsys):
        doc = {
            "prime": 3,
            "epsilon_exp": "3",
            "models": [
                {
                    "map": {"num": ["1"], "den": ["0", "1"]},
                    "ball": {"center": "0", "radius_exp": "2", "kind": "closed"},
                },
                {
                    "map": {"num": ["0", "1"]},
                    "ball": {"center": "3", "radius_exp": "2", "kind": "closed"},
                },
            ],
        }
        path = tmp_path / "pole.json"
        write_json(path, doc)
        assert main(["glue", "--input", str(path)]) == 3
        assert "pole" in capsys.readouterr().err

    def test_readme_problem_example_glues(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Problem files.*?```json\n(.*?)```", readme, re.S).group(1)
        doc = json.loads(block)
        prob = problem_from_json(doc)
        assert len(prob["models"]) == 1 and prob["delta_override"] is not None
        path = tmp_path / "readme.json"
        write_json(path, doc)
        assert main(["glue", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "certificate: PASS" in out and "census: PASS" in out

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["glue", "--input", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ nope")
        assert main(["glue", "--input", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [b"[" * 5000 + b"]" * 5000, b"\xff\xfe{}"],
        ids=["nested-deeper-than-the-recursion-limit", "not-utf-8"],
    )
    def test_unreadable_json_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "unreadable.json"
        path.write_bytes(text)
        assert main(["glue", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"parse error: {path}: invalid JSON")

    def test_named_parse_diagnostic_exit_2(self, tmp_path, capsys):
        doc = copy.deepcopy(ex2_problem())
        doc["models"][1]["ball"]["radius_exp"] = "5/2"
        path = tmp_path / "halfexp.json"
        write_json(path, doc)
        assert main(["glue", "--input", str(path)]) == 2
        assert "problem.models[1].ball.radius_exp" in capsys.readouterr().err

    def test_non_prime_exit_2(self, tmp_path, capsys):
        doc = copy.deepcopy(ex2_problem())
        doc["prime"] = 4
        path = tmp_path / "composite.json"
        write_json(path, doc)
        assert main(["glue", "--input", str(path)]) == 2
        assert "problem.prime: expected an integer prime, got 4" in capsys.readouterr().err

    def test_wrong_census_counts_exit_1(self, tmp_path, capsys):
        doc = copy.deepcopy(ex2_problem())
        doc["census"]["counts"] = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        path = tmp_path / "miscount.json"
        write_json(path, doc)
        assert main(["glue", "--input", str(path)]) == 1
        assert "census: FAIL" in capsys.readouterr().out

    def test_null_c_override_means_default(self, ex2_paths, tmp_path):
        _, result = ex2_paths
        doc = ex2_problem()
        doc["c_override"] = [None, None, None]
        problem, out = tmp_path / "cnull.json", tmp_path / "cnull.out.json"
        write_json(problem, doc)
        assert main(["glue", "--input", str(problem), "--output", str(out)]) == 0
        assert out.read_bytes() == result.read_bytes()

    def test_partial_overrides_glue(self, tmp_path, capsys):
        doc = ex2_problem()
        doc["M_override"] = [9, None, 8]
        doc["c_override"] = [{"a": "0", "b": "3"}, None, None]
        path = tmp_path / "partial.json"
        write_json(path, doc)
        assert main(["glue", "--input", str(path)]) == 0
        assert "M 9" in capsys.readouterr().out

    @pytest.mark.parametrize("command, where", [("glue", "problem"), ("verify", "result")])
    def test_huge_prime_exit_2_promptly(self, ex2_paths, tmp_path, command, where):
        # trial division of 2^61 - 1 would run for hours; a separate process
        # turns a missing bound into a timeout instead of a hung suite
        problem, result = ex2_paths
        doc = read_json(problem if command == "glue" else result)
        doc["prime"] = 2**61 - 1
        path = tmp_path / "huge.json"
        write_json(path, doc)
        run = subprocess.run(
            [sys.executable, "-m", "padicglue.cli", command, "--input", str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert run.returncode == 2
        assert run.stderr.startswith(f"parse error: {where}.prime: must be below 2^31")

    @pytest.mark.parametrize(
        "value, echo",
        [
            (json.dumps("1" * 1_000_000), "bad rational '111111111111"),
            ("[" * 980 + "]" * 980, "expected an exact rational string, got [[[[[[["),
        ],
        ids=["million-char-string", "980-deep-list"],
    )
    def test_offending_value_echo_is_cut_short(self, tmp_path, value, echo):
        # the whole value used to be echoed: a 1,000,064-byte stderr line
        # for the string, one bracket per level for the list
        doc = copy.deepcopy(ex2_problem())
        doc["models"][0]["ball"]["radius_exp"] = "@"
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc).replace('"@"', value))
        run = subprocess.run(
            [sys.executable, "-m", "padicglue.cli", "glue", "--input", str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert run.returncode == 2
        assert run.stderr.startswith(
            f"parse error: problem.models[0].ball.radius_exp: {echo}"
        )
        assert run.stderr.count("\n") == 1 and len(run.stderr.encode()) < 300

    @pytest.mark.parametrize(
        "edit, code, start",
        [
            (lambda d: d["census"]["witnesses"][0]["disk"]["center"].__setitem__("a", LONG),
             2, "parse error: problem.census: census is malformed: witness disk D(1/777"),
            (lambda d: d["models"][0]["map"]["num"][0].__setitem__("a", LONG),
             3, "hypothesis violation: declared image B(0; 3^(-3)) differs from computed"
                " image B(1/777"),
            # dividing by a 4,000-digit constant gives an image center of
            # more digits than Python prints
            (lambda d: (d["models"][0]["map"]["num"][0].__setitem__("a", LONG),
                        d["models"][0]["map"]["den"][0].__setitem__("a", "7" * 4000 + "/11")),
             3, "hypothesis violation: declared image B(0; 3^(-3)) differs from computed"
                " image <a value too long to print>"),
        ],
        ids=["census-witness-center", "map-coefficient", "unprintable-image-center"],
    )
    def test_echoed_ball_is_cut_short(self, tmp_path, edit, code, start):
        # census and hypothesis diagnostics used to print whole balls: a
        # 4,098-byte and a 4,092-byte stderr line, and a traceback for the last
        doc = read_json(ROOT / "presets" / "ex2.json")
        edit(doc)
        path = tmp_path / "long.json"
        write_json(path, doc)
        run = subprocess.run(
            [sys.executable, "-m", "padicglue.cli", "glue", "--input", str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert run.returncode == code
        assert run.stderr.startswith(start)
        assert run.stderr.count("\n") == 1 and len(run.stderr.encode()) < 300

    @pytest.mark.parametrize("output", [False, True], ids=["stdout-only", "with-output"])
    def test_unprintable_certificate_value_exit_2(self, tmp_path, output):
        # the image center of ball 0 is 11 * 3^10 / 7...7^2, over 8,000
        # digits, and still inside the declared image; printing it used to
        # end in a ValueError traceback (exit 1)
        doc = read_json(ROOT / "presets" / "ex2.json")
        doc["models"][0]["map"]["num"][0]["a"] = "59049/" + "7" * 4000
        doc["models"][0]["map"]["den"][0]["a"] = "7" * 4000 + "/11"
        path, result = tmp_path / "long.json", tmp_path / "result.json"
        write_json(path, doc)
        argv = ["glue", "--input", str(path)] + (["--output", str(result)] if output else [])
        run = subprocess.run(
            [sys.executable, "-m", "padicglue.cli", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert run.returncode == 2
        assert run.stderr.startswith("limit exceeded: a value of more than ")
        assert run.stderr.count("\n") == 1 and len(run.stderr.encode()) < 300
        assert not result.exists()

    def test_shared_pole_glues_promptly(self, tmp_path):
        # every local map has the pole pair (z - 11)(3z + 1); reducing each
        # partial sum by a primitive remainder sequence took over a minute
        models, eps = shared_pole_problem()
        path = tmp_path / "shared-pole.json"
        write_json(path, problem_to_json(3, eps, models))
        run = subprocess.run(
            [sys.executable, "-m", "padicglue.cli", "glue", "--input", str(path)],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert run.returncode == 0, run.stderr
        assert "certificate: PASS\n" in run.stdout

    @pytest.mark.parametrize("override", [[9], [9, None, 8, 100]], ids=["short", "long"])
    def test_M_override_of_wrong_length_exit_3(self, tmp_path, capsys, override):
        doc = ex2_problem()
        doc["M_override"] = override
        path = tmp_path / "Mlength.json"
        write_json(path, doc)
        assert main(["glue", "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "hypothesis violation: M override must list 3 entries, one per ball\n"
        )

    def test_image_radius_above_one_prints_its_exponent(self, tmp_path, capsys):
        # the image of B(0; 3^-2) under z/27 is B(0; 3^1)
        models, _, _ = _hypothesis_breaking_result("unbounded")
        path = tmp_path / "unbounded.json"
        write_json(path, problem_to_json(3, Radius(3), models))
        assert main(["glue", "--input", str(path)]) == 3
        assert capsys.readouterr().err == (
            "hypothesis violation: map 0 sends ball 0 onto B(0; 3^(1)),"
            " which is not inside B(0; 1)\n"
        )

    def test_indifferent_witness_off_fixed_point_fails_census(self, tmp_path, capsys):
        # f_1 = (z^2 + 3)/3 does not fix the center 3 of its ball, so the
        # indifferent-case hypotheses fail instead of raising
        doc = read_json(ROOT / "presets" / "ex1.json")
        doc["models"][1]["map"]["num"][0] = 3
        path = tmp_path / "offcenter.json"
        write_json(path, doc)
        assert main(["glue", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert "expected indifferent, got inconclusive" in captured.out
        assert "hypotheses False" in captured.out
        assert "census: FAIL" in captured.out
        assert captured.err == ""

    def test_truncated_census_exit_2(self, tmp_path, capsys):
        doc = copy.deepcopy(ex2_problem())
        doc["census"]["counts"] = doc["census"]["counts"][:2]
        path = tmp_path / "shortcensus.json"
        write_json(path, doc)
        assert main(["glue", "--input", str(path)]) == 2
        assert "census is malformed" in capsys.readouterr().err


def _hypothesis_breaking_result(name):
    """Models, plan and F of a result that glue would refuse but whose
    certificate passes: two overlapping balls, or a map that sends its
    ball onto B(0; 3^1)."""
    s = Radius(Fraction(3, 2))
    if name == "overlapping":
        models = [LocalModel(RationalMap(3 * Z), Ball(K3(0), Radius(r))) for r in (2, 3)]
        plan = GluingPlan(deltas=(Radius(1),) * 2, s=(s, Radius(2)), c=(K3(0, 3), K3(9)),
                          M=(9, 5), tau=Radius(4), epsilon=Radius(3))
        return models, plan, RationalMap(3 * Z)
    models = [LocalModel(RationalMap(Z * Fraction(1, 27)), Ball(K3(0), Radius(2))),
              LocalModel(RationalMap(Z), Ball(K3(3), Radius(2)))]
    plan = GluingPlan(deltas=(Radius(1),) * 2, s=(s, s), c=(uniformizer_power(3, s),) * 2,
                      M=(12, 12), tau=Radius(3), epsilon=Radius(3))
    return models, plan, _glued_sum(models, plan, 0)


class TestVerify:
    @pytest.mark.parametrize("name, err", [
        ("overlapping", "balls not pairwise disjoint: balls 0 and 1 intersect"),
        ("unbounded", "map 0 sends ball 0 onto B(0; 3^(1)), which is not inside B(0; 1)"),
    ], ids=["overlapping", "unbounded"])
    def test_result_breaking_a_hypothesis_exit_3(self, tmp_path, name, err):
        # both certificates pass, so only the hypothesis check refuses them,
        # as it refuses the same problems in glue
        models, plan, F = _hypothesis_breaking_result(name)
        cert = certify_theorem1(F, models, plan)
        assert cert.passes
        path = tmp_path / f"{name}.json"
        write_json(path, result_to_json(3, plan.epsilon, models, plan, F, cert))
        run = subprocess.run(
            [sys.executable, "-m", "padicglue.cli", "verify", "--input", str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert (run.returncode, run.stdout) == (3, "")
        assert run.stderr == f"hypothesis violation: {err}\n"

    def test_roundtrip_passes(self, ex2_paths, capsys):
        _, result = ex2_paths
        assert main(["verify", "--input", str(result), "--samples", "100"]) == 0
        assert "verification passed with 100 samples" in capsys.readouterr().out

    def test_serialize_parse_identity(self, ex2_paths):
        from padicglue.serialize import result_from_json, result_to_json

        _, result = ex2_paths
        doc = read_json(result)
        res = result_from_json(doc)
        again = result_to_json(
            res["p"], res["epsilon"], res["models"], res["plan"], res["F"],
            res["certificate"], census=res["census"],
        )
        for key in ("prime", "epsilon_exp", "models", "plan", "F", "certificate", "census"):
            assert again[key] == doc[key]

    def test_visible_perturbation_fails(self, ex2_paths, tmp_path, capsys):
        _, result = ex2_paths
        doc = read_json(result)
        c0 = doc["F"]["num"][0]
        c0["a"] = str(int(c0["a"]) + 3**10)
        path = tmp_path / "tampered.json"
        write_json(path, doc)
        assert main(["verify", "--input", str(path)]) == 1
        assert "verification FAILED" in capsys.readouterr().out

    def test_deep_perturbation_still_passes(self, ex2_paths, tmp_path):
        # below the certification resolution the map is indistinguishable.
        # |D| = 3^(-49/2) on every ball, so adding 3^k to N moves F by
        # valuation k - 49/2; the stored witnesses reach 11/2, and k = 40
        # leaves them unmoved too
        _, result = ex2_paths
        doc = read_json(result)
        c0 = doc["F"]["num"][0]
        c0["a"] = str(int(c0["a"]) + 3**40)
        path = tmp_path / "deep.json"
        write_json(path, doc)
        assert main(["verify", "--input", str(path)]) == 0

    def test_tampered_plan_exit_3(self, ex2_paths, tmp_path, capsys):
        _, result = ex2_paths
        doc = read_json(result)
        doc["plan"]["M"] = [6, 7, 7]
        path = tmp_path / "weakplan.json"
        write_json(path, doc)
        assert main(["verify", "--input", str(path)]) == 3
        assert "hypothesis violation" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["verify", "--input", str(tmp_path / "absent.json")]) == 2

    def test_non_prime_exit_2(self, ex2_paths, tmp_path, capsys):
        _, result = ex2_paths
        doc = read_json(result)
        doc["prime"] = 4
        path = tmp_path / "composite.json"
        write_json(path, doc)
        assert main(["verify", "--input", str(path)]) == 2
        assert "result.prime: expected an integer prime, got 4" in capsys.readouterr().err

    def test_pole_on_a_witness_disk_fails_the_census(self, ex2_paths, tmp_path, capsys):
        # F = N/z has a pole at 0, the center of ball 0 and of its witness
        # disk: the census reports the witness inconclusive instead of
        # raising, and the stored claims are still compared
        _, result = ex2_paths
        doc = read_json(result)
        doc["F"]["den"] = [{"a": "0", "b": "0"}, {"a": "1", "b": "0"}]
        path = tmp_path / "pole.json"
        write_json(path, doc)
        assert main(["verify", "--input", str(path), "--samples", "4"]) == 1
        captured = capsys.readouterr()
        assert "certificate: FAIL" in captured.out
        assert ("witness in ball 0 at D(0; 3^(-2)): expected attracting, got inconclusive"
                in captured.out)
        assert "census: FAIL" in captured.out
        assert captured.out.endswith("verification FAILED\n")
        assert "error:" not in captured.err
        assert ("result.census_report.witnesses[0].got: stored 'attracting',"
                " recomputed 'inconclusive'") in captured.err.splitlines()


class TestOneShiftPerCenter:
    """glue, verify and example certify and then take the census on one F,
    which keeps its Taylor shifts: every preset witness disk is centered at
    its ball's center, so F's numerator and denominator each get one shift
    per ball, where certificate and census used to start two about each
    witnessed center."""

    def _assert_one_shift_per_ball(self, shifted, result):
        doc = read_json(result)
        F = ratmap_from_json(doc["F"], 3, "F")
        centers = sorted(str(kelement_from_json(m["ball"]["center"], 3, "center"))
                         for m in doc["models"])
        for poly in (F.num, F.den):
            assert sorted(str(a) for P, a in shifted if P == poly) == centers
        assert doc["census_report"]["passes"]

    @pytest.mark.parametrize("name", ["ex1", "ex2"])
    def test_verify(self, tmp_path, spy_shifts, capsys, name):
        result = tmp_path / f"{name}.json"
        assert main(["glue", "--input", str(ROOT / "presets" / f"{name}.json"),
                     "--output", str(result)]) == 0
        shifted = spy_shifts()
        assert main(["verify", "--input", str(result), "--samples", "4"]) == 0
        assert "census: PASS" in capsys.readouterr().out
        self._assert_one_shift_per_ball(shifted, result)

    def test_glue(self, tmp_path, spy_shifts):
        result = tmp_path / "ex1.json"
        shifted = spy_shifts()
        assert main(["glue", "--input", str(ROOT / "presets" / "ex1.json"),
                     "--output", str(result)]) == 0
        self._assert_one_shift_per_ball(shifted, result)


def _set(*path, value):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return mutate


def _drop(*path):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]

    return mutate


class TestMalformedInput:
    """Bad field values exit 2 with a parse error that names the field,
    never a traceback and never a silently truncated number."""

    @pytest.mark.parametrize(
        "command, mutate, where",
        [
            ("verify", _set("models", 0, value="x"), "result.models[0]"),
            ("verify", _set("certificate", "balls", 0, value=5), "result.certificate.balls[0]"),
            ("verify", _drop("certificate", "balls", 0, "index"), "result.certificate.balls[0]"),
            ("verify", _set("epsilon_exp", value="1/3"), "result.epsilon_exp"),
            ("verify", _set("certificate", "epsilon_exp", value="1/3"),
             "result.certificate.epsilon_exp"),
            ("verify", _set("plan", "M", 0, value=7.5), "result.plan.M"),
            ("verify", _set("plan", "M", 1, value=7.5),
             "result.plan.M[1]: expected an integer, got 7.5"),
            ("verify", _set("plan", "c", 2, value="x"), "result.plan.c[2]: bad rational 'x'"),
            ("verify", _set("plan", "delta_exps", 1, value="1/3"), "result.plan.delta_exps[1]"),
            ("verify", _set("certificate", "balls", 0, "index", value=0.0),
             "result.certificate.balls[0].index"),
            ("verify", _set("certificate", "balls", 0, "index", value=True),
             "result.certificate.balls[0].index"),
            ("verify", _set("certificate", "degree", "num", value=9.0),
             "result.certificate.degree.num"),
            ("verify", _set("plan", "delta_exps", value=5), "result.plan.delta_exps"),
            ("verify", _set("plan", "M", value=5), "result.plan.M"),
            ("verify", _set("certificate", "balls", value=5), "result.certificate.balls"),
            ("verify", _set("certificate", "balls", 0, "witnesses", value=5),
             "result.certificate.balls[0].witnesses"),
            ("verify", _set("certificate", "balls", 0, "witnesses", 0, value=5),
             "result.certificate.balls[0].witnesses[0]"),
            ("glue", _set("orbits", 0, "steps", value="x"), "problem.orbits[0].steps"),
            ("glue", _set("orbits", 0, "steps", value=2.7), "problem.orbits[0].steps"),
            ("glue", _set("colour", value="red"), "problem: unknown key 'colour'"),
            ("verify", _set("metrics", value={}), "result: unknown key 'metrics'"),
            ("glue", _set("models", 0, "ball", "center", value={"re": "3"}),
             "problem.models[0].ball.center: unknown key 're'"),
            ("glue", _set("census", "witnesses", value=5), "problem.census.witnesses"),
            ("glue", _set("census", "counts", 0, 0, value=True), "problem.census.counts[0]"),
            ("glue", _set("census", "counts", 0, value=[-1, 0, 0]),
             "problem.census.counts[0]: must not be negative, got -1"),
            ("verify", _set("census", "counts", 1, 1, value=-1),
             "result.census.counts[1]: must not be negative, got -1"),
            ("verify", _set("census_report", "counts", 0, "got", 2, value=-3),
             "result.census_report.counts[0].got: must not be negative, got -3"),
            ("glue", _set("M_override", value=[True, None, None]), "problem.M_override"),
            ("glue", _set("M_override", value=[7, 7.5, None]),
             "problem.M_override[1]: expected an integer, got 7.5"),
            ("verify", _set("models", 0, "ball", "center", "b", value="1"),
             "result.models[0].ball.center"),
            ("verify", _set("models", 1, "ball", "radius_exp", value="5/2"),
             "result.models[1].ball.radius_exp"),
        ],
    )
    def test_named_parse_error_exit_2(self, ex2_paths, tmp_path, capsys, command, mutate, where):
        problem, result = ex2_paths
        doc = read_json(problem if command == "glue" else result)
        mutate(doc)
        path = tmp_path / "bad.json"
        write_json(path, doc)
        assert main([command, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and where in err

    @pytest.mark.parametrize(
        "mutate, err",
        [
            (_set("certificate", "epsilon_exp", value="1/3"),
             "result.certificate.epsilon_exp: valuation exponent must lie in (1/2)Z, got 1/3"),
            (_set("certificate", "balls", 0, "witnesses", 1, "diff_exp", "exp", value="5/4"),
             "result.certificate.balls[0].witnesses[1].diff_exp:"
             " valuation exponent must lie in (1/2)Z, got 5/4"),
            (_set("epsilon_exp", value="7/2"), "result.epsilon_exp: must be an integer, got 7/2"),
        ],
        ids=["half-integers", "witness", "integers"],
    )
    def test_exponent_diagnostics_exit_2(self, ex2_paths, tmp_path, capsys, mutate, err):
        # the exponent reader's two refusals, in full: an exponent outside
        # (1/2)Z, and one that is not an integer where one is required
        _, result = ex2_paths
        doc = read_json(result)
        mutate(doc)
        path = tmp_path / "bad.json"
        write_json(path, doc)
        assert main(["verify", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"parse error: {err}\n"

    @pytest.mark.parametrize(
        "mutate, where",
        [
            (_set("census_report", "witnesses", 0, "got", value="sideways"),
             "result.census_report.witnesses[0].got: unknown kind 'sideways'"),
            (_set("census_report", "passes", value="yes"),
             "result.census_report.passes: expected true or false"),
            (_set("census_report", "witnesses", 0, "c3_ok", value=0),
             "result.census_report.witnesses[0].c3_ok: expected true or false"),
            (_drop("census_report", "counts", 0, "got"),
             "result.census_report.counts[0]: missing"),
            (_set("census_report", "counts", 0, "got", value=[1, 0]),
             "result.census_report.counts[0].got: expected [n, m, l] integers"),
            (_set("census_report", "witnesses", 0, "colour", value="red"),
             "result.census_report.witnesses[0]: unknown key 'colour'"),
            (_drop("census"), "result.census_report: the result has no census"),
        ],
        ids=["got", "passes", "c3_ok", "missing", "triple", "unknown-key", "no-census"],
    )
    def test_census_report_parse_error_exit_2(self, ex2_paths, tmp_path, capsys, mutate, where):
        # a stored census report is read as strictly as the certificate
        _, result = ex2_paths
        doc = read_json(result)
        mutate(doc)
        path = tmp_path / "bad.json"
        write_json(path, doc)
        assert main(["verify", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and where in err

    @pytest.mark.parametrize("argv", [["verify", "--samples", "2"], ["orbit", "--start", "9"]],
                             ids=["verify", "orbit"])
    @pytest.mark.parametrize("F", [{"num": ["5"], "den": ["1"]}, {"num": [], "den": ["1"]}],
                             ids=["constant", "zero"])
    def test_constant_F_exit_2(self, ex2_paths, tmp_path, capsys, argv, F):
        # a constant map sends a ball to a point, so it has no image to certify
        _, result = ex2_paths
        doc = read_json(result)
        doc["F"] = F
        path = tmp_path / "constant.json"
        write_json(path, doc)
        assert main([argv[0], "--input", str(path), *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "parse error: result.F: a constant map sends no ball onto a ball\n"


class TestStoredClaims:
    """verify recomputes the certificate and refuses a result whose stored
    claims disagree with it, naming each field on stderr."""

    @pytest.mark.parametrize(
        "mutate, line",
        [
            (_set("epsilon_exp", value="9"), "result.epsilon_exp: stored 9, recomputed 3"),
            (_set("certificate", "passes", value=False),
             "result.certificate.passes: stored False, recomputed True"),
            (_set("certificate", "epsilon_exp", value="4"),
             "result.certificate.epsilon_exp: stored 4, recomputed 3"),
            (_set("certificate", "degree", "num", value=16),
             "result.certificate.degree: stored (16, 21), recomputed (15, 21)"),
            (lambda doc: doc["certificate"]["balls"].pop(),
             "result.certificate.balls: stored 2, recomputed 3"),
            (_set("certificate", "balls", 2, "index", value=5),
             "result.certificate.balls[2].index: stored 5, recomputed 2"),
            (_set("certificate", "balls", 0, "image_ok", value=False),
             "result.certificate.balls[0].image_ok: stored False, recomputed True"),
            (_set("certificate", "balls", 0, "eps_bound_exp", value={"exp": "100"}),
             "result.certificate.balls[0].eps_bound_exp: stored 100, recomputed 7/2"),
            (_set("certificate", "balls", 1, "image", "radius_exp", value="9"),
             "result.certificate.balls[1].image: stored B("),
        ],
    )
    def test_disagreeing_claim_fails(self, ex2_paths, tmp_path, capsys, mutate, line):
        _, result = ex2_paths
        doc = read_json(result)
        mutate(doc)
        path = tmp_path / "claims.json"
        write_json(path, doc)
        assert main(["verify", "--input", str(path), "--samples", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith("verification FAILED\n")
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(line)

    def test_tampered_witnesses_fail(self, tmp_path, capsys):
        # stored witnesses are a prefix of the recomputed ones, so each is
        # compared, point and diff_exp
        result = tmp_path / "ex2.json"
        assert main(["example", "--name", "ex2", "--output", str(result)]) == 0
        doc = read_json(result)
        witnesses = doc["certificate"]["balls"][0]["witnesses"]
        witnesses[1]["diff_exp"]["exp"] = "1000"
        witnesses[2]["point"]["a"] = "12345"  # outside B(0; 3^-2)
        write_json(result, doc)
        capsys.readouterr()
        assert main(["verify", "--input", str(result), "--samples", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith("verification FAILED\n")
        assert captured.err.splitlines() == [
            "result.certificate.balls[0].witnesses[1]: stored (9, 1000), recomputed (9, 7/2)",
            "result.certificate.balls[0].witnesses[2]: stored (12345, 7/2), recomputed (18, 7/2)",
        ]

    @pytest.mark.parametrize("samples", ["2", "30"])
    def test_witnesses_compared_up_to_the_shorter_list(self, ex2_paths, capsys, samples):
        # the result holds 8 witnesses per ball
        _, result = ex2_paths
        assert main(["verify", "--input", str(result), "--samples", samples]) == 0
        assert capsys.readouterr().err == ""

    def test_result_with_report_sections_verifies(self, ex2_paths, capsys):
        _, result = ex2_paths
        assert {"census_report", "orbit_tables"} <= read_json(result).keys()
        assert main(["verify", "--input", str(result), "--samples", "4"]) == 0
        assert capsys.readouterr().err == ""

    def test_tampered_census_report_fails(self, ex2_paths, tmp_path, capsys):
        _, result = ex2_paths
        doc = read_json(result)
        doc["census_report"]["witnesses"][0]["got"] = "repelling"
        doc["census_report"]["counts"][0]["got"] = [0, 1, 0]
        doc["census_report"]["passes"] = False
        path = tmp_path / "report.json"
        write_json(path, doc)
        assert main(["verify", "--input", str(path), "--samples", "4"]) == 1
        captured = capsys.readouterr()
        assert "census: PASS" in captured.out
        assert captured.out.endswith("verification FAILED\n")
        assert captured.err.splitlines() == [
            "result.census_report.passes: stored False, recomputed True",
            "result.census_report.witnesses[0].got: stored 'repelling', recomputed 'attracting'",
            "result.census_report.counts[0].got: stored (0, 1, 0), recomputed (1, 0, 0)",
        ]

    @pytest.mark.parametrize(
        "mutate, line",
        [
            (_set("census_report", "witnesses", 1, "ok", value=False),
             "result.census_report.witnesses[1].ok: stored False, recomputed True"),
            (_set("census_report", "witnesses", 0, "existence_certified", value=True),
             "result.census_report.witnesses[0].existence_certified: stored True,"
             " recomputed None"),
            (_set("census_report", "witnesses", 1, "c3_ok", value=False),
             "result.census_report.witnesses[1].c3_ok: stored False, recomputed None"),
            (_set("census_report", "witnesses", 1, "disk", "radius_exp", value="3"),
             "result.census_report.witnesses[1].disk: stored D(3; 3^(-3)),"
             " recomputed D(3; 3^(-2))"),
            (lambda doc: doc["census_report"]["witnesses"].pop(),
             "result.census_report.witnesses: stored 1, recomputed 2"),
            (_set("census_report", "counts", 2, "expected", value=[0, 0, 1]),
             "result.census_report.counts[2].expected: stored (0, 0, 1), recomputed (0, 0, 0)"),
            (_set("census_report", "counts", 2, "ok", value=False),
             "result.census_report.counts[2].ok: stored False, recomputed True"),
        ],
        ids=["ok", "existence", "c3", "disk", "witness-count", "expected", "count-ok"],
    )
    def test_disagreeing_census_claim_fails(self, ex2_paths, tmp_path, capsys, mutate, line):
        _, result = ex2_paths
        doc = read_json(result)
        mutate(doc)
        path = tmp_path / "claims.json"
        write_json(path, doc)
        assert main(["verify", "--input", str(path), "--samples", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith("verification FAILED\n")
        assert captured.err.splitlines() == [line]

    def test_stdout_matches_benchmark_digests(self, tmp_path, capsys):
        # the stored digests of the verify workload, only read here: the
        # presets, their controls, and every generated instance the workload
        # may draw, glued as it glues them; ex1's indifferent witness runs
        # derivative_at through the census
        digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
        inputs = load_perfbench("inputs")
        generated = [inputs.suite_instance(key) for key in inputs.verify_suite_candidates()] + [
            inputs.sweep_instance(inputs.sweep_key(inputs.VERIFY_SWEEP_N, v))
            for v in range(inputs.SWEEP_VARIANTS)
        ]
        assert len(generated) == 9
        for inst in generated:
            plan = plan_gluing(inst.models, inst.epsilon)
            F = build_F(inst.models, plan)
            cert = certify_theorem1(F, inst.models, plan, samples=8)
            path = tmp_path / "generated.json"
            write_json(path, result_to_json(inst.p, inst.epsilon, inst.models, plan, F, cert))
            capsys.readouterr()
            assert main(["verify", "--input", str(path), "--samples", "100"]) == 0
            out = capsys.readouterr().out
            key = "verify/" + inst.key
            assert hashlib.sha256(out.encode()).hexdigest() == digests[key], key
        ex1 = ex1_models("3", "1/3")
        for name, models, eps in (("ex1", ex1, ex1_epsilon(ex1, ex1_census(ex1))),
                                  ("ex2", ex2_models(), EX2_EPSILON)):
            result = tmp_path / f"{name}.json"
            assert main(["glue", "--input", str(ROOT / "presets" / f"{name}.json"),
                         "--output", str(result)]) == 0
            plan = plan_gluing(models, eps)
            crossed = crossed_sum(models, plan)
            cert = certify_theorem1(crossed, models, plan, samples=2)
            control = tmp_path / f"{name}-crossed.json"
            write_json(control, result_to_json(3, eps, models, plan, crossed, cert))
            for key, path, code in ((f"verify/{name}", result, 0),
                                    (f"verify/{name}-crossed", control, 1)):
                capsys.readouterr()
                assert main(["verify", "--input", str(path), "--samples", "100"]) == code
                out = capsys.readouterr().out
                assert hashlib.sha256(out.encode()).hexdigest() == digests[key], key

    @pytest.mark.parametrize(
        "key",
        load_perfbench("inputs").suite_pool()
        + [k for k in load_perfbench("inputs").sweep_pool() if int(k.split("/")[1][1:]) <= 10],
    )
    def test_glue_matches_benchmark_digests(self, key):
        # the plan, F and certificate sections of the benchmark's glue ops,
        # against the stored digests, which this test only reads
        inputs = load_perfbench("inputs")
        digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
        make = inputs.suite_instance if key.startswith("suite/") else inputs.sweep_instance
        inst = make(key)
        plan = plan_gluing(inst.models, inst.epsilon)
        F = build_F(inst.models, plan)
        cert = certify_theorem1(F, inst.models, plan, samples=8)
        doc = result_to_json(inst.p, inst.epsilon, inst.models, plan, F, cert)
        sections = {k: doc[k] for k in ("plan", "F", "certificate")}
        text = json.dumps(sections, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digests[key]

    @pytest.mark.parametrize("key", load_perfbench("inputs").orbit_pool())
    def test_orbits_match_benchmark_digests(self, key):
        # the benchmark's instance generator and stored digests, only read
        inputs = load_perfbench("inputs")
        digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
        inst = inputs.fixed_point_instance(key)
        plan = plan_gluing(inst.models, epsilon_for_census(inst.models, inst.census))
        F = build_F(inst.models, plan)
        zstar = hensel_fixed_point(F, inst.attracting_center, inputs.HENSEL_TARGET)
        steps = orbit(F, inst.orbit_start, inputs.ORBIT_STEPS, ref=zstar,
                      precision=inputs.ORBIT_PRECISION)
        doc = {"fixed_point": kelement_to_json(zstar), "orbit": orbit_to_json(steps)}
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digests[key]

    def test_traced_names_resolve(self):
        # the benchmark's tracer rebinds these by name; a renamed or deleted
        # one would silently drop its span or counter
        tracer = load_perfbench("tracer")
        names = list(tracer.SPANNED) + [(m, q) for m, q, _ in tracer.COUNTED]
        for module, qualname in names:
            obj = importlib.import_module(module)
            for attr in qualname.split("."):
                obj = getattr(obj, attr, None)
            assert callable(obj), f"{module}.{qualname}"

    @pytest.mark.parametrize("name", ["workloads", "inputs"])
    def test_workload_library_reads_resolve(self, name):
        # every `pg.`, `presets.`, `serialize.` and `cli.` attribute the
        # harness reads, found in its source, which is only parsed here
        tree = ast.parse((ROOT / "perfbench" / f"{name}.py").read_text())
        aliases = {a.asname or a.name: a.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for a in node.names
                   if a.name.split(".")[0] == "padicglue"}
        reads = {(aliases[n.value.id], n.attr) for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                 and n.value.id in aliases}
        assert reads
        for module, attr in sorted(reads):
            assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"

    def test_tracer_installs_and_restores(self):
        # the tracer's own lookup: it must find every traced function and
        # method in the loaded library, rebind it, and put it back
        tracer_module = load_perfbench("tracer")
        tracer = tracer_module.Tracer()
        try:
            tracer.install()
            traced = {id(original) for _, _, original in tracer._patches}
        finally:
            tracer.restore()
        assert len(traced) == len(tracer_module.SPANNED) + len(tracer_module.COUNTED)


class TestLimits:
    """Counts and plan sizes outside their limits exit 2 with a diagnostic
    that names the flag, the file entry or the ball."""

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["glue", "--input", "{problem}", "--samples", "-3"],
             "parse error: --samples: must not be negative, got -3"),
            (["verify", "--input", "{result}", "--samples", "-1"],
             "parse error: --samples: must not be negative, got -1"),
            (["example", "--name", "ex2", "--samples", "-1"],
             "parse error: --samples: must not be negative, got -1"),
            (["orbit", "--input", "{result}", "--start", "9", "--steps", "-2"],
             "parse error: --steps: must not be negative, got -2"),
            (["glue", "--input", "{problem}", "--samples", str(SAMPLES_LIMIT + 1)],
             f"limit exceeded: --samples: {SAMPLES_LIMIT + 1} is above the limit of"),
            (["verify", "--input", "{result}", "--samples", "100000000"],
             "limit exceeded: --samples: 100000000 is above the limit of"),
            (["example", "--name", "ex2", "--samples", str(SAMPLES_LIMIT + 1)],
             f"limit exceeded: --samples: {SAMPLES_LIMIT + 1} is above the limit of"),
            (["orbit", "--input", "{result}", "--start", "9", "--steps", str(STEPS_LIMIT + 1)],
             f"limit exceeded: --steps: {STEPS_LIMIT + 1} is above the limit of"),
        ],
        ids=["glue-negative", "verify-negative", "example-negative", "orbit-negative",
             "glue-above", "verify-above", "example-above", "orbit-above"],
    )
    def test_count_flag_out_of_range_exit_2(self, ex2_paths, capsys, argv, err):
        problem, result = ex2_paths
        argv = [a.format(problem=problem, result=result) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(err)

    @pytest.mark.parametrize("steps, err", [
        (-1, "parse error: problem.orbits[0].steps: must not be negative, got -1"),
        (STEPS_LIMIT + 1,
         f"limit exceeded: problem.orbits[0].steps: {STEPS_LIMIT + 1} is above the limit of"),
    ])
    def test_orbit_steps_in_problem_out_of_range_exit_2(self, tmp_path, capsys, steps, err):
        doc = ex2_problem()
        doc["orbits"][0]["steps"] = steps
        path = tmp_path / "steps.json"
        write_json(path, doc)
        assert main(["glue", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith(err)

    def test_orbit_steps_in_all_above_limit_exit_2(self, tmp_path, capsys):
        # every entry is within the limit, but together they ask for more
        # orbit work than one entry may
        doc = ex2_problem()
        half = dict(doc["orbits"][0], steps=STEPS_LIMIT // 2)
        doc["orbits"] = [half, half]
        assert len(problem_from_json(doc)["orbits"]) == 2
        doc["orbits"].append(dict(half, steps=1))
        path = tmp_path / "steps.json"
        write_json(path, doc)
        assert main(["glue", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"limit exceeded: problem.orbits steps: {2 * (STEPS_LIMIT // 2) + 1}"
            f" is above the limit of {STEPS_LIMIT}"
        )

    def test_zero_counts_run(self, ex2_paths):
        _, result = ex2_paths
        assert main(["orbit", "--input", str(result), "--start", "9", "--steps", "0"]) == 0
        assert main(["verify", "--input", str(result), "--samples", "0"]) == 0

    def test_limits_clear_every_value_in_use(self):
        # the largest in presets, tests and the benchmark: --samples 100,
        # orbit steps 30, M = 15
        assert SAMPLES_LIMIT >= 10 * 100 and STEPS_LIMIT >= 10 * 30 and M_LIMIT >= 10 * 15

    @pytest.mark.parametrize("key, value, err", [
        ("M_override", [100000, None, None],
         "limit exceeded: ball 0: M = 100000 is above the limit of"),
        ("epsilon_exp", "100000", "limit exceeded: ball 0: M = 200001 is above the limit of"),
    ])
    def test_huge_M_exit_2_promptly(self, tmp_path, key, value, err):
        # glue would not finish at M = 100000 (certifying ex2 with one M_i
        # of 1000 takes minutes); a separate process turns a missing bound
        # into a timeout instead of a hung suite
        doc = read_json(ROOT / "presets" / "ex2.json")
        doc[key] = value
        path = tmp_path / "hugeM.json"
        write_json(path, doc)
        run = subprocess.run(
            [sys.executable, "-m", "padicglue.cli", "glue", "--input", str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert run.returncode == 2
        assert run.stderr.startswith(err)


class TestOrbit:
    def test_reference_orbit(self, ex2_paths, capsys):
        _, result = ex2_paths
        assert main(["orbit", "--input", str(result), "--start", "9", "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "orbit from 9 (ref 0)" in out
        assert "k=0: z = 9" in out and "|z - ref| = 3^(-2)" in out
        assert "k=4" in out

    def test_start_outside_all_balls_warns_but_runs(self, ex2_paths, capsys):
        _, result = ex2_paths
        assert main(["orbit", "--input", str(result), "--start", "1", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "warning: start 1 lies outside every model ball" in out
        assert "k=2" in out

    def test_orbit_stops_at_a_pole(self, ex2_paths, capsys):
        # 3 sqrt 3 = a_0 + c_0 zeroes the denominator of ball 0's bump
        # factor, and so of F: the first step prints the pole row and the
        # orbit ends there, with exit 0
        _, result = ex2_paths
        assert main(["orbit", "--input", str(result), "--start", "0,3", "--steps", "3"]) == 0
        assert capsys.readouterr().out == (
            "warning: start 3*sqrt(3) lies outside every model ball\n"
            "orbit from 3*sqrt(3)\n"
            "  k=0: z = 3*sqrt(3)\n"
            "  k=1: pole reached, orbit stops\n"
        )

    def test_zero_steps_prints_start_only(self, ex2_paths, capsys):
        _, result = ex2_paths
        assert main(["orbit", "--input", str(result), "--start", "9", "--steps", "0"]) == 0
        out = capsys.readouterr().out
        assert "k=0" in out and "k=1" not in out

    def test_exact_fixed_start_is_constant(self, tmp_path, capsys):
        # both local maps vanish at 0, so the glued map fixes 0 exactly
        models = [
            LocalModel(RationalMap(3 * Z), Ball(K3(0), Radius(2))),
            LocalModel(RationalMap(Z), Ball(K3(3), Radius(2))),
        ]
        problem = tmp_path / "fix.json"
        result = tmp_path / "fix.out.json"
        write_json(problem, problem_to_json(3, Radius(3), models))
        assert main(["glue", "--input", str(problem), "--output", str(result)]) == 0
        capsys.readouterr()
        assert main(["orbit", "--input", str(result), "--start", "0", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("z = 0") == 4

    def test_table_writes_start_and_ref_as_field_elements(self, tmp_path, capsys):
        # a start with a sqrt 3 part inside B(0; 3^-2), whose center becomes
        # the ref, and one outside every ball, which has none: the tables
        # write both as {"a", "b"}, like every field element of a result
        doc = ex2_problem()
        doc["orbits"] = [
            {"start": {"a": "9", "b": "9"}, "steps": 2},
            {"start": {"a": "1", "b": "1"}, "steps": 1},
        ]
        problem, result = tmp_path / "sqrt.json", tmp_path / "sqrt.out.json"
        write_json(problem, doc)
        assert main(["glue", "--input", str(problem), "--output", str(result)]) == 0
        inside, outside = read_json(result)["orbit_tables"]
        assert kelement_from_json(inside["start"], 3, "start") == KElement(3, 9, 9)
        assert kelement_from_json(inside["ref"], 3, "ref") == K3(0)
        assert inside["start"] == {"a": "9", "b": "9"}
        assert kelement_from_json(outside["start"], 3, "start") == KElement(3, 1, 1)
        assert outside["ref"] is None

    def test_bad_start_exit_2(self, ex2_paths, capsys):
        _, result = ex2_paths
        assert main(["orbit", "--input", str(result), "--start", "1,2,3"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_long_orbit_output_is_unchanged(self, ex2_paths, capsys):
        # 200 steps at the default precision 512 from 9, as the workflow's
        # console-script step runs them: the table (step sizes down to
        # 3^-201, element lengths of rounded points) must stay byte for
        # byte what exact evaluation and KElement distances printed
        _, result = ex2_paths
        assert main(["orbit", "--input", str(result), "--start", "9", "--steps", "200"]) == 0
        out = capsys.readouterr().out
        assert "k=200: z = (500-char element)" in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "708bd4915bc65159e77767eb5b3277ab7be55cb61e7f7f75924ee53bb4e5e1c3"
        )


class TestExample:
    def test_ex2(self, capsys):
        assert main(["example", "--name", "ex2"]) == 0
        out = capsys.readouterr().out
        assert out.count("equal") >= 3
        assert "census: PASS" in out
        # the control names the failing ball and check, with the bound against epsilon
        _, control = out.split("certificate passes: False (expected False)\n")
        assert ("ball 0: pole-free True, image B(-4374/14197 + 6912/14197*sqrt(3); 3^(-2))"
                " matches False, |F - f_0| <= 3^(-2) (needs < 3^(-3)), samples ok False"
                in control.splitlines())
        assert control.endswith("certificate: FAIL\n")

    @pytest.mark.parametrize(
        "alpha, kind",
        [("3", "attracting"), ("1/3", "repelling"), ("2", "indifferent")],
    )
    def test_ex1_multiplier_kinds(self, alpha, kind, capsys):
        assert main(["example", "--name", "ex1", "--alpha", alpha, "--beta", "1/3"]) == 0
        out = capsys.readouterr().out
        assert "closed form matches evaluation exactly: True" in out
        assert f"fixed point 0 of the glued map is {kind}" in out

    def test_ex1_requires_parameters(self, capsys):
        assert main(["example", "--name", "ex1"]) == 2
        assert "requires --alpha and --beta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alpha, beta, flag",
        [("x", "1", "--alpha"), ("1/0", "1", "--alpha"), ("3", "1/3/3", "--beta"),
         ("3", "0/0", "--beta")],
    )
    def test_ex1_bad_rational_exit_2(self, alpha, beta, flag, capsys):
        assert main(["example", "--name", "ex1", "--alpha", alpha, "--beta", beta]) == 2
        assert capsys.readouterr().err.startswith(f"parse error: {flag}: bad rational")

    def test_example_writes_result(self, tmp_path):
        out = tmp_path / "ex1.out.json"
        code = main([
            "example", "--name", "ex1", "--alpha", "2", "--beta", "1/3",
            "--output", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["prime"] == 3


class TestFlags:
    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["glue"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["paint"])
        assert exc.value.code == 2

    def test_bad_example_name(self):
        with pytest.raises(SystemExit) as exc:
            main(["example", "--name", "ex9"])
        assert exc.value.code == 2


class TestParserCache:
    """main builds its parser once per process; a call made with the cached
    parser exits and prints exactly as one made with a new parser."""

    @staticmethod
    def _run(argv, capsys) -> tuple:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exit on a bad flag
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_cached_parser_changes_no_output(self, ex2_paths, capsys):
        problem, result = ex2_paths
        calls = [
            ["verify", "--input", str(result)],
            ["example", "--name", "ex9"],
            ["glue", "--input", str(problem), "--samples", "-3"],
            ["verify", "--input", str(result)],
        ]
        cli._parser.cache_clear()
        cached = [self._run(argv, capsys) for argv in calls]
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, len(calls) - 1)
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(self._run(argv, capsys))
        assert cached == fresh
        assert [code for code, _, _ in cached] == [0, 2, 2, 0]
        assert "invalid choice: 'ex9'" in cached[1][2]
        assert cached[2][2] == "parse error: --samples: must not be negative, got -3\n"
        assert cached[0] == cached[3]
