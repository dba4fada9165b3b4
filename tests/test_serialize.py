"""Exact JSON round-trips and strict, named parse diagnostics."""

import copy
import json
import math
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from padicglue import (
    INCONCLUSIVE,
    INDIFFERENT,
    Ball,
    BallCheck,
    CensusReport,
    FixedPointCensus,
    FieldConfig,
    KElement,
    LimitExceeded,
    Poly,
    Radius,
    RationalMap,
    SpecFormatError,
    OrbitStep,
    ValExp,
    Witness,
    build_F,
    certify_theorem1,
    plan_gluing,
    orbit,
    verify_census,
)
from padicglue.dynamics import CountResult, WitnessResult
from padicglue.errors import _show
from padicglue.presets import (
    EX2_EPSILON,
    ex1_census,
    ex1_epsilon,
    ex1_models,
    ex1_problem,
    ex2_census,
    ex2_models,
    ex2_problem,
)
from padicglue.serialize import (
    ball_from_json,
    ball_to_json,
    census_from_json,
    census_to_json,
    certificate_from_json,
    certificate_to_json,
    kelement_from_json,
    kelement_to_json,
    orbit_to_json,
    parse_point,
    parse_rational,
    plan_from_json,
    plan_to_json,
    poly_from_json,
    poly_to_json,
    problem_from_json,
    problem_to_json,
    ratmap_from_json,
    ratmap_to_json,
    read_json,
    result_from_json,
    result_to_json,
    valexp_to_json,
    write_json,
)

K3 = FieldConfig(3)
Z = Poly.x(3)


@pytest.fixture(scope="module")
def ex2_result():
    models = ex2_models()
    plan = plan_gluing(models, EX2_EPSILON)
    F = build_F(models, plan)
    cert = certify_theorem1(F, models, plan)
    return models, plan, F, cert


class TestScalars:
    def test_kelement_roundtrip(self):
        x = K3(Fraction(-7, 2), Fraction(1, 3))
        assert kelement_from_json(kelement_to_json(x), 3, "t") == x

    def test_kelement_shorthands(self):
        assert kelement_from_json("5/3", 3, "t") == K3(Fraction(5, 3))
        assert kelement_from_json(4, 3, "t") == K3(4)

    def test_rational_only_guard(self):
        with pytest.raises(SpecFormatError, match="must be rational"):
            kelement_from_json({"a": "0", "b": "1"}, 3, "t", rational_only=True)

    def test_unprintable_coordinate_is_a_limit(self):
        # Python prints no integer of more than 4,300 digits
        for x in (K3(Fraction(1, 7**6000)), K3(1, 7**6000), K3(0, Fraction(7**6000, 11))):
            with pytest.raises(LimitExceeded, match="digits cannot be printed"):
                str(x)
            with pytest.raises(LimitExceeded, match="digits cannot be printed"):
                kelement_to_json(x)
            assert _show(x) == "<a value too long to print>"

    def test_valexp_forms(self):
        assert valexp_to_json(ValExp(Fraction(7, 2))) == {"exp": "7/2"}
        assert valexp_to_json(ValExp(None)) == {"exp": "inf"}

    @pytest.mark.parametrize(
        "text",
        ["-3/4", "12", "-0/5", "6/4", "007", "-0", "+1", " 1", "1 ", "1_0", "1e3", "1.5", "1/0",
         "0/0", "3/-4", "-3/-4", "--1", "-", "", "/2", "2/", "1/2/3", "\u0663", "\u00b2",
         "1" * 4000, "9" * 5000, "1/" + "7" * 5000],
        ids=lambda text: repr(text) if len(text) < 20 else f"{len(text)}-chars",
    )
    def test_rationals_read_as_fraction_reads_them(self, text):
        # the writer's forms take a shortcut past Fraction; every string,
        # in that form or not, gets Fraction's value or a parse error
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(SpecFormatError, match="t: bad rational"):
                parse_rational(text, "t")
        else:
            assert parse_rational(text, "t") == want

    @pytest.mark.parametrize("text", ["1e4301", "1e-4301", "1.5e10000000", "-1E999999999",
                                      "0e5000", "0.5e-4300", " 1_0e4_301 "])
    def test_decimal_above_the_digit_limit_is_refused_promptly(self, text):
        # Fraction would first build 10^k in full: 9 s for '1e10000000'
        with pytest.raises(LimitExceeded, match="t: .* is above the limit of 4300 digits"):
            parse_rational(text, "t")

    @pytest.mark.parametrize("text", ["1e4299", "1e-4299", "-2.5e4298", "0.5e-4298", "1_0e1_0"])
    def test_decimal_within_the_digit_limit_reads_as_fraction(self, text):
        assert parse_rational(text, "t") == Fraction(text)

    # (obj, p, rational_only) -> KElement(p, a, b), or the exception and
    # message the reader raised when it built through KElement.__init__: a
    # bad value is named before a bad prime
    KELEMENT_TABLE = [
        ((7, 3, False), (7, 0)),
        (("-5/3", 3, False), (Fraction(-5, 3), 0)),
        (({"a": "-7/2"}, 3, False), (Fraction(-7, 2), 0)),
        (({"a": "1", "b": "1/3"}, 3, False), (1, Fraction(1, 3))),
        (({"a": 2, "b": -4}, 2, False), (2, -4)),
        (({"a": "1", "c": "2"}, 3, False), (SpecFormatError, "t: unknown key 'c'")),
        (({"b": "1"}, 3, False), (SpecFormatError, "t: missing a")),
        ((["1"], 3, False), (SpecFormatError, "t: expected an object")),
        (({"a": "0", "b": "1"}, 3, True),
         (SpecFormatError, "t: must be rational (no sqrt part), got b = 1")),
        (({"a": "2"}, 3, True), (2, 0)),
        (({"a": "1", "b": None}, 3, False),
         (SpecFormatError, "t.b: expected an exact rational string, got None")),
        (({"a": "x"}, 4, False), (SpecFormatError, "t.a: bad rational 'x'")),
        (("x", 4, False), (SpecFormatError, "t: bad rational 'x'")),
        (({"a": "1", "z": 1}, 4, False), (SpecFormatError, "t: unknown key 'z'")),
        (({"a": "1"}, 4, False), (ValueError, "p must be a prime integer, got 4")),
        ((1, 4, False), (ValueError, "p must be a prime integer, got 4")),
        (({"a": "1/2", "b": "3"}, 2**31 - 1, False), (Fraction(1, 2), 3)),
    ]

    @pytest.mark.parametrize("given, want", KELEMENT_TABLE,
                             ids=[repr(given) for given, _ in KELEMENT_TABLE])
    def test_kelement_reader_table(self, given, want):
        obj, p, rational_only = given
        if isinstance(want[0], type):
            with pytest.raises(want[0]) as exc:
                kelement_from_json(obj, p, "t", rational_only=rational_only)
            assert type(exc.value) is want[0] and str(exc.value) == want[1]
        else:
            x = kelement_from_json(obj, p, "t", rational_only=rational_only)
            assert x == KElement(p, *want)
            assert type(x.a) is Fraction and type(x.b) is Fraction

    def test_bad_rational_named(self):
        with pytest.raises(SpecFormatError, match="t.a: bad rational"):
            kelement_from_json({"a": "x"}, 3, "t")


class TestParsePoint:
    def test_forms(self):
        assert parse_point("4", 3) == K3(4)
        assert parse_point("1/2, 3", 3) == K3(Fraction(1, 2), 3)

    def test_too_many_parts(self):
        with pytest.raises(SpecFormatError, match="expected 'a' or 'a,b'"):
            parse_point("1,2,3", 3)


class TestAlgebraRoundTrips:
    def test_poly(self):
        P = Z**3 * Fraction(1, 9) + Z * KElement(3, 0, 1) - 5
        assert poly_from_json(poly_to_json(P), 3, "t") == P

    def test_ratmap_emits_integral_coprime_form(self):
        for f in (
            RationalMap(2 * Z + 4, 6 * Z - 8),
            RationalMap(Poly.zero(3)),
            RationalMap(Z * KElement(3, Fraction(3, 5), Fraction(9, 10)) + 6, Z * Z + Fraction(1, 4)),
        ):
            doc = ratmap_to_json(f)
            parts = [Fraction(c[k]) for side in ("num", "den") for c in doc[side] for k in "ab"]
            assert all(q.denominator == 1 for q in parts)
            assert math.gcd(*(q.numerator for q in parts)) == 1
            g = ratmap_from_json(doc, 3, "t")
            assert g.num == f.num and g.den == f.den

    def test_ratmap_with_sqrt_coefficients(self):
        f = RationalMap(Z * KElement(3, 0, Fraction(1, 2)) + 1)
        g = ratmap_from_json(ratmap_to_json(f), 3, "t")
        assert g.num == f.num and g.den == f.den

    def test_zero_denominator_rejected(self):
        with pytest.raises(SpecFormatError, match="zero denominator"):
            ratmap_from_json({"num": ["1"], "den": ["0"]}, 3, "t")


class TestGeometryRoundTrips:
    def test_ball(self):
        for ball in (
            Ball(K3(2), Radius(Fraction(5, 2)), closed=True),
            Ball(K3(0, 1), Radius(1), closed=False),
        ):
            assert ball_from_json(ball_to_json(ball), 3, "t") == ball

    def test_strict_rejects_irrational_center(self):
        doc = ball_to_json(Ball(K3(0, 1), Radius(1)))
        with pytest.raises(SpecFormatError, match="must be rational"):
            ball_from_json(doc, 3, "t", strict=True)

    def test_strict_rejects_half_integer_exponent(self):
        doc = ball_to_json(Ball(K3(1), Radius(Fraction(5, 2))))
        with pytest.raises(SpecFormatError, match="must be an integer"):
            ball_from_json(doc, 3, "t", strict=True)

    def test_bad_kind_named(self):
        with pytest.raises(SpecFormatError, match="t.kind"):
            ball_from_json({"center": "0", "radius_exp": "1", "kind": "fuzzy"}, 3, "t")


class TestStructuredRoundTrips:
    def test_plan(self, ex2_result):
        _, plan, _, _ = ex2_result
        assert plan_from_json(plan_to_json(plan), 3, "t") == plan

    def test_certificate(self, ex2_result):
        _, _, _, cert = ex2_result
        back = certificate_from_json(certificate_to_json(cert), 3, "t")
        assert back == cert and back.passes

    def test_census(self):
        census = ex2_census(ex2_models())
        assert census_from_json(census_to_json(census), 3, "t") == census

    def test_orbit_rows(self):
        rows = orbit_to_json(orbit(RationalMap(3 * Z), 1, 2, ref=0))
        assert [r["k"] for r in rows] == [0, 1, 2]
        assert rows[1]["dist_exp"] == {"exp": "1"}
        assert rows[0]["step_exp"] is None and not rows[0]["pole"]

    def test_result(self, ex2_result):
        models, plan, F, cert = ex2_result
        doc = result_to_json(3, EX2_EPSILON, models, plan, F, cert)
        back = result_from_json(doc)
        assert back["plan"] == plan
        assert back["F"].num == F.num and back["F"].den == F.den
        assert back["certificate"] == cert
        assert [m.domain for m in back["models"]] == [m.domain for m in models]

    def test_writers_refuse_unprintable_maps(self):
        # a map with 4,000-digit coefficients is written scaled to integers
        # of about 8,000 digits
        doc = ex2_problem()
        doc["models"][0]["map"]["num"][0]["a"] = "59049/" + "7" * 4000
        doc["models"][0]["map"]["den"][0]["a"] = "7" * 4000 + "/11"
        models = problem_from_json(doc)["models"]
        plan = plan_gluing(models, EX2_EPSILON)
        F = build_F(models, plan)
        cert = certify_theorem1(F, models, plan, samples=1)
        with pytest.raises(LimitExceeded):
            problem_to_json(3, EX2_EPSILON, models)
        with pytest.raises(LimitExceeded):
            result_to_json(3, EX2_EPSILON, models, plan, F, cert)

    def test_result_missing_sections(self, ex2_result):
        models, plan, F, cert = ex2_result
        doc = result_to_json(3, EX2_EPSILON, models, plan, F, cert)
        del doc["plan"]
        with pytest.raises(SpecFormatError, match="missing plan, F, or certificate"):
            result_from_json(doc)


def _names(cls) -> set:
    return {f.name for f in fields(cls)}


class TestRecords:
    """Each record is written as one key per dataclass field and read back
    equal.  F is ex1's glued map (an indifferent fixed point in ball 0)
    with an added pole at 3, the centre of ball 1: that ball's image and
    sup bound are null, and its witness is inconclusive."""

    @pytest.fixture(scope="class")
    def written(self):
        models = ex1_models(2, Fraction(1, 9))
        census = ex1_census(models)
        eps = ex1_epsilon(models, census)
        plan = plan_gluing(models, eps)
        F = build_F(models, plan)
        F = RationalMap(F.num, F.den * (Z - 3))
        cert = certify_theorem1(F, models, plan, samples=4)
        report = verify_census(F, models, census)
        doc = result_to_json(3, eps, models, plan, F, cert, census=census, census_report=report)
        steps = orbit(F, K3(3), 2)
        return json.loads(json.dumps(doc)), cert, census, report, steps

    def test_the_result_holds_every_case(self, written):
        _, cert, _, report, steps = written
        assert any(ch.image is None and ch.eps_bound_exp is None for ch in cert.checks)
        assert any(w.got == INCONCLUSIVE and w.existence_certified is None
                   for w in report.witnesses)
        assert any(w.expected == INDIFFERENT and w.c3_ok is not None for w in report.witnesses)
        assert steps[-1].pole

    def test_writer_keys_are_the_fields(self, written):
        doc, _, _, _, steps = written
        objects = [
            (BallCheck, doc["certificate"]["balls"]),
            (FixedPointCensus, [doc["census"]]),
            (Witness, doc["census"]["witnesses"]),
            (CensusReport, [doc["census_report"]]),
            (WitnessResult, doc["census_report"]["witnesses"]),
            (CountResult, doc["census_report"]["counts"]),
        ]
        for cls, written_objects in objects:
            assert written_objects
            assert all(set(obj) == _names(cls) for obj in written_objects), cls
        assert all(set(row) == _names(OrbitStep) | {"pole"} for row in orbit_to_json(steps))

    def test_reading_gives_the_records_back(self, written):
        doc, cert, census, report, _ = written
        back = result_from_json(doc)
        assert back["certificate"].checks == cert.checks
        assert back["census"] == census
        assert back["census_report"] == report


class TestProblemParsing:
    def test_reference_document_parses(self):
        parsed = problem_from_json(ex2_problem())
        assert parsed["p"] == 3 and parsed["epsilon"] == EX2_EPSILON
        assert len(parsed["models"]) == 3
        assert parsed["census"].counts == ((1, 0, 0), (0, 1, 0), (0, 0, 0))
        assert parsed["orbits"] == [{"start": K3(9), "steps": 10, "ref": K3(0)}]

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.__setitem__("prime", "3"), r"problem\.prime"),
            (lambda d: d.__setitem__("epsilon_exp", "7/2"),
             r"problem\.epsilon_exp: must be an integer"),
            (lambda d: d.__setitem__("models", []), r"problem\.models: expected a non-empty"),
            (lambda d: d["models"][1]["ball"]["center"].update(b="1"),
             r"problem\.models\[1\]\.ball\.center: must be rational"),
            (lambda d: d["models"][1]["ball"].__setitem__("radius_exp", "5/2"),
             r"problem\.models\[1\]\.ball\.radius_exp: must be an integer"),
            (lambda d: d["models"][0]["map"]["num"].__setitem__(0, {"a": "oops"}),
             r"problem\.models\[0\]\.map\.num\[0\]\.a: bad rational"),
            (lambda d: d["census"]["counts"].__setitem__(0, [1, 0]),
             r"problem\.census\.counts\[0\]"),
            (lambda d: d["census"]["counts"].__setitem__(0, [-1, 0, 0]),
             r"problem\.census\.counts\[0\]: must not be negative, got -1"),
            (lambda d: d["orbits"].__setitem__(0, {"steps": 3}), r"problem\.orbits\[0\]"),
            (lambda d: d.__setitem__("delta_override", ["1/2"]),
             r"problem\.delta_override\[0\]: must be an integer"),
            (lambda d: d.__setitem__("M_override", ["7"]),
             r"problem\.M_override\[0\]: expected an integer, got '7'"),
        ],
    )
    def test_strict_diagnostics_name_the_entry(self, mutate, message):
        doc = copy.deepcopy(ex2_problem())
        mutate(doc)
        with pytest.raises(SpecFormatError, match=message):
            problem_from_json(doc)

    def test_overrides_parse(self):
        doc = ex2_problem()
        doc["M_override"] = [9, None, 8]
        doc["c_override"] = [{"a": "0", "b": "3"}, None, None]
        parsed = problem_from_json(doc)
        assert parsed["M_override"] == [9, None, 8]
        assert parsed["c_override"][0] == K3(0, 3)
        assert parsed["c_override"][1] is None


class TestFiles:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, ex2_problem())
        assert problem_from_json(read_json(path))["p"] == 3

    def test_invalid_json_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(SpecFormatError, match="invalid JSON"):
            read_json(path)

    @pytest.mark.parametrize("name, make", [("ex1", ex1_problem), ("ex2", ex2_problem)])
    def test_committed_presets_match_their_generators(self, name, make, tmp_path):
        path = tmp_path / f"{name}.json"
        write_json(path, make())
        committed = Path(__file__).resolve().parents[1] / "presets" / f"{name}.json"
        assert path.read_bytes() == committed.read_bytes()

    def test_output_is_pure_exact_strings(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, ex2_problem())
        payload = json.loads(path.read_text())
        # no floats anywhere in the document tree
        def walk(node):
            if isinstance(node, float):
                raise AssertionError("float leaked into JSON output")
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(payload)
