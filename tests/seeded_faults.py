"""Seeded faults: one edit per entry that breaks a guard of the library,
with the tests that must catch it.

Each entry of FAULTS names a function or method by its dotted path, a
source edit (a text that must occur exactly once in that function's source,
and its replacement), the pytest node ids that must fail with the edit in
place, and the least number of tests among them that must fail.  With the
environment variable FAULT_VARIABLE set to an entry's name, the hook in
`conftest.py` applies the edit before any test module is collected:

    PADICGLUE_SEEDED_FAULT=open-image-plus-one python -m pytest -q \\
        tests/test_spot_checks.py

`tests/test_seeded_faults.py` runs each entry that way in its own pytest
process, and fails when a fault leaves its tests green or its text no
longer occurs in the source.  An edit only runs in the process that
applies it: a test that runs the CLI in a subprocess does not see it, so
name tests that call the library in-process.
"""

import __future__
import importlib
import inspect
import sys
import textwrap
from typing import NamedTuple

FAULT_VARIABLE = "PADICGLUE_SEEDED_FAULT"


class Fault(NamedTuple):
    target: str
    old: str
    new: str
    tests: tuple
    min_failed: int


FAULTS = {
    # the scales that bring N(x) and Q(x) to one denominator swapped, as
    # if the power of w belonged to the other value
    "spot-check-w-power-side": Fault(
        "padicglue.algebra._values",
        "(dd * w ** (k - n), dn * w ** (k - m))",
        "(dd * w ** (k - m), dn * w ** (k - n))",
        ("tests/test_spot_checks.py::test_spot_check_agrees_with_the_k_formulation",
         "tests/test_evaluation_differential.py",
         "tests/test_deep_shells.py::test_rational_center_of_negative_valuation"),
        21,
    ),
    # an open image tested as if it were closed
    "open-image-plus-one": Fault(
        "padicglue.gluing._spot_checks",
        " + (0 if image.closed else 1)",
        "",
        ("tests/test_spot_checks.py::test_spot_check_agrees_with_the_k_formulation",),
        3,
    ),
    # a shell whose term ties v(X(a)) read as deep, so the witness of a
    # sample where the two cancel is taken from the center: the strict
    # ultrametric inequality read as <=
    "deep-shell-tie-read-as-deep": Fault(
        "padicglue.gluing._first_deep_sample",
        "tq + 1",
        "tq",
        ("tests/test_deep_shells.py::test_witness_read_off_the_center_only_past_a_strict_bound",
         "tests/test_deep_shells.py::test_witness_row_counts_the_local_denominator_at_the_center",
         "tests/test_deep_shells.py::test_seeded_suite[11]"),
        3,
    ),
    # v(X(a)) taken as v(F(a) - f(a)) + v(Q(a)), without f's denominator
    "deep-shell-witness-row-drops-q-at-center": Fault(
        "padicglue.gluing._first_deep_sample",
        "tw + tQ + tq + 1",
        "tw + tQ + 1",
        ("tests/test_deep_shells.py::test_witness_row_counts_the_local_denominator_at_the_center",),
        1,
    ),
    # the image row's threshold without v(Q(a)), as if F - c were Y itself
    "deep-shell-image-row-drops-Q-at-center": Fault(
        "padicglue.gluing._first_deep_sample",
        "(not image.closed) + tQ",
        "(not image.closed)",
        ("tests/test_deep_shells.py::test_image_row_counts_the_glued_denominator_at_the_center",),
        2,
    ),
    # an open image's deep shells found as if it were closed
    "deep-shell-open-image-as-closed": Fault(
        "padicglue.gluing._first_deep_sample",
        " + (not image.closed)",
        "",
        ("tests/test_deep_shells.py::test_image_test_failing_only_on_a_shallow_shell",
         "tests/test_deep_shells.py::test_image_row_counts_the_glued_denominator_at_the_center"),
        2,
    ),
    # a polynomial's shift about a point started again on every call
    "shift-cache-never-read": Fault(
        "padicglue.algebra._shifted",
        "shift = shifts.get(a)",
        "shift = None",
        ("tests/test_lazy_shift.py::TestPrefixLengths",
         "tests/test_work_invariants.py"),
        9,
    ),
    # a point of another prime looked up among the shifts: equal
    # KElements of different primes hash alike
    "shift-prime-unchecked": Fault(
        "padicglue.algebra._shifted",
        "if a.p != P.p:",
        "if False:",
        ("tests/test_gluing.py::TestLocalModel::test_map_over_another_prime_is_not_called_constant",
         "tests/test_geometry.py::TestExpansions::test_mixed_primes_raise_after_a_shift"),
        2,
    ),
    # a stored form normalised without D's sign: -P keeps a negative D, so
    # it differs from the same polynomial built from its coefficients
    "poly-normalised-without-D-sign": Fault(
        "padicglue.algebra._poly",
        " * (-1 if D < 0 else 1)",
        "",
        ("tests/test_poly_product_model.py",
         "tests/test_algebra.py::TestPolyGcd"),
        17,
    ),
    # the rounding divides by the p-power of one coordinate's denominator,
    # not by that of their common one
    "reduce-mod-one-denominator": Fault(
        "padicglue.field.reduce_mod",
        "_int_val(w, p)",
        "_int_val(x.a.denominator, p)",
        ("tests/test_kelement_model.py::test_reduce_mod_stays_within_p_to_the_m",
         "tests/test_kelement_model.py::test_reduce_mod_rounds_each_coordinate_canonically",
         "tests/test_field.py::test_reduce_mod_property"),
        11,
    ),
    # each pass of the lazy Taylor shift stops one update short
    "prefix-pass-skips-last-update": Fault(
        "padicglue.algebra._Prefix.coeff",
        "range(len(w) - 2, self._done - 1, -1)",
        "range(len(w) - 2, self._done, -1)",
        ("tests/test_lazy_shift.py",),
        15,
    ),
    # the sqrt p * sqrt p term of a product of Z[sqrt p] pairs dropped
    "convolve-drops-sqrt-p-square": Fault(
        "padicglue.algebra._convolve",
        "a * c + p * b * d",
        "a * c",
        ("tests/test_poly_product_model.py::test_product_is_the_schoolbook_product",),
        5,
    ),
    # the C*D products of a difference coefficient added, not subtracted
    "diff-products-added": Fault(
        "padicglue.geometry._Diff.val",
        "(C, D, -1)",
        "(C, D, 1)",
        ("tests/test_diff_coefficients.py::test_triple_sums_equal_k_sums",),
        3,
    ),
    # a product over another denominator added to the sum as if over the
    # running one
    "diff-denominator-not-rescaled": Fault(
        "padicglue.geometry._Diff.val",
        "X, Y, W = X * w + x * W, Y * w + y * W, W * w",
        "X, Y = X + x, Y + y",
        ("tests/test_diff_coefficients.py::test_triple_sums_equal_k_sums",),
        3,
    ),
    # the image center built as Q(a)/P(a)
    "image-center-inverted": Fault(
        "padicglue.geometry.image_of_ball",
        "_quotient(p, (u * w1, v * w1), (u1 * w, v1 * w))",
        "_quotient(p, (u1 * w, v1 * w), (u * w1, v * w1))",
        ("tests/test_geometry.py::TestImageCenter",),
        3,
    ),
    # each full shell one point short; a shell of p = 2 keeps its one
    # point, since a shell that adds none would never end the walk
    "sample-shell-short": Fault(
        "padicglue.geometry.sample_points",
        "range(min(p - 1, budget - len(pts)))",
        "range(min(max(p - 2, 1), budget - len(pts)))",
        ("tests/test_geometry.py::TestSamplePoints",
         "tests/test_geometry.py::TestSamplePointsAgainstOracle::test_same_points_in_the_same_order",
         "tests/test_cli.py::TestStoredClaims::test_tampered_witnesses_fail"),
        4,
    ),
    # an exponent outside (1/2)Z read as floor(2e)/2
    "exponent-half-integer-test": Fault(
        "padicglue.serialize._exp_from_json",
        "if e.denominator not in (1, 2):",
        "if False:",
        ("tests/test_cli.py::TestMalformedInput::test_exponent_diagnostics_exit_2",),
        2,
    ),
    # the first candidate tolerance kept although a ball's M is 1
    "census-epsilon-not-raised": Fault(
        "padicglue.dynamics.epsilon_for_census",
        "e += 1",
        "break",
        ("tests/test_dynamics.py::TestEpsilonForCensus",),
        1,
    ),
    # |f_j'(a_i)| never compared with 1/min{t_i}
    "c3-cross-derivative-unchecked": Fault(
        "padicglue.dynamics.check_c3_hypotheses",
        "if dj is None or not dj.valuation() > -max_t:",
        "if dj is None:",
        ("tests/test_gluing.py::TestC3Hypotheses::test_other_derivatives_must_stay_small",),
        2,
    ),
    "no-models-accepted": Fault(
        "padicglue.gluing._check_models",
        "if not models:",
        "if False:",
        ("tests/test_gluing.py::TestPlanGluing::test_no_models_rejected",),
        1,
    ),
    "zero-poly-prints-empty": Fault(
        "padicglue.algebra.Poly.__str__",
        'return "0"',
        'return ""',
        ("tests/test_algebra.py::TestPoly::test_str_brackets_sqrt_p_coefficients",),
        1,
    ),
    "sqrt-p-coefficient-unbracketed": Fault(
        "padicglue.algebra.Poly.__str__",
        'cs = f"({cs})"',
        "pass",
        ("tests/test_algebra.py::TestPoly::test_str_brackets_sqrt_p_coefficients",),
        1,
    ),
    "rational-map-str-unbracketed": Fault(
        "padicglue.algebra.RationalMap.__str__",
        'return f"({self.num}) / ({self.den})"',
        'return f"{self.num} / {self.den}"',
        ("tests/test_algebra.py::TestRationalMap::test_str_and_repr",),
        1,
    ),
    "rational-map-repr-unnamed": Fault(
        "padicglue.algebra.RationalMap.__repr__",
        'return f"RationalMap({self})"',
        "return str(self)",
        ("tests/test_algebra.py::TestRationalMap::test_str_and_repr",),
        1,
    ),
}


def _resolve(target: str) -> tuple:
    """(owner, name, function) for a dotted path: the longest importable
    prefix is a module, and the rest a chain of attributes."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(f"no module in {target!r}")


def apply(name: str) -> None:
    """Apply the entry `name`: compile the target's source with the edit in
    the target's module and bind the result wherever the original is bound
    in a loaded module, the package root and `from` imports included."""
    fault = FAULTS[name]
    owner, attr, original = _resolve(fault.target)
    source = textwrap.dedent(inspect.getsource(original))
    found = source.count(fault.old)
    if found != 1:
        raise RuntimeError(
            f"seeded fault {name}: {fault.old!r} occurs {found} times in {fault.target}"
        )
    module = sys.modules[original.__module__]
    code = compile(source.replace(fault.old, fault.new), inspect.getsourcefile(original), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    scope = {}
    exec(code, module.__dict__, scope)
    broken = scope[original.__name__]
    setattr(owner, attr, broken)
    for loaded in list(sys.modules.values()):
        for key, value in list(getattr(loaded, "__dict__", {}).items()):
            if value is original:
                setattr(loaded, key, broken)
