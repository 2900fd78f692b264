"""Tests that the verification suites report a broken table row as FAIL checks."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest

from chsurf import curve, verify
from chsurf.cli import run
from chsurf.mesh import figure_preset, preset_keys
from chsurf.surface import CLASSIFICATION_TABLE, incidence_type, table_branch, table_variant
from chsurf.verify import grid_specs, max_scaled_residual, run_invariants, run_suite, run_table2
from helpers import OFF_GRID_SPECS, make_poly


def wrong_row(n, d, j):
    return (1, 1, 1, 1)  # positive, so table2 still counts the row as realizable


def _row_key(preset_key):
    spec = figure_preset(preset_key).spec
    return (incidence_type(spec).kind, table_variant(spec.curve), table_branch(spec.curve))


def _failed_names(report):
    return sorted(c.name for c in report.checks if not c.passed)


def test_table2_row_check_fails_with_its_instances(monkeypatch):
    monkeypatch.setitem(CLASSIFICATION_TABLE, (5, "B", "lt"), wrong_row)
    report = run_table2()
    instances = [n for n in _failed_names(report) if n.startswith("type 5B lt ")]
    assert instances
    assert _failed_names(report) == sorted(instances + ["type 5B (lt)"])
    row = next(c for c in report.checks if c.name == "type 5B (lt)")
    assert row.measured.startswith(f"{len(instances)} of ")


def test_invariants_report_disagreement_per_preset(monkeypatch):
    names = [c.name for c in run_invariants().checks]
    row = _row_key("5b")
    affected = sorted(f"{key} classification" for key in preset_keys() if _row_key(key) == row)
    monkeypatch.setitem(CLASSIFICATION_TABLE, row, wrong_row)
    report = run_invariants()
    assert [c.name for c in report.checks] == names
    assert _failed_names(report) == affected
    assert all("classification paths disagree" in c.measured for c in report.checks if not c.passed)


GEOMETRY_ROWS = ("curve on surface", "circle-key stability", "passes base points", "tangent at origin")


def test_geometry_rows_fail_on_a_shifted_surface(monkeypatch):
    names = [c.name for c in run_invariants().checks]
    exact = verify.parametric_point

    def shifted(frame, q, cos_theta, sin_theta):
        x, y, z = exact(frame, q, cos_theta, sin_theta)
        return (x, y, z + 1e-6)

    monkeypatch.setattr(verify, "parametric_point", shifted)
    report = run_invariants()
    assert [c.name for c in report.checks] == names
    geometry = sorted(n for n in names if n.split(" ", 1)[1] in GEOMETRY_ROWS)
    assert _failed_names(report) == geometry
    for key in preset_keys():
        assert f"{key} curve on surface" in geometry
        spec = figure_preset(key).spec
        assert (f"{key} passes base points" in geometry) == (spec.q > 0)
        assert (f"{key} tangent at origin" in geometry) == (spec.q == 0)
    for check in report.checks:
        if check.name.endswith(("curve on surface", "passes base points", "tangent at origin")):
            assert check.measured.startswith("max gap=1.000e-06"), check


def test_cone_constant_off_by_one_fails_and_names_its_pair(monkeypatch):
    exact = verify.origin_cone_constant
    target = curve.CurveSpec(1, 4, Fraction(1, 2))
    monkeypatch.setattr(verify, "origin_cone_constant", lambda s: exact(s) + (s == target))
    [row] = [c for c in run_invariants().checks if c.name == "cone constant sum vs closed form"]
    assert not row.passed
    assert row.measured == "44 of 45 (d, a) equal; differ at (4, 1/2)"


def test_wrong_absolute_multiplicity_fails_its_spec(monkeypatch):
    target = grid_specs()[12]
    exact = verify.absolute_point_multiplicity
    monkeypatch.setattr(verify, "absolute_point_multiplicity", lambda s: exact(s) + (s == target))
    label = f"CH({target.n},{target.d},{target.a}) absolute multiplicity"
    report = run_suite("table1")
    assert _failed_names(report) == [label]
    expected = curve.curve_properties(target).absolute_multiplicity
    measured = f"vanishing order={expected + 1} expected={expected}"
    assert next(c.measured for c in report.checks if c.name == label) == measured

    out, err = io.BytesIO(), io.BytesIO()
    assert run(["verify", "table1"], out, err) == 1
    assert err.getvalue() == b""
    assert f"FAIL  {label}  [{measured}]".encode() in out.getvalue()


def _scale_by_million(terms):
    for e in terms:
        terms[e] *= 10**6


def _perturb_largest_coefficient(terms):
    # Relative 1e-6 on one coefficient, exact in integers after scaling all by 10^6.
    largest = max(terms, key=lambda e: (abs(terms[e]), e))
    _scale_by_million(terms)
    terms[largest] += terms[largest] // 10**6


def _add_odd_y_term(terms):
    degree = max(sum(e) for e in terms)
    terms[(degree - 1, 1)] = max(terms.values(), key=abs)


@pytest.mark.parametrize(
    "edit,passed",
    [
        (_scale_by_million, True),
        (_perturb_largest_coefficient, False),
        (_add_odd_y_term, False),
    ],
)
def test_residual_detects_a_wrong_equation(monkeypatch, edit, passed):
    spec = curve.CurveSpec(3, 1, Fraction(1, 2))
    terms = {e: c.re for e, c in curve.implicit_equation(spec).terms.items()}
    edit(terms)
    monkeypatch.setattr(verify, "implicit_equation", lambda s: make_poly(("x", "y"), terms))
    [check] = verify._residual_case(spec)
    assert check.name == "CH(3,1,1/2) residual"
    assert check.passed is passed, check.measured


@pytest.mark.parametrize(
    "a,reason",
    [
        ("1e400", "int too large to convert to float"),
        ("1e100", "a power of a sample overflows float64"),
    ],
    ids=["1e400", "1e100"],
)
def test_residual_past_float_range_is_a_fail_row(a, reason):
    # The grid fits float64, but max_scaled_residual takes any spec; a value
    # past the float range is a FAIL row, not an aborted suite.
    spec = curve.CurveSpec(1, 1, Fraction(a))
    assert verify._residual_case(spec) == [
        verify.Check(f"CH(1,1,{spec.a}) residual", False, f"cannot be computed in float64: {reason}")
    ]


def _residual_full_rectangle(spec, samples=256):
    """The residual with Horner's rule on the full rectangle ``C``.

    The program skips the rows ``ex > degree - ey`` in the y step, and the
    additions of columns and rows that hold no term; this runs every step,
    so both must give the same value.
    """
    implicit = curve.implicit_equation(spec)
    degree = implicit.total_degree
    table = np.zeros((degree + 1, degree + 1))
    for (ex, ey), coeff in implicit.terms.items():
        table[ex, ey] = coeff.re
    coeff_scale = np.max(np.abs(table))
    phis = np.arange(samples) * (spec.parameter_period / samples)
    radii = np.cos(spec.n * phis / spec.d) + spec.a_float
    xs = radii * np.cos(phis)
    ys = radii * np.sin(phis)
    with np.errstate(over="ignore", invalid="ignore"):
        inner = np.zeros((degree + 1, samples))
        for ey in range(degree, -1, -1):
            inner *= ys
            inner += table[:, ey, None]
        values = np.zeros(samples)
        for ex in range(degree, -1, -1):
            values *= xs
            values += inner[ex]
        scales = coeff_scale * np.maximum(1.0, np.abs(radii)) ** degree
        worst = float(np.max(np.abs(values) / scales))
    if not math.isfinite(worst):
        raise OverflowError("a power of a sample overflows float64")
    return worst


def test_residual_triangle_matches_full_rectangle():
    for spec in grid_specs() + OFF_GRID_SPECS:
        assert max_scaled_residual(spec) == _residual_full_rectangle(spec), spec
    huge = curve.CurveSpec(1, 1, Fraction("1e100"))
    for residual in (max_scaled_residual, _residual_full_rectangle):
        with pytest.raises(OverflowError):
            residual(huge)
