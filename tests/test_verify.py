"""Tests that the verification suites report a broken table row as FAIL checks."""

import io
import math
import random
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


def _negate(terms):
    for e in terms:
        terms[e] = -terms[e]


def _perturb_largest_coefficient(terms):
    # Relative 1e-6 on one coefficient, exact in integers after scaling all by 10^6.
    largest = max(terms, key=lambda e: (abs(terms[e]), e))
    _scale_by_million(terms)
    terms[largest] += terms[largest] // 10**6


def _add_odd_y_term(terms):
    degree = max(sum(e) for e in terms)
    terms[(degree - 1, 1)] = max(terms.values(), key=abs)


def _add_one_to_a_coefficient(terms):
    terms[min(terms)] += 1


def _implicit_terms(spec):
    return {e: c.re for e, c in curve.implicit_equation(spec).terms.items()}


def _residual_row(monkeypatch, spec, terms):
    monkeypatch.setattr(verify, "implicit_equation", lambda s: make_poly(("x", "y"), terms))
    [check] = verify._residual_case(spec)
    return check


@pytest.mark.parametrize(
    "edit,passed",
    [
        (_scale_by_million, True),
        (_perturb_largest_coefficient, False),
        (_add_odd_y_term, False),
        (_add_one_to_a_coefficient, False),
    ],
)
def test_residual_detects_a_wrong_equation(monkeypatch, edit, passed):
    spec = curve.CurveSpec(3, 1, Fraction(1, 2))
    terms = _implicit_terms(spec)
    edit(terms)
    check = _residual_row(monkeypatch, spec, terms)
    assert check.name == "CH(3,1,1/2) residual"
    assert check.passed is passed, check.measured
    assert check.measured == ("G=0 exactly at u/v=1/2 and 2/1" if passed else "G!=0 at u/v=1/2")


@pytest.mark.parametrize("a", ["1e100", "1e400"])
def test_residual_past_float_range_is_exact(monkeypatch, a):
    # Past the float range the residual is still exact: the true equation
    # passes and one coefficient off by one fails.
    spec = curve.CurveSpec(1, 1, Fraction(a))
    assert verify._residual_case(spec) == [
        verify.Check(f"CH(1,1,{spec.a}) residual", True, "G=0 exactly at u/v=1/2 and 2/1")
    ]
    terms = _implicit_terms(spec)
    _add_one_to_a_coefficient(terms)
    assert not _residual_row(monkeypatch, spec, terms).passed


def test_rational_point_matches_the_float_sampler():
    # Every coordinate is nonzero, so no residual point is the pole, and a
    # change to any one coefficient changes G by a nonzero amount.
    for spec in grid_specs() + OFF_GRID_SPECS:
        extent = 1.0 + spec.a_float
        for u, v in verify.RESIDUAL_PARAMETERS:
            x, y, z = curve.rational_point(spec, u, v)
            assert x != 0 and y != 0 and z != 0, (spec, u, v)
            px, py, _ = curve.curve_point(spec, curve.Placement(), 2 * spec.d * math.atan(u / v))
            assert abs(x / z - px) <= 1e-12 * extent, (spec, u, v)
            assert abs(y / z - py) <= 1e-12 * extent, (spec, u, v)


def _plain_sum(terms, x, y, z):
    degree = max(map(sum, terms))
    return sum(c * x**i * y**j * z ** (degree - i - j) for (i, j), c in terms.items())


def test_residual_horner_matches_the_plain_sum():
    specs = grid_specs() + OFF_GRID_SPECS
    edits = (None, _add_one_to_a_coefficient, _add_odd_y_term, _perturb_largest_coefficient)
    for spec in specs:
        for edit in edits:
            terms = _implicit_terms(spec)
            if edit:
                edit(terms)
            poly = make_poly(("x", "y"), terms)
            for u, v in verify.RESIDUAL_PARAMETERS:
                point = curve.rational_point(spec, u, v)
                value = verify._homogeneous_value(poly, *point)
                assert value == _plain_sum(terms, *point), (spec, edit, u, v)
                assert (value == 0) == (edit is None), (spec, edit, u, v)


def _residual_full_rectangle(spec, terms, samples=256):
    """The float residual that ``verify residual`` ran before its rows were exact.

    The largest ``|P|`` over ``samples`` polar samples of the curve, with
    ``P`` the polynomial of the int term map ``terms``, evaluated by
    Horner's rule on the full rectangle of exponents and scaled by the
    largest coefficient times ``max(1, |r|)^degree``.  Kept as the float
    reference of the mutation study; a value above 1e-9 is a FAIL.
    """
    degree = max(map(sum, terms))
    table = np.zeros((degree + 1, degree + 1))
    for (ex, ey), coeff in terms.items():
        table[ex, ey] = coeff
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


def _mutants(terms, rng):
    """(class, mutated term map) for the mutation classes of one equation."""

    def edited(edit):
        copy = dict(terms)
        edit(copy)
        return copy

    key = rng.choice(sorted(terms))
    dropped = rng.choice(sorted(terms))
    yield "coefficient +1", edited(lambda t: t.__setitem__(key, t[key] + 1))
    yield "coefficient -1", edited(lambda t: t.__setitem__(key, t[key] - 1))
    yield "largest x (1 + 1e-6)", edited(_perturb_largest_coefficient)
    yield "odd y term added", edited(_add_odd_y_term)
    yield "one term dropped", edited(lambda t: t.pop(dropped))
    yield "equation x 10^6", edited(_scale_by_million)
    yield "equation x -1", edited(_negate)


FAITHFUL = ("equation x 10^6", "equation x -1")


def test_exact_residual_catches_every_mutation_the_float_residual_catches(monkeypatch):
    # The mutation study behind dropping the float row: over the grid and the
    # off-grid specs, every mutated equation that the float residual flags
    # fails the exact row, and the rescaled equations pass both.  One
    # coefficient per spec is sampled for the +1 and -1 classes.
    rng = random.Random(36)
    counts = {}
    for spec in grid_specs() + OFF_GRID_SPECS:
        for name, terms in _mutants(_implicit_terms(spec), rng):
            poly = make_poly(("x", "y"), terms)
            monkeypatch.setattr(verify, "implicit_equation", lambda s: poly)
            flagged = _residual_full_rectangle(spec, terms) > 1e-9
            exact_fails = max_scaled_residual(spec) > 1e-9
            assert exact_fails or not flagged, (name, spec)
            assert exact_fails is (name not in FAITHFUL), (name, spec)
            seen = counts.setdefault(name, [0, 0, 0])
            seen[0] += 1
            seen[1] += flagged
            seen[2] += exact_fails
    for name, (total, flagged, failed) in counts.items():
        print(f"{name}: {total} mutants, float FAIL {flagged}, exact FAIL {failed}")
    assert all(flagged == 0 for name, (_, flagged, _) in counts.items() if name in FAITHFUL)
