"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 1-6 and 8 read the reports of the ``chsurf verify`` suites, run
once per module through ``run_suite``, so each of those checks has one
implementation and one tolerance.  Each line names the failing checks with
their measured values.  The figure regressions, the waist points and the
mesh round trips (criteria 7, 9 and 10) are checked only here.
"""

import math
import time

import pytest

from axis_reference import axis_meeting_parameters
from helpers import parse_obj, streamed_obj
from chsurf.curve import homogeneous_implicit, implicit_equation
from chsurf.mesh import _Grid, figure_preset, preset_keys
from chsurf.surface import (
    classify,
    zero_circle_intersections,
    zero_circle_parameters,
)
from chsurf.verify import grid_specs, run_suite


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def _report_checks(number, name, checks, *conditions):
    """Pass when there are checks, all pass and every (ok, detail) condition holds."""
    failing = [f"{c.name} [{c.measured}]" for c in checks if not c.passed]
    ok = bool(checks) and not failing and all(holds for holds, _ in conditions)
    details = [f"{len(checks)} checks"] + [detail for _, detail in conditions]
    details.append(f"failing: {'; '.join(failing) or 'none'}")
    _report(number, name, ok, ", ".join(details))


def _named(report, *suffixes):
    return [c for c in report.checks if c.name.endswith(suffixes)]


def _one_per_spec(checks, suffix):
    names = [f"CH({s.n},{s.d},{s.a}){suffix}" for s in grid_specs()]
    return [c.name for c in checks] == names, f"one per grid spec ({len(names)})"


@pytest.fixture(scope="module")
def suites():
    """The four suites' reports, and the cold-cache table1 time in seconds."""
    implicit_equation.cache_clear()
    homogeneous_implicit.cache_clear()
    started = time.perf_counter()
    reports = {"table1": run_suite("table1")}
    elapsed = time.perf_counter() - started
    for name in ("table2", "residual", "invariants"):
        reports[name] = run_suite(name)
    return reports, elapsed


def test_criterion_1_order_suite(suites):
    reports, elapsed = suites
    orders = _named(reports["table1"], " order")
    _report_checks(
        1,
        "curve order grid",
        orders,
        _one_per_spec(orders, " order"),
        (elapsed < 60.0, f"table1 {elapsed:.1f}s (budget 60s)"),
    )


def test_criterion_2_origin_suite(suites):
    checks = _named(suites[0]["table1"], " origin multiplicity", " tangent cone")
    _report_checks(2, "pole multiplicity grid", checks)


def test_criterion_3_absolute_suite(suites):
    checks = _named(suites[0]["table1"], " absolute multiplicity")
    _report_checks(
        3, "absolute multiplicity grid", checks, _one_per_spec(checks, " absolute multiplicity")
    )


def test_criterion_4_residual_suite(suites):
    checks = _named(suites[0]["residual"], " residual")
    _report_checks(4, "exact residuals", checks, _one_per_spec(checks, " residual"))


def test_criterion_5_cone_constant(suites):
    checks = [c for c in suites[0]["invariants"].checks if c.name.startswith("cone constant")]
    _report_checks(5, "cone constant sum vs closed form", checks)


def test_criterion_6_classification_dual_path(suites):
    checks = suites[0]["table2"].checks
    coverage = next((c.measured for c in checks if c.name == "table rows covered"), None)
    covered = (coverage is not None, f"rows covered: {coverage}")
    _report_checks(6, "classification dual path", checks, covered)


# Type label and (order, absolute conic, axis, directing points) per
# preset, as ``verify invariants`` prints them.
FIGURE_EXPECTATIONS = {
    "3b": ("1B", (20, 6, 8, 14)),
    "3c": ("1B", (20, 6, 8, 14)),
    "3d": ("1B", (20, 6, 8, 14)),
    "5a": ("2B", (40, 4, 32, 36)),
    "5b": ("2B", (40, 4, 32, 36)),
    "5c": ("2B", (40, 4, 32, 36)),
    "6a": ("2B", (30, 2, 26, 28)),
    "6b": ("2B", (30, 2, 26, 28)),
    "6c": ("2B", (30, 2, 26, 28)),
    "8a": ("4A", (9, 3, 3, 6)),
    "8b": ("4A", (9, 3, 3, 6)),
    "8c": ("4A", (15, 5, 5, 10)),
    "9a": ("5A", (10, 4, 2, 6)),
    "9b": ("5A", (10, 4, 2, 6)),
    "9c": ("5A", (10, 4, 2, 6)),
    # Directing-point multiplicity follows the classification table
    # (type 3A with j=1: 2n - j = 5).
    "7a": ("3A", (8, 3, 2, 5)),
}


def test_criterion_7_figure_regressions():
    failures = []
    for key, expected in sorted(FIGURE_EXPECTATIONS.items()):
        result = classify(figure_preset(key).spec)
        got = (result.type_label, result.numbers())
        if got != expected:
            failures.append((key, got, expected))
    _report(
        7,
        "figure classification regressions",
        not failures,
        f"{len(FIGURE_EXPECTATIONS)} figures, mismatches: {failures if failures else 'none'}",
    )


def test_criterion_8_geometric_properties(suites):
    keys = preset_keys()
    checks = [c for c in suites[0]["invariants"].checks if c.name.split()[0] in keys]
    every_preset = {c.name.split()[0] for c in checks} == set(keys)
    _report_checks(8, "preset geometric invariants", checks, (every_preset, f"{len(keys)} presets"))


def test_criterion_9_waist_singular_points():
    spec = figure_preset("6b").spec
    points_coarse = zero_circle_intersections(spec, grid=4096)
    points_fine = zero_circle_intersections(spec, grid=8192)
    stable = len(points_coarse) == len(points_fine) == 7 and all(
        math.dist(a, b) <= 1e-6 for a, b in zip(points_coarse, points_fine)
    )
    _report(
        9,
        "waist-circle singular points",
        stable,
        f"grid 4096 -> {len(points_coarse)} points, grid 8192 -> {len(points_fine)}, expected 7",
    )


def test_criterion_10_mesh_round_trip():
    failures = []
    for key in preset_keys():
        preset = figure_preset(key)
        # The bytes figure writes, read back; the rows are the grid's.
        vertices, faces = parse_obj(streamed_obj(preset.spec, preset.nt, preset.ntheta))
        grid = _Grid(preset.spec, preset.nt, preset.ntheta)
        if len(vertices) != grid.count:
            failures.append(f"{key}: {len(vertices)} vertices streamed for {grid.count} on the grid")
            continue
        if faces and not (min(map(min, faces)) >= 0 and max(map(max, faces)) < grid.count):
            failures.append(f"{key}: a face index outside the {grid.count} vertices")
            continue
        singular = sorted(
            axis_meeting_parameters(preset.spec.curve, preset.spec.placement)
            + zero_circle_parameters(preset.spec)
        )
        period = preset.spec.curve.parameter_period

        def near(t, params, tol):
            return any(min(abs(t - p), period - abs(t - p)) <= tol for p in params)

        grid_ts = [period * i / preset.nt for i in range(preset.nt)]
        # A hole (size 0) or an apex (size 1) is degenerate; a ring has ntheta vertices.
        degenerate_ts = [t for t, size in zip(grid_ts, grid.sizes.tolist()) if size != preset.ntheta]
        for t in degenerate_ts:
            if not near(t, singular, 1e-6):
                failures.append(f"{key}: spurious degenerate row at t={t:.6f}")
        for p in singular:
            if near(p, grid_ts, 1e-9) and not near(p, degenerate_ts, 1e-6):
                failures.append(f"{key}: singular parameter {p:.6f} on grid but not degenerate")
    _report(
        10,
        "mesh round trip and degeneracy",
        not failures,
        f"{len(preset_keys())} presets, failures: {failures if failures else 'none'}",
    )
