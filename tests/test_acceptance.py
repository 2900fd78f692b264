"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
same checks back the ``chsurf verify`` subcommand.
"""

import io
import math
import random
import time
from fractions import Fraction

from axis_reference import axis_meeting_parameters
from chsurf.curve import (
    CurveSpec,
    absolute_point_multiplicity,
    curve_properties,
    homogeneous_implicit,
    implicit_equation,
    origin_cone_constant,
    origin_cone_constant_closed,
    tangent_cone,
)
from chsurf.mesh import export_obj, figure_preset, preset_keys, sample
from chsurf.surface import (
    classify,
    zero_circle_intersections,
    zero_circle_parameters,
)
from chsurf.verify import (
    GRID_A_VALUES,
    _preset_geometry_checks,
    grid_specs,
    max_scaled_residual,
    run_table2,
)

SEED = 809


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_order_suite():
    implicit_equation.cache_clear()
    homogeneous_implicit.cache_clear()
    started = time.time()
    failures = []
    specs = grid_specs()
    for spec in specs:
        degree = implicit_equation(spec).total_degree
        if degree != curve_properties(spec).order:
            failures.append((spec, degree))
    elapsed = time.time() - started
    _report(
        1,
        "curve order grid",
        not failures and elapsed < 60.0,
        f"{len(specs)} specs, {len(failures)} mismatches, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_origin_suite():
    failures = []
    cone_failures = []
    specs = grid_specs()
    for spec in specs:
        implicit = implicit_equation(spec)
        lowest = implicit.lowest_form()
        if lowest.total_degree != curve_properties(spec).origin_multiplicity:
            failures.append(spec)
        if spec.a != 0 and lowest.primitive() != tangent_cone(spec):
            cone_failures.append(spec)
    _report(
        2,
        "pole multiplicity grid",
        not failures and not cone_failures,
        f"{len(specs)} specs, {len(failures)} degree + {len(cone_failures)} cone mismatches",
    )


def test_criterion_3_absolute_suite():
    rng = random.Random(SEED)
    failures = []
    specs = grid_specs()
    for spec in specs:
        expected = curve_properties(spec).absolute_multiplicity
        slopes = set()
        while len(slopes) < 3:
            value = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            slopes.add(-value if rng.random() < 0.5 else value)
        for m in sorted(slopes):
            if absolute_point_multiplicity(spec, m) != expected:
                failures.append((spec, m))
    _report(
        3,
        "absolute multiplicity grid",
        not failures,
        f"{len(specs)} specs x 3 slopes, {len(failures)} mismatches",
    )


def test_criterion_4_residual_suite():
    worst = 0.0
    specs = grid_specs()
    for spec in specs:
        worst = max(worst, max_scaled_residual(spec, samples=256))
    _report(
        4,
        "polar residuals",
        worst <= 1e-9,
        f"{len(specs)} specs x 256 samples, max scaled residual {worst:.3e} <= 1e-09",
    )


def test_criterion_5_cone_constant():
    worst = 0.0
    worst_imag = 0.0
    cases = 0
    for d in range(1, 10):
        for a in GRID_A_VALUES:
            spec = CurveSpec(1, d, Fraction(a))
            exact = float(origin_cone_constant(spec))
            closed = origin_cone_constant_closed(spec)
            scale = max(1.0, abs(exact))
            worst = max(worst, abs(exact - closed.real) / scale)
            worst_imag = max(worst_imag, abs(closed.imag) / scale)
            cases += 1
    _report(
        5,
        "cone constant sum vs closed form",
        worst <= 1e-10 and worst_imag <= 1e-12,
        f"{cases} cases, max relative gap {worst:.3e} <= 1e-10, imag {worst_imag:.3e}",
    )


def test_criterion_6_classification_dual_path():
    report = run_table2(seed=SEED, max_nd=9)
    coverage = [c for c in report.checks if c.name == "table rows covered"]
    _report(
        6,
        "classification dual path",
        report.ok and coverage and coverage[0].passed,
        f"{report.passed} checks, {report.failed} failures, {coverage[0].measured}",
    )


FIGURE_EXPECTATIONS = {
    "3b": (20, 6, 8, 14),
    "3c": (20, 6, 8, 14),
    "3d": (20, 6, 8, 14),
    "5a": (40, 4, 32, 36),
    "5b": (40, 4, 32, 36),
    "5c": (40, 4, 32, 36),
    "6a": (30, 2, 26, 28),
    "6b": (30, 2, 26, 28),
    "6c": (30, 2, 26, 28),
    "8a": (9, 3, 3, 6),
    "8b": (9, 3, 3, 6),
    "8c": (15, 5, 5, 10),
    "9a": (10, 4, 2, 6),
    "9b": (10, 4, 2, 6),
    "9c": (10, 4, 2, 6),
    # Directing-point multiplicity follows the classification table
    # (type 3A with j=1: 2n - j = 5).
    "7a": (8, 3, 2, 5),
}


def test_criterion_7_figure_regressions():
    failures = []
    for key, expected in sorted(FIGURE_EXPECTATIONS.items()):
        got = classify(figure_preset(key).spec).numbers()
        if got != expected:
            failures.append((key, got, expected))
    _report(
        7,
        "figure classification regressions",
        not failures,
        f"{len(FIGURE_EXPECTATIONS)} figures, mismatches: {failures if failures else 'none'}",
    )


def test_criterion_8_geometric_properties():
    failed = []
    total = 0
    for key in preset_keys():
        for check in _preset_geometry_checks(key, count=64):
            total += 1
            if not check.passed:
                failed.append(check.name)
    _report(
        8,
        "preset geometric invariants",
        not failed,
        f"{total} checks over {len(preset_keys())} presets, failures: {failed if failed else 'none'}",
    )


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


def _parse_obj(data: bytes):
    vertices, faces = [], []
    for line in data.decode("ascii").splitlines():
        parts = line.split()
        if parts and parts[0] == "v":
            vertices.append(tuple(float(p) for p in parts[1:4]))
        elif parts and parts[0] == "f":
            faces.append(tuple(int(p) - 1 for p in parts[1:4]))
    return vertices, faces


def test_criterion_10_mesh_round_trip():
    failures = []
    for key in preset_keys():
        preset = figure_preset(key)
        mesh = sample(preset.spec, preset.nt, preset.ntheta)
        buffer = io.BytesIO()
        export_obj(mesh, buffer)
        vertices, faces = _parse_obj(buffer.getvalue())
        if len(vertices) != len(mesh.vertices) or len(faces) != len(mesh.triangles):
            failures.append(f"{key}: round-trip counts differ")
            continue
        singular = sorted(
            axis_meeting_parameters(preset.spec.curve, preset.spec.placement)
            + zero_circle_parameters(preset.spec)
        )
        period = preset.spec.curve.parameter_period

        def near(t, params, tol):
            return any(min(abs(t - p), period - abs(t - p)) <= tol for p in params)

        for row in mesh.rows:
            if row.kind != "full" and not near(row.t, singular, 1e-6):
                failures.append(f"{key}: spurious degenerate row at t={row.t:.6f}")
        degenerate_ts = [row.t for row in mesh.rows if row.kind != "full"]
        grid_ts = [row.t for row in mesh.rows]
        for p in singular:
            if near(p, grid_ts, 1e-9) and not near(p, degenerate_ts, 1e-6):
                failures.append(f"{key}: singular parameter {p:.6f} on grid but not degenerate")
    _report(
        10,
        "mesh round trip and degeneracy",
        not failures,
        f"{len(preset_keys())} presets, failures: {failures if failures else 'none'}",
    )
