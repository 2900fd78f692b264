"""Verification suites backing the ``verify`` CLI subcommand.

Each suite re-derives a tabulated property of the construction and reports
one named check per case: symbolic degree and multiplicity checks for the
curve table, the dual-path agreement for the surface classification table,
sampled residuals of the implicit equations, and the geometric invariants
of the figure presets.  Every check is deterministic, and the suites run
in one process, in grid order, so they share the cached implicit equations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .congruence import circle_key_close, circle_through
from .curve import (
    CurveSpec,
    absolute_point_multiplicity,
    curve_point,
    curve_properties,
    implicit_equation,
    origin_cone_constant,
    origin_cone_constant_closed,
    tangent_cone,
)
from .mesh import figure_preset, preset_keys
from .surface import (
    AXIS_EPS,
    IncidenceType,
    classify,
    count_row,
    parametric_point,
    radicand,
    table_branch,
    table_row,
    table_variant,
    zero_circle_parameters,
)

GRID_A_VALUES = ("0", "1/4", "1/2", "1", "5/2")
SUITES = ("table1", "table2", "residual", "invariants", "all")


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: str


@dataclass
class Report:
    suite: str
    checks: List[Check] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [
                {"name": c.name, "passed": c.passed, "measured": c.measured}
                for c in self.checks
            ],
            "passed": self.passed,
            "failed": self.failed,
            "ok": self.ok,
        }


def grid_specs(max_nd: int = 9, a_values: Sequence[str] = GRID_A_VALUES) -> List[CurveSpec]:
    """Every coprime (n, d) up to max_nd crossed with the offset grid.

    The defaults are the paper's grid; every suite enumerates it here.
    """
    specs = []
    for n in range(1, max_nd + 1):
        for d in range(1, max_nd + 1):
            if math.gcd(n, d) != 1:
                continue
            for a in a_values:
                specs.append(CurveSpec(n, d, Fraction(a)))
    return specs


def _spec_label(spec: CurveSpec) -> str:
    return f"CH({spec.n},{spec.d},{spec.a})"


# -- table1: curve order and multiplicities ----------------------------------------


def _table1_case(spec: CurveSpec) -> List[Check]:
    label = _spec_label(spec)
    expected = curve_properties(spec)
    implicit = implicit_equation(spec)
    rows = []

    degree = implicit.total_degree
    rows.append(
        Check(f"{label} order", degree == expected.order, f"degree={degree} expected={expected.order}")
    )
    lowest = implicit.lowest_form()
    origin = lowest.total_degree
    rows.append(
        Check(
            f"{label} origin multiplicity",
            origin == expected.origin_multiplicity,
            f"lowest-form degree={origin} expected={expected.origin_multiplicity}",
        )
    )
    if not spec.is_odd_rose:
        cone_matches = lowest.primitive() == tangent_cone(spec)
        rows.append(Check(f"{label} tangent cone", cone_matches, f"proportional={cone_matches}"))
    absolute = absolute_point_multiplicity(spec)
    rows.append(
        Check(
            f"{label} absolute multiplicity",
            absolute == expected.absolute_multiplicity,
            f"vanishing order={absolute} expected={expected.absolute_multiplicity}",
        )
    )
    return rows


def run_table1() -> Report:
    return Report("table1", [check for spec in grid_specs() for check in _table1_case(spec)])


# -- table2: classification dual path -----------------------------------------------


def run_table2() -> Report:
    report = Report("table2")
    covered: Dict[Tuple[int, str, str], int] = {}
    mismatched: Dict[Tuple[int, str, str], int] = {}
    # Variant A on the grid's odd-product roses (a = 0), variant B at a = 1/2.
    for curve in grid_specs(a_values=("0", "1/2")):
        if curve.a == 0 and not curve.is_odd_rose:
            continue
        variant = table_variant(curve)
        branch = table_branch(curve)
        for kind in (1, 2, 3, 4, 5):
            for j in ((1, 2) if kind in (3, 4) else (None,)):
                incidence = IncidenceType(kind, j)
                expected = table_row(curve, incidence)
                if expected[0] <= 0 or expected[3] <= 0:
                    continue  # j not realizable on this curve
                got = count_row(curve, incidence)
                key = (kind, variant, branch)
                if got != expected:
                    mismatched[key] = mismatched.get(key, 0) + 1
                    report.checks.append(
                        Check(
                            f"type {kind}{variant} {branch} CH({curve.n},{curve.d}) j={j}",
                            False,
                            f"counts={got} table={expected}",
                        )
                    )
                covered[key] = covered.get(key, 0) + 1
    for key in sorted(covered):
        kind, variant, branch = key
        bad = mismatched.get(key, 0)
        report.checks.append(
            Check(
                f"type {kind}{variant} ({branch})",
                bad == 0,
                f"{bad} of {covered[key]} grid instantiations disagree"
                if bad
                else f"{covered[key]} grid instantiations agree",
            )
        )
    report.checks.append(
        Check("table rows covered", len(covered) == 20, f"{len(covered)}/20 rows")
    )
    return report


# -- residual: sampled points satisfy the implicit equation ---------------------------


def max_scaled_residual(spec: CurveSpec) -> float:
    """Largest |P(point)| over 256 polar samples, scaled by the coefficient size.

    The coefficients of the (real) implicit equation fill a dense float table
    ``C[ex, ey]`` with a column for every y exponent up to the degree, and
    ``P`` is evaluated at all samples at once by Horner's rule: in y for
    every x power, then in x.  Only the triangle ``ex + ey <= degree`` holds
    terms, so the y step for ``ey`` runs on the rows ``ex <= degree - ey``;
    every other row still holds the exact zero that the full rectangle
    would leave there.  Every multiply runs, but a column ``ey`` or a row
    ``ex`` with no term adds nothing, so its addition is skipped; the
    equation is even in y, so that is every odd ``ey``.  Adding an exact
    zero changes at most the sign of a zero, so the result has the same bits
    as the full rectangle.  Each sample's value is divided by the largest
    coefficient times ``max(1, |r|)^degree``.

    Raises ``OverflowError`` when a coefficient, a sample or the value does
    not fit a float64, so no residual can be computed.
    """
    import numpy as np  # only this suite needs it; the other commands start faster without

    implicit = implicit_equation(spec)
    degree = implicit.total_degree
    table = np.zeros((degree + 1, degree + 1))
    x_exponents, y_exponents = set(), set()
    for (ex, ey), coeff in implicit.terms.items():
        table[ex, ey] = coeff.re  # the equation is real
        x_exponents.add(ex)
        y_exponents.add(ey)
    coeff_scale = np.max(np.abs(table))

    samples = 256
    phis = np.arange(samples) * (spec.parameter_period / samples)
    radii = np.cos(spec.n * phis / spec.d) + spec.a_float
    xs = radii * np.cos(phis)
    ys = radii * np.sin(phis)
    with np.errstate(over="ignore", invalid="ignore"):
        inner = np.zeros((degree + 1, samples))
        for ey in range(degree, -1, -1):
            rows = inner[: degree + 1 - ey]  # a view: rows ex <= degree - ey
            rows *= ys
            if ey in y_exponents:
                rows += table[: degree + 1 - ey, ey, None]
        values = np.zeros(samples)
        for ex in range(degree, -1, -1):
            values *= xs
            if ex in x_exponents:
                values += inner[ex]
        scales = coeff_scale * np.maximum(1.0, np.abs(radii)) ** degree
        worst = float(np.max(np.abs(values) / scales))
    if not math.isfinite(worst):
        raise OverflowError("a power of a sample overflows float64")
    return worst


def _residual_case(spec: CurveSpec) -> List[Check]:
    name = f"{_spec_label(spec)} residual"
    try:
        worst = max_scaled_residual(spec)
    except OverflowError as failure:
        return [Check(name, False, f"cannot be computed in float64: {failure}")]
    return [Check(name, worst <= 1e-9, f"max={worst:.3e} bound=1e-09")]


def run_residual(only: Optional[CurveSpec] = None) -> Report:
    specs = [only] if only is not None else grid_specs()
    return Report("residual", [check for spec in specs for check in _residual_case(spec)])


# -- invariants: the cone constant and preset geometry -------------------------------


def _cone_constant_check() -> Check:
    """T_d(-a) by the Chebyshev recurrence and by the binomial closed form, exactly.

    T_d(-a) does not depend on n, so the grid's curves with n = 1 give
    every (d, a) of the grid once.
    """
    specs = [spec for spec in grid_specs() if spec.n == 1]
    differ = [
        f"({spec.d}, {spec.a})"
        for spec in specs
        if origin_cone_constant(spec) != origin_cone_constant_closed(spec)
    ]
    measured = f"{len(specs) - len(differ)} of {len(specs)} (d, a) equal"
    if differ:
        measured += f"; differ at {', '.join(differ)}"
    return Check("cone constant sum vs closed form", not differ, measured)


def _sample_parameters(spec, count: int) -> List[Tuple[float, Tuple[float, float, float]]]:
    """Well-spread parameters avoiding degenerate rows, each with its curve point."""
    period = spec.curve.parameter_period
    q = spec.congruence.q_float
    axis_tol = AXIS_EPS * spec.extent
    out = []
    for k in range(count * 2):
        t = period * (k + 0.37) / (count * 2)
        point = curve_point(spec.curve, spec.placement, t)
        if math.hypot(point[0], point[1]) <= axis_tol or radicand(point, q) == 0.0:
            continue
        out.append((t, point))
        if len(out) == count:
            break
    return out


def _preset_geometry_checks(key: str) -> List[Check]:
    """The geometry rows of one preset, from one pass over its sampled circles.

    For each sampled parameter the curve point, its distance ``rho`` from
    the axis and the meridian center of the circle through it are computed
    once.  The curve angle, the two base-point angles (q > 0) and the angle
    of the origin (q = 0) are all taken from them.
    """
    spec = figure_preset(key).spec
    q = spec.congruence.q_float
    scale = spec.extent
    count = 64  # sampled parameters per check
    samples = _sample_parameters(spec, count)
    root_q = math.sqrt(q) if q > 0 else 0.0
    checks = []

    worst_curve = worst_base = worst_origin = 0.0
    worst_key_ok = True
    row_key = None
    for t, point in samples:
        x, y, z = point
        rho = math.hypot(x, y)
        center = (rho * rho + z * z - q) / (2.0 * rho)
        got = parametric_point(spec, t, math.atan2(z, rho - center))
        worst_curve = max(worst_curve, math.dist(point, got))
        row_key = circle_through(spec.congruence, point)
        for theta in (0.4, 1.7, 3.1, 4.9):
            on_circle = parametric_point(spec, t, theta)
            if math.hypot(on_circle[0], on_circle[1]) < 1e-5 * scale:
                continue
            if not circle_key_close(row_key, circle_through(spec.congruence, on_circle), 1e-7):
                worst_key_ok = False
        if q > 0:
            radius = math.sqrt(center * center + q)
            for sign in (1.0, -1.0):
                theta = math.atan2(sign * root_q / radius, -center / radius)
                on_circle = parametric_point(spec, t, theta)
                worst_base = max(worst_base, math.dist(on_circle, (0.0, 0.0, sign * root_q)))
        elif q == 0:
            on_circle = parametric_point(spec, t, math.pi if center > 0 else 0.0)
            worst_origin = max(worst_origin, math.dist(on_circle, (0.0, 0.0, 0.0)))

    checks.append(
        Check(
            f"{key} curve on surface",
            worst_curve <= 1e-8 * scale,
            f"max gap={worst_curve:.3e} over {len(samples)} params",
        )
    )
    key_echo = json.dumps(
        {
            "meridian_angle": round(row_key.meridian_angle, 12),
            "center_offset": round(row_key.center_offset, 12),
            "radius": round(row_key.radius, 12),
        }
    )
    checks.append(
        Check(
            f"{key} circle-key stability",
            worst_key_ok,
            f"{len(samples)} params x 4 angles, last key {key_echo}",
        )
    )
    if q > 0:
        checks.append(
            Check(f"{key} passes base points", worst_base <= 1e-9 * scale, f"max gap={worst_base:.3e}")
        )
    if q == 0:
        checks.append(
            Check(f"{key} tangent at origin", worst_origin <= 1e-9 * scale, f"max gap={worst_origin:.3e}")
        )

    touched = zero_circle_parameters(spec) if q < 0 else []
    bad = 0
    period = spec.curve.parameter_period
    axis_tol = AXIS_EPS * scale
    for k in range(count):
        t = period * k / count
        point = curve_point(spec.curve, spec.placement, t)
        if math.hypot(point[0], point[1]) <= axis_tol:
            continue  # parametrization undefined on the axis
        value = radicand(point, q)
        if value < 0.0:
            bad += 1
        elif value == 0.0:
            near = any(
                min(abs(t - w), period - abs(t - w)) <= 1e-6 for w in touched
            )
            if not near:
                bad += 1
    checks.append(
        Check(
            f"{key} radicand sign",
            bad == 0,
            f"{bad} violations over {count} params",
        )
    )
    return checks


def run_invariants() -> Report:
    report = Report("invariants")
    report.checks.append(_cone_constant_check())
    for key in preset_keys():
        report.checks.extend(_preset_geometry_checks(key))
        try:
            result = classify(figure_preset(key).spec)
        except RuntimeError as disagreement:
            report.checks.append(Check(f"{key} classification", False, str(disagreement)))
            continue
        report.checks.append(
            Check(
                f"{key} classification",
                True,
                f"type {result.type_label}: {result.numbers()}",
            )
        )
    return report


def run_suite(suite: str, only: Optional[CurveSpec] = None) -> Report:
    if suite == "table1":
        return run_table1()
    if suite == "table2":
        return run_table2()
    if suite == "residual":
        return run_residual(only)
    if suite == "invariants":
        return run_invariants()
    if suite == "all":
        report = Report("all")
        for name in ("table1", "table2", "residual", "invariants"):
            report.extend(run_suite(name, only if name == "residual" else None))
        return report
    raise ValueError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
