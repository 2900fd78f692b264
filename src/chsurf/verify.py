"""Verification suites backing the ``verify`` CLI subcommand.

Each suite re-derives a tabulated property of the construction and reports
one named check per case: symbolic degree and multiplicity checks for the
curve table, the dual-path agreement for the surface classification table,
exact residuals of the implicit equations at integer points of the curves,
and the geometric invariants of the figure presets.  Every check is
deterministic, and the suites run in one process, in grid order, so they
share the cached implicit equations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

from .curve import (
    CurveSpec,
    absolute_point_multiplicity,
    curve_point,
    curve_properties,
    implicit_equation,
    origin_cone_constant,
    origin_cone_constant_closed,
    rational_point,
    tangent_cone,
)
from .mesh import figure_preset, preset_keys
from .poly import MultiPoly
from .surface import (
    IncidenceType,
    _circle_frame,
    circle_key,
    circle_key_close,
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


# -- residual: exact points satisfy the implicit equation ----------------------------

# Half-angle parameters u/v = tan(theta/2) of the residual points, both with
# u^2 + v^2 = 5.  For k >= 1 the real and imaginary parts of (v + iu)^(2k)
# are prime to 5, as 2 + i and 2 - i are coprime Gaussian primes.  So X or Y
# is 0 only at the pole, where cos n*theta = -a, a fraction of denominator
# 5^n that no grid offset is.  Off the pole no coordinate is 0, and a change
# to any one coefficient changes G.
RESIDUAL_PARAMETERS = ((1, 2), (2, 1))


def _homogeneous_value(implicit: MultiPoly, x: int, y: int, z: int) -> int:
    """G(x, y, z) = sum c_ij x^i y^j z^(D-i-j) of the equation of degree D, exactly.

    Horner's rule in x, with the powers of z, for each power of y, and then
    Horner's rule in y over those values.  Every term is evaluated, odd y
    exponents included.
    """
    degree = implicit.total_degree
    rows = [[0] * (degree + 1 - j) for j in range(degree + 1)]  # rows[j][i] = c_ij
    for (i, j), coeff in implicit.terms.items():
        rows[j][i] = coeff.re  # the equation is real
    z_powers = [1]
    for _ in range(degree):
        z_powers.append(z_powers[-1] * z)
    value = 0
    for row in reversed(rows):
        row_value = 0
        for coeff, z_power in zip(reversed(row), z_powers):
            row_value *= x
            if coeff:
                row_value += coeff * z_power
        value = value * y + row_value
    return value


def _nonzero_parameters(spec: CurveSpec) -> Iterator[Tuple[int, int]]:
    """The residual parameters, in order, at whose point G is not 0."""
    implicit = implicit_equation(spec)
    for u, v in RESIDUAL_PARAMETERS:
        if _homogeneous_value(implicit, *rational_point(spec, u, v)):
            yield u, v


def max_scaled_residual(spec: CurveSpec) -> float:
    """0.0 when the homogenized equation vanishes exactly at every residual point, else 1.0.

    Each parameter u/v of ``RESIDUAL_PARAMETERS`` gives the integer point
    (X, Y, Z) of ``curve.rational_point``, and G(X, Y, Z) is evaluated on
    ints by ``_homogeneous_value``, so no float and no tolerance enter, and
    any rational spec can be checked.  The value is not a size: any
    nonzero G gives 1.0, which is above every float bound of 1e-9.
    """
    return 1.0 if next(_nonzero_parameters(spec), None) else 0.0


_PARAMETER_TEXT = "u/v=" + " and ".join(f"{u}/{v}" for u, v in RESIDUAL_PARAMETERS)


def _residual_case(spec: CurveSpec) -> List[Check]:
    name = f"{_spec_label(spec)} residual"
    if max_scaled_residual(spec) == 0.0:
        return [Check(name, True, f"G=0 exactly at {_PARAMETER_TEXT}")]
    u, v = next(_nonzero_parameters(spec))
    return [Check(name, False, f"G!=0 at u/v={u}/{v}")]


def run_residual() -> Report:
    return Report("residual", [check for spec in grid_specs() for check in _residual_case(spec)])


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


def _sample_parameters(spec, count: int) -> List[Tuple[Tuple[float, float, float], tuple]]:
    """Well-spread curve points off the axis and off point circles, each with its circle frame."""
    period = spec.curve.parameter_period
    out = []
    for k in range(count * 2):
        t = period * (k + 0.37) / (count * 2)
        point = curve_point(spec.curve, spec.placement, t)
        frame = _circle_frame(spec, point)
        if frame is None or frame[2] == 0.0:
            continue
        out.append((point, frame))
        if len(out) == count:
            break
    return out


def _preset_geometry_checks(key: str) -> List[Check]:
    """The geometry rows of one preset, from one pass over its sampled circles.

    Each sampled curve point comes with its circle frame
    (``surface._circle_frame``), and every circle point is placed from that
    frame by ``surface.parametric_point``, the formula that makes the mesh,
    and each circle key is read from a frame by ``surface.circle_key``.
    The point's distance ``rho`` from the axis and the meridian center of
    its circle are computed once; the curve angle, the two base-point
    angles (q > 0) and the angle of the origin (q = 0) are taken from them.
    """
    spec = figure_preset(key).spec
    q = spec.q_float
    scale = spec.extent
    count = 64  # sampled parameters per check
    samples = _sample_parameters(spec, count)
    root_q = math.sqrt(q) if q > 0 else 0.0
    key_angles = [(math.cos(theta), math.sin(theta)) for theta in (0.4, 1.7, 3.1, 4.9)]
    checks = []

    worst_curve = worst_base = worst_origin = 0.0
    worst_key_ok = True
    row_key = None
    for point, frame in samples:
        x, y, z = point
        rho = math.hypot(x, y)
        center = (rho * rho + z * z - q) / (2.0 * rho)
        theta = math.atan2(z, rho - center)
        got = parametric_point(frame, q, math.cos(theta), math.sin(theta))
        worst_curve = max(worst_curve, math.dist(point, got))
        row_key = circle_key(frame, q)
        for cos_theta, sin_theta in key_angles:
            on_circle = parametric_point(frame, q, cos_theta, sin_theta)
            if math.hypot(on_circle[0], on_circle[1]) < 1e-5 * scale:
                continue
            if not circle_key_close(row_key, circle_key(_circle_frame(spec, on_circle), q), 1e-7):
                worst_key_ok = False
        if q > 0:
            radius = math.sqrt(center * center + q)
            for sign in (1.0, -1.0):
                theta = math.atan2(sign * root_q / radius, -center / radius)
                on_circle = parametric_point(frame, q, math.cos(theta), math.sin(theta))
                worst_base = max(worst_base, math.dist(on_circle, (0.0, 0.0, sign * root_q)))
        elif q == 0:
            theta = math.pi if center > 0 else 0.0
            on_circle = parametric_point(frame, q, math.cos(theta), math.sin(theta))
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
    for k in range(count):
        t = period * k / count
        point = curve_point(spec.curve, spec.placement, t)
        x, y, _ = point
        if math.sqrt(x * x + y * y) <= spec.axis_bound:
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


_SUITES = {
    "table1": run_table1,
    "table2": run_table2,
    "residual": run_residual,
    "invariants": run_invariants,
}


def run_suite(suite: str) -> Report:
    """One suite's report; ``all`` joins the four."""
    if suite == "all":
        return Report("all", [check for run in _SUITES.values() for check in run().checks])
    return _SUITES[suite]()
