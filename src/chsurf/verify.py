"""Verification suites backing the ``verify`` CLI subcommand.

Each suite re-derives a tabulated property of the construction and reports
one named check per case: symbolic degree and multiplicity checks for the
curve table, the dual-path agreement for the surface classification table,
sampled residuals of the implicit equations, and the geometric invariants
of the figure presets.  Suites are deterministic for a given seed; per-spec
seeds are derived by position so results do not depend on the job count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .congruence import circle_key_close, circle_through
from .curve import (
    DEFAULT_SEED,
    CurveSpec,
    curve_point,
    curve_properties,
    implicit_equation,
    origin_cone_constant,
    origin_cone_constant_closed,
    tangent_cone,
    verified_absolute_multiplicity,
)
from .mesh import figure_preset, preset_keys
from .surface import (
    CLASSIFICATION_TABLE,
    IncidenceType,
    classification_from_counts,
    classify,
    curve_theta,
    generating_circle,
    incidence_counts,
    parametric_point,
    radicand,
    table_branch,
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
    seed: int
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
            "seed": self.seed,
            "checks": [
                {"name": c.name, "passed": c.passed, "measured": c.measured}
                for c in self.checks
            ],
            "passed": self.passed,
            "failed": self.failed,
            "ok": self.ok,
        }


def grid_specs(max_nd: int = 9, a_values: Sequence[str] = GRID_A_VALUES) -> List[CurveSpec]:
    """Every coprime (n, d) up to max_nd crossed with the offset grid."""
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


def _table1_case(args: Tuple[int, int, str, int]) -> List[Tuple[str, bool, str]]:
    n, d, a, seed = args
    spec = CurveSpec(n, d, Fraction(a))
    label = _spec_label(spec)
    expected = curve_properties(spec)
    implicit = implicit_equation(spec)
    rows = []

    degree = implicit.total_degree
    rows.append(
        (f"{label} order", degree == expected.order, f"degree={degree} expected={expected.order}")
    )
    lowest = implicit.lowest_form()
    origin = lowest.total_degree
    rows.append(
        (
            f"{label} origin multiplicity",
            origin == expected.origin_multiplicity,
            f"lowest-form degree={origin} expected={expected.origin_multiplicity}",
        )
    )
    if not spec.is_odd_rose:
        cone_matches = lowest.primitive() == tangent_cone(spec)
        rows.append((f"{label} tangent cone", cone_matches, f"proportional={cone_matches}"))
    try:
        absolute = verified_absolute_multiplicity(spec, seed=seed)
    except RuntimeError as disagreement:
        passed, measured = False, str(disagreement)
    else:
        passed = absolute == expected.absolute_multiplicity
        measured = f"vanishing order={absolute} expected={expected.absolute_multiplicity}"
    rows.append((f"{label} absolute multiplicity", passed, measured))
    return rows


def _run_cases(
    suite: str,
    case: Callable[[Tuple[int, int, str, int]], List[Tuple[str, bool, str]]],
    specs: Sequence[CurveSpec],
    seed: int,
    jobs: int,
) -> Report:
    """One ``case`` per spec, in spec order, on ``jobs`` worker processes."""
    report = Report(suite, seed)
    args = [(s.n, s.d, str(s.a), seed + i) for i, s in enumerate(specs)]
    if jobs > 1:
        # Loading the process pool costs about 20 ms; serial runs skip it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(case, args, chunksize=8))
    else:
        results = [case(a) for a in args]
    for rows in results:
        report.checks.extend(Check(*row) for row in rows)
    return report


def run_table1(seed: int = DEFAULT_SEED, jobs: int = 1, max_nd: int = 9) -> Report:
    return _run_cases("table1", _table1_case, grid_specs(max_nd), seed, jobs)


# -- table2: classification dual path -----------------------------------------------


# Smallest grid bound whose (n, d) pairs reach all 20 classification rows.
TABLE2_MIN_ND = 3


def run_table2(seed: int = DEFAULT_SEED, max_nd: int = 9) -> Report:
    report = Report("table2", seed)
    covered: Dict[Tuple[int, str, str], int] = {}
    mismatched: Dict[Tuple[int, str, str], int] = {}
    for n, d in product(range(1, max_nd + 1), range(1, max_nd + 1)):
        if math.gcd(n, d) != 1:
            continue
        for variant in ("A", "B"):
            if variant == "A" and (n * d) % 2 == 0:
                continue
            curve = CurveSpec(n, d, Fraction(0) if variant == "A" else Fraction(1, 2))
            props = curve_properties(curve)
            branch = table_branch(curve)
            for kind in (1, 2, 3, 4, 5):
                for j in ((1, 2) if kind in (3, 4) else (None,)):
                    row = CLASSIFICATION_TABLE[(kind, variant, branch)]
                    expected = row(n, d, j or 0)
                    if expected[0] <= 0 or expected[3] <= 0:
                        continue  # j not realizable on this curve
                    z, p1, p2 = incidence_counts(curve, IncidenceType(kind, j))
                    got = classification_from_counts(
                        props.order, props.absolute_multiplicity, z, p1, p2
                    )
                    key = (kind, variant, branch)
                    if got.numbers() != expected:
                        mismatched[key] = mismatched.get(key, 0) + 1
                        report.checks.append(
                            Check(
                                f"type {kind}{variant} {branch} CH({n},{d}) j={j}",
                                False,
                                f"counts={got.numbers()} table={expected}",
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


def max_scaled_residual(spec: CurveSpec, samples: int = 256) -> float:
    """Largest |P(point)| over polar samples, scaled by the coefficient size.

    The coefficients of the (real) implicit equation fill a dense float table
    ``C[ex, ey]`` with a column for every y exponent up to the degree, and
    ``P`` is evaluated at all samples at once by Horner's rule: in y for
    every x power, then in x.  Each sample's value is divided by the largest
    coefficient times ``max(1, |r|)^degree``.

    Raises ``OverflowError`` when a coefficient, a sample or the value does
    not fit a float64, so no residual can be computed.
    """
    import numpy as np  # only this suite needs it; the other commands start faster without

    implicit = implicit_equation(spec)
    degree = implicit.total_degree
    table = np.zeros((degree + 1, degree + 1))
    for (ex, ey), coeff in implicit.terms.items():
        table[ex, ey] = coeff.re  # the equation is real
    coeff_scale = np.max(np.abs(table))

    phis = np.arange(samples) * (spec.parameter_period / samples)
    radii = np.cos(spec.n * phis / spec.d) + float(spec.a)
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


def _residual_case(args: Tuple[int, int, str, int]) -> List[Tuple[str, bool, str]]:
    n, d, a, _seed = args
    spec = CurveSpec(n, d, Fraction(a))
    name = f"{_spec_label(spec)} residual"
    try:
        worst = max_scaled_residual(spec)
    except OverflowError as failure:
        return [(name, False, f"cannot be computed in float64: {failure}")]
    return [(name, worst <= 1e-9, f"max={worst:.3e} bound=1e-09")]


def run_residual(
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    max_nd: int = 9,
    only: Optional[CurveSpec] = None,
) -> Report:
    specs = [only] if only is not None else grid_specs(max_nd)
    return _run_cases("residual", _residual_case, specs, seed, jobs)


# -- invariants: numeric identities and preset geometry --------------------------------


def _cone_constant_checks(max_nd: int) -> List[Check]:
    checks = []
    worst = 0.0
    for d in range(1, max_nd + 1):
        for a in GRID_A_VALUES:
            spec = CurveSpec(1, d, Fraction(a))
            exact = float(origin_cone_constant(spec))
            closed = origin_cone_constant_closed(spec)
            scale = max(1.0, abs(exact))
            if abs(closed.imag) > 1e-12 * scale:
                checks.append(
                    Check(
                        f"cone constant d={d} a={a} imag",
                        False,
                        f"imag={closed.imag:.3e}",
                    )
                )
            worst = max(worst, abs(exact - closed.real) / scale)
    checks.append(
        Check(
            "cone constant sum vs closed form",
            worst <= 1e-10,
            f"max relative gap={worst:.3e} bound=1e-10",
        )
    )
    return checks


def _sample_parameters(spec, count: int) -> List[float]:
    """Well-spread parameters avoiding degenerate rows."""
    period = spec.curve.parameter_period
    axis_tol = 1e-9 * max(1.0, spec.extent)
    out = []
    for k in range(count * 2):
        t = period * (k + 0.37) / (count * 2)
        x, y, _ = curve_point(spec.curve, spec.placement, t)
        if math.hypot(x, y) <= axis_tol or radicand(spec, t) == 0.0:
            continue
        out.append(t)
        if len(out) == count:
            break
    return out


def _preset_geometry_checks(key: str, count: int = 64) -> List[Check]:
    preset = figure_preset(key)
    spec = preset.spec
    q = float(spec.congruence.q)
    scale = max(1.0, spec.extent)
    params = _sample_parameters(spec, count)
    checks = []

    worst_curve = 0.0
    worst_key_ok = True
    row_key = None
    for t in params:
        expected = curve_point(spec.curve, spec.placement, t)
        got = parametric_point(spec, t, curve_theta(spec, t))
        worst_curve = max(worst_curve, math.dist(expected, got))
        row_key = generating_circle(spec, t)
        for theta in (0.4, 1.7, 3.1, 4.9):
            point = parametric_point(spec, t, theta)
            if math.hypot(point[0], point[1]) < 1e-5 * scale:
                continue
            if not circle_key_close(row_key, circle_through(spec.congruence, point), 1e-7):
                worst_key_ok = False
    checks.append(
        Check(
            f"{key} curve on surface",
            worst_curve <= 1e-8 * scale,
            f"max gap={worst_curve:.3e} over {len(params)} params",
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
            f"{len(params)} params x 4 angles, last key {key_echo}",
        )
    )

    if q > 0:
        worst = 0.0
        root_q = math.sqrt(q)
        for t in params:
            x, y, z = curve_point(spec.curve, spec.placement, t)
            rho = math.hypot(x, y)
            center = (rho * rho + z * z - q) / (2.0 * rho)
            radius = math.sqrt(center * center + q)
            for sign in (1.0, -1.0):
                theta = math.atan2(sign * root_q / radius, -center / radius)
                point = parametric_point(spec, t, theta)
                worst = max(worst, math.dist(point, (0.0, 0.0, sign * root_q)))
        checks.append(
            Check(
                f"{key} passes base points",
                worst <= 1e-9 * scale,
                f"max gap={worst:.3e}",
            )
        )
    if q == 0:
        worst = 0.0
        for t in params:
            x, y, z = curve_point(spec.curve, spec.placement, t)
            rho = math.hypot(x, y)
            center = (rho * rho + z * z) / (2.0 * rho)
            theta = math.pi if center > 0 else 0.0
            point = parametric_point(spec, t, theta)
            worst = max(worst, math.dist(point, (0.0, 0.0, 0.0)))
        checks.append(
            Check(
                f"{key} tangent at origin",
                worst <= 1e-9 * scale,
                f"max gap={worst:.3e}",
            )
        )

    touched = zero_circle_parameters(spec) if q < 0 else []
    bad = 0
    period = spec.curve.parameter_period
    axis_tol = 1e-9 * scale
    for k in range(count):
        t = period * k / count
        x, y, _ = curve_point(spec.curve, spec.placement, t)
        if math.hypot(x, y) <= axis_tol:
            continue  # parametrization undefined on the axis
        value = radicand(spec, t)
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


def run_invariants(seed: int = DEFAULT_SEED, max_nd: int = 9) -> Report:
    report = Report("invariants", seed)
    report.checks.extend(_cone_constant_checks(max_nd))
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


def run_suite(
    suite: str,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    max_nd: int = 9,
    only: Optional[CurveSpec] = None,
) -> Report:
    if suite == "table1":
        return run_table1(seed, jobs, max_nd)
    if suite == "table2":
        return run_table2(seed, max_nd)
    if suite == "residual":
        return run_residual(seed, jobs, max_nd, only)
    if suite == "invariants":
        return run_invariants(seed, max_nd)
    if suite == "all":
        report = Report("all", seed)
        for name in ("table1", "table2", "residual", "invariants"):
            report.extend(run_suite(name, seed, jobs, max_nd, only if name == "residual" else None))
        return report
    raise ValueError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
