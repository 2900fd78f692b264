"""Float reference for where a placed curve meets the z axis, used by tests.

The program decides axis incidence exactly (``surface._axis_passage_count``);
these float parameters only serve the tests that compare mesh rows and
singular parameters with them.
"""

import math
from typing import List, Tuple

from chsurf.curve import CurveSpec, Placement, polar_radius
from chsurf.surface import _axis_passage_count


def axis_candidates(curve: CurveSpec, placement: Placement) -> List[Tuple[float, float]]:
    """(residual, phi) for the 2d angles aimed at the z axis from an off-axis pole.

    At ``phi = atan2(-cy, -cx) + k*pi`` the curve point lies on the line
    through the pole and the axis, and it is on the axis when the radius
    is ``|pole|`` (k even) or ``-|pole|`` (k odd); the residual is the gap.
    """
    cx, cy = float(placement.cx), float(placement.cy)
    rho_q = math.hypot(cx, cy)
    phi_q = math.atan2(-cy, -cx)
    period = curve.parameter_period
    candidates = []
    for k in range(2 * curve.d):
        phi = (phi_q + math.pi * k) % period
        target = rho_q if k % 2 == 0 else -rho_q
        candidates.append((abs(polar_radius(curve, phi) - target), phi))
    return candidates


def axis_meeting_parameters(curve: CurveSpec, placement: Placement) -> List[float]:
    """All phi in [0, 2*d*pi) where the placed curve meets the z axis.

    Solved in closed form: with the pole on the axis these are the zeros of
    the radius, otherwise the radius must hit +-|pole offset| at the 2d
    angles aimed at the axis.  Off the axis the exact passage count picks
    that many of those candidates, the ones with the smallest residuals.
    """
    n, d, a = curve.n, curve.d, float(curve.a)
    period = curve.parameter_period
    if placement.pole_on_axis:
        if curve.a > 1:
            return []
        base = math.acos(-a)
        hits = []
        for k in range(n):
            hits.append((d * (base + 2.0 * math.pi * k) / n) % period)
            if curve.a != 1:  # a cusp: both zeros of the radius coincide
                hits.append((d * (-base + 2.0 * math.pi * (k + 1)) / n) % period)
        return sorted(hits)
    candidates = sorted(axis_candidates(curve, placement))
    return sorted(phi for _, phi in candidates[: _axis_passage_count(curve, placement)])
