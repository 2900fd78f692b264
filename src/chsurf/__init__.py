"""Exact-arithmetic toolkit for cyclic-harmonic curves and circular surfaces.

The package builds the plane curves r(phi) = cos(n*phi/d) + a with exact
rational data, derives their implicit equations and singularity
multiplicities symbolically, classifies the surfaces swept out by circles
of a two-point family meeting such a curve, and exports triangle meshes of
those surfaces.  See the ``chsurf`` command-line tool for the user-facing
entry points and ``chsurf.verify`` for the self-check suites.
"""

from .congruence import (
    AxisPointError,
    CircleKey,
    CongruenceKind,
    CongruenceSpec,
    DegenerateCircleError,
    circle_key_close,
    circle_through,
    kind,
    zero_circle_radius,
)
from .curve import (
    CurveProperties,
    CurveSpec,
    Placement,
    ShapeClass,
    absolute_point_multiplicity,
    curve_point,
    curve_properties,
    homogeneous_implicit,
    implicit_equation,
    origin_cone_constant,
    origin_cone_constant_closed,
    polar_radius,
    shape_class,
    tangent_cone,
    verified_absolute_multiplicity,
)
from .mesh import Mesh, export_obj, figure_preset, preset_keys, sample
from .poly import GaussianRational, MultiPoly
from .surface import (
    IncidenceType,
    SurfaceClassification,
    SurfaceSpec,
    classification_from_counts,
    classify,
    incidence_type,
    parametric_point,
    singular_circles,
    zero_circle_intersections,
)

__version__ = "0.1.0"

__all__ = [
    "AxisPointError",
    "CircleKey",
    "CongruenceKind",
    "CongruenceSpec",
    "CurveProperties",
    "CurveSpec",
    "DegenerateCircleError",
    "GaussianRational",
    "IncidenceType",
    "Mesh",
    "MultiPoly",
    "Placement",
    "ShapeClass",
    "SurfaceClassification",
    "SurfaceSpec",
    "absolute_point_multiplicity",
    "circle_key_close",
    "circle_through",
    "classification_from_counts",
    "classify",
    "curve_point",
    "curve_properties",
    "export_obj",
    "figure_preset",
    "homogeneous_implicit",
    "implicit_equation",
    "incidence_type",
    "kind",
    "origin_cone_constant",
    "origin_cone_constant_closed",
    "parametric_point",
    "polar_radius",
    "preset_keys",
    "sample",
    "shape_class",
    "singular_circles",
    "tangent_cone",
    "verified_absolute_multiplicity",
    "zero_circle_intersections",
    "zero_circle_radius",
]
