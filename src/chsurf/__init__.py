"""Exact-arithmetic toolkit for cyclic-harmonic curves and circular surfaces.

The package builds the plane curves r(phi) = cos(n*phi/d) + a with exact
rational data, derives their implicit equations and singularity
multiplicities symbolically, classifies the surfaces swept out by circles
of a two-point family meeting such a curve, and exports triangle meshes of
those surfaces.  See the ``chsurf`` command-line tool for the user-facing
entry points and ``chsurf.verify`` for the self-check suites.

``import chsurf`` loads no submodule.  Each public name below is looked up
in its home module on first access (PEP 562), so ``chsurf.classify`` is
``chsurf.surface.classify`` and a process imports only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "congruence": (
        "AxisPointError",
        "CircleKey",
        "CongruenceSpec",
        "DegenerateCircleError",
        "circle_key_close",
        "circle_through",
    ),
    "curve": (
        "CurveProperties",
        "CurveSpec",
        "Placement",
        "ShapeClass",
        "absolute_point_multiplicity",
        "curve_point",
        "curve_properties",
        "homogeneous_implicit",
        "implicit_equation",
        "origin_cone_constant",
        "origin_cone_constant_closed",
        "polar_radius",
        "shape_class",
        "tangent_cone",
    ),
    "mesh": ("Mesh", "export_obj", "figure_preset", "preset_keys", "sample"),
    "poly": ("GaussianRational", "MultiPoly"),
    "surface": (
        "IncidenceType",
        "SurfaceClassification",
        "SurfaceSpec",
        "classification_from_counts",
        "classify",
        "incidence_type",
        "parametric_point",
        "singular_circles",
        "zero_circle_intersections",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
