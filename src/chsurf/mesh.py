"""Triangle meshing of the circular surfaces, OBJ export, and figure presets.

The parameter rectangle [0, 2*d*pi) x [0, 2*pi) is sampled on a regular
grid, wrapped in both directions.  Rows where the curve crosses the z axis
are skipped (the affine parametrization is undefined there, so the mesh
keeps a hole), rows where the generating circle degenerates to a point are
collapsed to a single vertex, and each surviving quad is split into two
triangles with exact-zero slivers dropped.  A sampled ``Mesh`` holds numpy
arrays: ``(N, 3)`` float64 vertices and ``(M, 3)`` int64 triangles.  numpy is
imported inside ``sample`` and ``export_obj``, so importing this module (and
the CLI) does not load it.

Preset grid sizes are chosen so that every rational singular parameter of
a figure lands exactly on a grid row; degenerate rows then coincide with
the independently computed singular parameter sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, BinaryIO, Dict, List, Sequence

from .congruence import CongruenceSpec
from .curve import CurveSpec, Placement, point_function
from .surface import AXIS_EPS, SurfaceSpec, _radicand_at

ZERO_AREA_EPS = 1e-14

FULL = "full"
COLLAPSED = "collapsed"
SKIPPED = "skipped"


@dataclass(frozen=True)
class MeshRow:
    index: int
    t: float
    kind: str
    vertex_start: int
    vertex_count: int


@dataclass
class Mesh:
    """A triangle mesh with the row structure it was sampled on.

    ``sample`` fills ``vertices`` with an ``(N, 3)`` float64 numpy array and
    ``triangles`` with an ``(M, 3)`` int64 numpy array of 0-based vertex
    indices.  The fields default to empty lists so that building a ``Mesh``
    does not import numpy; ``export_obj`` accepts any ``(N, 3)`` sequence.
    """

    vertices: Any = field(default_factory=list)
    triangles: Any = field(default_factory=list)
    rows: List[MeshRow] = field(default_factory=list)
    ntheta: int = 0

    @property
    def skipped_rows(self) -> List[int]:
        return [row.index for row in self.rows if row.kind == SKIPPED]

    @property
    def collapsed_rows(self) -> List[int]:
        return [row.index for row in self.rows if row.kind == COLLAPSED]

    def row_parameters(self, kinds: Sequence[str]) -> List[float]:
        return [row.t for row in self.rows if row.kind in kinds]


def sample(spec: SurfaceSpec, nt: int, ntheta: int) -> Mesh:
    """Grid-sample the surface into a triangle mesh.

    ``nt`` rows cover one period of the curve parameter, ``ntheta`` columns
    one turn of each generating circle; both seams are closed by reusing the
    first row/column, never by duplicating vertices.  Each row's kind is
    decided on scalars; the vertex rings, the triangles and the sliver
    filter are numpy expressions over all rows at once.
    """
    import numpy as np  # only meshing needs it; the other commands start faster without

    if nt < 8 or ntheta < 8:
        raise ValueError("nt and ntheta must be at least 8")
    period = spec.curve.parameter_period
    thetas = [2.0 * math.pi * j / ntheta for j in range(ntheta)]
    cos_t = np.array([math.cos(v) for v in thetas])
    sin_t = np.array([math.sin(v) for v in thetas])
    q = float(spec.congruence.q)
    axis_tol = AXIS_EPS * max(1.0, spec.extent)
    curve_at = point_function(spec.curve, spec.placement)

    mesh = Mesh(ntheta=ntheta)
    rings = []  # (vertex_start, x, y, root, norm_sq, half_inv, z_scale) per FULL row
    apexes = []  # (vertex_start, x, y) per COLLAPSED row
    count = 0
    for i in range(nt):
        t = period * i / nt
        point = curve_at(t)
        x, y, z = point
        rho_sq = x * x + y * y
        rho = math.sqrt(rho_sq)
        if rho <= axis_tol:
            mesh.rows.append(MeshRow(i, t, SKIPPED, count, 0))
            continue
        value = _radicand_at(point, q)
        norm_sq = rho_sq + z * z
        if value == 0.0:
            # Point circle: the whole theta ring is one vertex at the center.
            factor = (norm_sq - q) / (2.0 * rho_sq)
            apexes.append((count, x * factor, y * factor))
            mesh.rows.append(MeshRow(i, t, COLLAPSED, count, 1))
            count += 1
            continue
        root = math.sqrt(value)
        rings.append((count, x, y, root, norm_sq, 1.0 / (2.0 * rho_sq), root / (2.0 * rho)))
        mesh.rows.append(MeshRow(i, t, FULL, count, ntheta))
        count += ntheta

    if all(row.kind == SKIPPED for row in mesh.rows):
        raise ValueError("every row degenerated: the curve lies on the z axis")

    columns = np.arange(ntheta, dtype=np.int64)
    vertices = np.zeros((count, 3))
    if rings:
        start, x, y, root, norm_sq, half_inv, z_scale = (
            np.array(values)[:, None] for values in zip(*rings)
        )
        along = (root * cos_t + norm_sq - q) * half_inv
        ring = (start + columns).ravel()
        vertices[ring, 0] = (x * along).ravel()
        vertices[ring, 1] = (y * along).ravel()
        vertices[ring, 2] = (z_scale * sin_t).ravel()
    for start, x, y in apexes:
        vertices[start, :2] = (x, y)

    # Per column j (k = j + 1 around the seam): a quad between FULL rows a, b
    # is (a_j, b_j, b_k), (a_j, b_k, a_k); a fan from a FULL row to an apex
    # is (f_j, f_k, apex).  The boolean masks pick, per corner, which of the
    # two rows' vertex_start is added to the column.
    nxt = np.roll(columns, -1)
    quad_columns = np.stack([columns, columns, nxt, columns, nxt, nxt], axis=1).reshape(-1, 3)
    quad_from_b = np.tile([[False, True, True], [False, True, False]], (ntheta, 1))
    fan_columns = np.stack([columns, nxt, np.zeros_like(columns)], axis=1)
    fan_from_apex = np.array([False, False, True])

    blocks = []
    for i in range(nt):
        row_a = mesh.rows[i]
        row_b = mesh.rows[(i + 1) % nt]
        if row_a.kind == SKIPPED or row_b.kind == SKIPPED:
            continue  # hole at an axis crossing
        if row_a.kind == COLLAPSED and row_b.kind == COLLAPSED:
            continue
        if row_a.kind == FULL and row_b.kind == FULL:
            offset = np.where(quad_from_b, row_b.vertex_start, row_a.vertex_start)
            blocks.append(quad_columns + offset)
            continue
        full_row, apex_row = (row_a, row_b) if row_a.kind == FULL else (row_b, row_a)
        offset = np.where(fan_from_apex, apex_row.vertex_start, full_row.vertex_start)
        blocks.append(fan_columns + offset)
    triangles = np.concatenate(blocks) if blocks else np.zeros((0, 3), dtype=np.int64)

    # Drop exact-zero slivers: area from the cross product of b - a and c - a.
    scale = max(1.0, float(np.abs(vertices).max()))
    a, b, c = (vertices.take(triangles[:, corner], axis=0) for corner in range(3))
    u, v = b - a, c - a
    cx = u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1]
    cy = u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2]
    cz = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    area = 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz)
    mesh.vertices = vertices
    mesh.triangles = triangles[area > ZERO_AREA_EPS * scale * scale]
    return mesh


def export_obj(mesh: Mesh, sink: BinaryIO) -> None:
    """Write ASCII OBJ with LF endings and 17 significant digits per coordinate."""
    import numpy as np

    vertices = np.asarray(mesh.vertices, dtype=np.float64).reshape(-1, 3)
    faces = np.asarray(mesh.triangles, dtype=np.int64).reshape(-1, 3) + 1
    text = ("v %.17g %.17g %.17g\n" * len(vertices)) % tuple(vertices.ravel().tolist())
    text += ("f %d %d %d\n" * len(faces)) % tuple(faces.ravel().tolist())
    sink.write(text.encode("ascii"))


def write_obj(mesh: Mesh, path: str) -> None:
    with open(path, "wb") as handle:
        export_obj(mesh, handle)


# -- figure presets ---------------------------------------------------------------


@dataclass(frozen=True)
class FigurePreset:
    key: str
    spec: SurfaceSpec
    nt: int
    ntheta: int
    description: str


def _preset(key, n, d, a, q, cx, cy, h, nt, ntheta, description) -> FigurePreset:
    spec = SurfaceSpec(
        CurveSpec(n, d, Fraction(a)),
        CongruenceSpec(Fraction(q)),
        Placement(Fraction(cx), Fraction(cy), Fraction(h)),
    )
    return FigurePreset(key, spec, nt, ntheta, description)


def _build_presets() -> Dict[str, FigurePreset]:
    presets = [
        # Parabolic family, pole of the curve at the coincident base points.
        _preset("3a", 7, 3, 0, 0, 0, 0, 0, 280, 96, "CH(7,3,0), q=0, plane z=0, pole on axis"),
        _preset("3b", 7, 3, "1/4", 0, 0, 0, 0, 280, 96, "CH(7,3,1/4), q=0, plane z=0, pole on axis"),
        _preset("3c", 7, 3, 1, 0, 0, 0, 0, 280, 96, "CH(7,3,1), q=0, plane z=0, pole on axis"),
        _preset("3d", 7, 3, "5/2", 0, 0, 0, 0, 280, 96, "CH(7,3,5/2), q=0, plane z=0, pole on axis"),
        # Elliptic family, isolated pole at a base point.
        _preset("4a", 3, 1, "5/4", 1, 0, 0, -1, 256, 96, "CH(3,1,5/4), q=1, plane z=-1, pole on axis"),
        _preset("4b", 2, 3, "5/4", 1, 0, 0, -1, 256, 96, "CH(2,3,5/4), q=1, plane z=-1, pole on axis"),
        _preset("4c", 7, 3, "5/4", 1, 0, 0, -1, 280, 96, "CH(7,3,5/4), q=1, plane z=-1, pole on axis"),
        # Hyperbolic family, curtate pole on the axis.
        _preset("5a", 9, 2, 2, -1, 0, 0, 0, 288, 96, "CH(9,2,2), q=-1, plane z=0, pole on axis"),
        _preset("5b", 9, 2, 2, -1, 0, 0, "1/2", 288, 96, "CH(9,2,2), q=-1, plane z=1/2, pole on axis"),
        _preset("5c", 9, 2, 2, -1, 0, 0, 1, 288, 96, "CH(9,2,2), q=-1, plane z=1, pole on axis"),
        _preset("6a", 7, 1, 2, -1, 0, 0, "3/4", 280, 96, "CH(7,1,2), q=-1, plane z=3/4, pole on axis"),
        _preset("6b", 7, 1, 2, -1, 0, 0, 0, 280, 96, "CH(7,1,2), q=-1, plane z=0, pole on axis"),
        _preset("6c", 7, 1, "3/2", -1, 0, 0, 0, 294, 96, "CH(7,1,3/2), q=-1, plane z=0, pole on axis"),
        # Parabolic family meeting the curve away from its pole; the pole is
        # offset along x so the named point sits at the axis (petal tip for
        # 7a/7c, the genuine triple point (-1/2, 0) of CH(3,2,1/2) for 7b).
        _preset("7a", 3, 1, 0, 0, -1, 0, 0, 256, 96, "CH(3,1,0), q=0, pole at (-1,0), tip on axis"),
        _preset("7b", 3, 2, "1/2", 0, "1/2", 0, 0, 256, 96, "CH(3,2,1/2), q=0, pole at (1/2,0), triple point on axis"),
        _preset("7c", 3, 2, 0, 0, -1, 0, 0, 256, 96, "CH(3,2,0), q=0, pole at (-1,0), tip on axis"),
        # Axis met at a regular point, base points elsewhere.
        _preset("8a", 3, 1, 0, 1, -1, 0, 0, 240, 96, "CH(3,1,0), q=1, pole at (-1,0), tip on axis"),
        _preset("8b", 3, 1, 0, -1, -1, 0, 0, 240, 96, "CH(3,1,0), q=-1, pole at (-1,0), tip on axis"),
        _preset("8c", 5, 1, 0, -1, -1, 0, 0, 240, 96, "CH(5,1,0), q=-1, pole at (-1,0), tip on axis"),
        # Curve avoiding the axis entirely; triple point at (1, 0, 0).
        _preset("9a", 3, 1, 0, 1, 1, 0, 0, 240, 96, "CH(3,1,0), q=1, pole at (1,0), axis avoided"),
        _preset("9b", 3, 1, 0, 0, 1, 0, 0, 240, 96, "CH(3,1,0), q=0, pole at (1,0), axis avoided"),
        _preset("9c", 3, 1, 0, -1, 1, 0, 0, 240, 96, "CH(3,1,0), q=-1, pole at (1,0), axis avoided"),
    ]
    return {preset.key: preset for preset in presets}


_PRESETS = _build_presets()


def preset_keys() -> List[str]:
    return sorted(_PRESETS)


def figure_preset(key: str) -> FigurePreset:
    try:
        return _PRESETS[key]
    except KeyError:
        raise ValueError(f"unknown figure preset {key!r}; known: {', '.join(preset_keys())}") from None
