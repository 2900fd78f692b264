"""Triangle meshing of the circular surfaces, OBJ export, and figure presets.

The parameter rectangle [0, 2*d*pi) x [0, 2*pi) is sampled on a regular
grid, wrapped in both directions.  Rows where the curve crosses the z axis
are skipped (the affine parametrization is undefined there, so the mesh
keeps a hole), rows where the generating circle degenerates to a point are
collapsed to a single vertex, and each surviving quad is split into two
triangles with exact-zero slivers dropped.  A sampled ``Mesh`` holds numpy
arrays: ``(N, 3)`` float64 vertices and ``(M, 3)`` int64 triangles.  The
sliver filter and the OBJ writer work through these arrays in fixed blocks
of triangles or vertices, so the temporaries of a block stay in cache and
no full-size gather or copy is made.  numpy is imported inside ``sample``
and ``export_obj``, and the OBJ writer builds its lookup tables on first
use, so importing this module (and the CLI) does not load numpy.

OBJ text is exactly what ``"%.17g"`` and ``"%d"`` print, but computed on
arrays: the 17 significant digits of a coordinate in fixed notation are an
integer obtained by an exact, error-free product with a power of ten, and
the digits, dot, sign and stripped zeros are laid out with table lookups
and byte masks.  Only exponent notation, inf and nan are formatted by
Python, one value at a time.

Preset grid sizes are chosen so that every rational singular parameter of
a figure lands exactly on a grid row; degenerate rows then coincide with
the independently computed singular parameter sets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, BinaryIO, Dict, List, Sequence

from .congruence import CongruenceSpec
from .curve import CurveSpec, Placement, curve_point
from .surface import AXIS_EPS, SurfaceSpec, radicand

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
    decided on scalars, and the vertex rings are one numpy expression over
    all FULL rows.  The triangles of each run of consecutive FULL-to-FULL
    row pairs are one broadcast.  The sliver filter works through the
    triangles in blocks of ``_TRIANGLE_CHUNK``, so its gathers and cross
    products stay in cache, and the triangles are copied only when a sliver
    is dropped.  A row or vertex that is not finite (a coordinate whose
    square overflows) is an ``OverflowError``.
    """
    import numpy as np  # only meshing needs it; the other commands start faster without

    if nt < 8 or ntheta < 8:
        raise ValueError("nt and ntheta must be at least 8")
    period = spec.curve.parameter_period
    thetas = [2.0 * math.pi * j / ntheta for j in range(ntheta)]
    cos_t = np.array([math.cos(v) for v in thetas])
    sin_t = np.array([math.sin(v) for v in thetas])
    q = spec.congruence.q_float
    axis_tol = AXIS_EPS * spec.extent

    mesh = Mesh(ntheta=ntheta)
    rings = []  # (vertex_start, x, y, root, norm_sq, half_inv, z_scale) per FULL row
    apexes = []  # (vertex_start, x, y) per COLLAPSED row
    count = 0
    for i in range(nt):
        t = period * i / nt
        point = curve_point(spec.curve, spec.placement, t)
        x, y, z = point
        rho_sq = x * x + y * y
        rho = math.sqrt(rho_sq)
        if rho <= axis_tol:
            mesh.rows.append(MeshRow(i, t, SKIPPED, count, 0))
            continue
        norm_sq = rho_sq + z * z
        if not math.isfinite(norm_sq):
            raise OverflowError(f"the squared norm of the curve point at t={t!r} overflows float64")
        value = radicand(point, q)
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
    peak = float(np.abs(vertices).max())
    if not math.isfinite(peak):
        raise OverflowError("a mesh vertex is not finite in float64")
    scale = max(1.0, peak)

    # Per column j (k = j + 1 around the seam): a quad between FULL rows a, b
    # is (a_j, b_j, b_k), (a_j, b_k, a_k); a fan from a FULL row to an apex
    # is (f_j, f_k, apex).  The boolean masks pick, per corner, which of the
    # two rows' vertex_start is added to the column; a run of consecutive
    # quad pairs is one broadcast over its pairs, in row order.
    nxt = np.roll(columns, -1)
    quad_columns = np.stack([columns, columns, nxt, columns, nxt, nxt], axis=1).reshape(-1, 3)
    quad_from_b = np.tile([[False, True, True], [False, True, False]], (ntheta, 1))
    fan_columns = np.stack([columns, nxt, np.zeros_like(columns)], axis=1)
    fan_from_apex = np.array([False, False, True])

    pairs = [(mesh.rows[i], mesh.rows[(i + 1) % nt]) for i in range(nt)]
    blocks = []
    for quads, run in itertools.groupby(pairs, key=lambda pair: pair[0].kind == pair[1].kind == FULL):
        if quads:
            starts = np.array([(row_a.vertex_start, row_b.vertex_start) for row_a, row_b in run])
            offset = np.where(quad_from_b, starts[:, 1, None, None], starts[:, 0, None, None])
            blocks.append((quad_columns + offset).reshape(-1, 3))
            continue
        for row_a, row_b in run:
            if SKIPPED in (row_a.kind, row_b.kind) or row_a.kind == row_b.kind:
                continue  # a hole at an axis crossing, or two apexes
            full_row, apex_row = (row_a, row_b) if row_a.kind == FULL else (row_b, row_a)
            offset = np.where(fan_from_apex, apex_row.vertex_start, full_row.vertex_start)
            blocks.append(fan_columns + offset)
    triangles = np.concatenate(blocks) if blocks else np.zeros((0, 3), dtype=np.int64)

    # Drop exact-zero slivers: area from the cross product of b - a and c - a,
    # one block of triangles at a time on the coordinate rows of the vertices.
    floor = ZERO_AREA_EPS * scale * scale
    coordinates = vertices.T.copy()
    keep = np.empty(len(triangles), dtype=bool)
    for first in range(0, len(triangles), _TRIANGLE_CHUNK):
        block = slice(first, first + _TRIANGLE_CHUNK)
        corners = coordinates.take(triangles[block].T, axis=1)  # [coordinate, corner, triangle]
        a = corners[:, 0]
        u, v = corners[:, 1] - a, corners[:, 2] - a
        cx = u[1] * v[2] - u[2] * v[1]
        cy = u[2] * v[0] - u[0] * v[2]
        cz = u[0] * v[1] - u[1] * v[0]
        np.greater(0.5 * np.sqrt(cx * cx + cy * cy + cz * cz), floor, out=keep[block])
    mesh.vertices = vertices
    mesh.triangles = triangles if keep.all() else triangles[keep]
    return mesh


def export_obj(mesh: Mesh, sink: BinaryIO) -> None:
    """Write ASCII OBJ with LF endings: ``v %.17g %.17g %.17g`` and ``f %d %d %d`` lines.

    The bytes are exactly what those ``%`` formats print, computed with
    array arithmetic.  A coordinate whose 17-digit decimal exponent X lies in
    [-4, 16] (the fixed notation of ``%.17g``) gets its digits from
    N = round_half_even(|v| * 10^(16 - X)): 10^(16 - X) is an exact double,
    Dekker's split product gives |v| * 10^(16 - X) = h + l exactly, so
    N = h + rint(l) is exact, ties included.  X starts from floor(log10|v|)
    and takes one step when N falls outside [10^16, 10^17).  Zeros print as
    ``0`` or ``-0``; exponent notation, inf and nan go through ``%.17g``
    itself, one value at a time.  Face indices are gathered from labels
    built once per mesh.  Text is built and written in blocks of
    ``_VERTEX_CHUNK`` vertices and ``_FACE_CHUNK`` triangles, so the
    temporaries of a block stay in cache.  A triangle index outside the
    vertex list is a ``ValueError``.
    """
    import numpy as np

    vertices = np.asarray(mesh.vertices, dtype=np.float64).reshape(-1, 3)
    faces = np.asarray(mesh.triangles, dtype=np.int64).reshape(-1, 3)
    count = len(vertices)
    if faces.size and (faces.min() < 0 or faces.max() >= count):
        raise ValueError(f"triangle index outside the {count} vertices")
    values = vertices.ravel()
    for start in range(0, values.size, 3 * _VERTEX_CHUNK):
        sink.write(_vertex_lines(values[start : start + 3 * _VERTEX_CHUNK]))
    if faces.size:
        labels = _face_labels(count)
        offsets = np.array([0, count, 2 * count])  # columns pick the 'f i', ' i', ' i\n' rows
        for start in range(0, len(faces), _FACE_CHUNK):
            lines = labels.take(faces[start : start + _FACE_CHUNK] + offsets, axis=0)
            sink.write(lines.tobytes().translate(None, b"\0"))


# -- exact OBJ text on arrays --------------------------------------------------------

# Vertices and triangles per write, and triangles per sliver-filter block:
# each block's temporaries stay in cache.
_VERTEX_CHUNK = 4096
_FACE_CHUNK = 8192
_TRIANGLE_CHUNK = 4096
_SPLIT = 134217729.0  # 2**27 + 1 splits a double into two halves of at most 26 bits
_GROUP = 10000  # digits go in words of four ASCII characters


@functools.cache
def _obj_tables():
    """Lookup tables of the OBJ writer, built on first use.

    Returns ``(words, words << 32, powers, templates)``.  ``words[g]``,
    ``words[g + 10000]`` and ``words[g + 20000]`` hold the four digits of
    ``g`` as ASCII bytes in a uint64: as they are, with trailing zeros as
    NUL, and with leading zeros as NUL.  ``powers`` holds 10^k and its two
    Veltkamp halves for k in [0, 22].
    ``templates[kind, 3 * (X + 4) + column]`` is the 32-byte slot, as four
    uint64 words, of one coordinate of exponent X (see ``_vertex_lines``):
    kind 0 keeps the integer part, kind 1 the fraction, kind 2 adds the
    constant bytes.
    """
    import numpy as np

    group = np.arange(_GROUP)
    chars = np.zeros((_GROUP, 4), dtype=np.uint8)
    for place in range(4):
        chars[:, 3 - place] = 48 + group // 10**place % 10
    zero = chars == 48
    trailing = np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]
    leading = np.logical_and.accumulate(zero, axis=1)
    words = np.concatenate([chars, np.where(trailing, 0, chars), np.where(leading, 0, chars)])
    words = words.view("<u4").ravel().astype(np.uint64)

    powers = np.array([10.0**k for k in range(23)])
    split = _SPLIT * powers
    powers_high = split - (split - powers)
    powers = (powers, powers_high, powers - powers_high)

    slots = np.zeros((3, 21, 3, 32), dtype=np.uint8)
    for exponent in range(-4, 17):
        start, dot = 7 + min(exponent, 0), exponent + 8
        slots[0, exponent + 4, :, start:dot] = 0xFF
        slots[1, exponent + 4, :, dot + 1 : 25] = 0xFF
        slots[2, exponent + 4, :, start:dot] = ord("0")
    slots[2, :, 0, 0] = ord("v")
    slots[2, :, :, 1] = ord(" ")
    slots[2, :, 2, 26] = ord("\n")
    templates = slots.reshape(3, 63, 32).view("<u8")
    return words, words << np.uint64(32), powers, templates


def _scaled_round(magnitude, k):
    """round_half_even(magnitude * 10^k) as int64, exactly, for k in [0, 22].

    Dekker's product: with both factors split into halves of at most 26
    bits, every partial product is exact, so ``h + error`` is the exact
    product.  A result in [10^16, 10^17) has h >= 2^53, an even integer,
    so rint(error) rounds the sum half to even.
    """
    import numpy as np

    power, power_high, power_low = (table.take(k) for table in _obj_tables()[2])
    h = magnitude * power
    split = _SPLIT * magnitude
    high = split - (split - magnitude)
    low = magnitude - high
    error = high * power_high - h
    error += high * power_low
    error += low * power_high
    error += low * power_low
    return h.astype(np.int64) + np.rint(error).astype(np.int64)


def _vertex_lines(values) -> bytes:
    """``v x y z`` lines for a flat run of coordinates, 3 per vertex.

    Each coordinate fills a 32-byte slot, a row of four uint64 words in a
    ``(count, 4)`` array: byte 0 ``v`` (first coordinate of a line), 1 a
    space, 2 the sign, 3..24 the number, 26 ``\\n`` (last coordinate).  The
    rows are the text in order, and each template kind is one row gather
    by slot.  With z = "0000" + the 17 digits at bytes 3..23, the integer
    part is z in place on bytes [start, dot) and the fraction is z moved up
    one byte, past the dot.  Trailing zeros come from the table as NUL, the
    template puts ``0`` back within the integer part, and the dot stays
    only if a fraction digit follows it.  Every other byte is NUL, and the
    NULs are dropped in one pass.
    """
    import numpy as np

    words, high_words, _, templates = _obj_tables()
    count = values.size
    magnitude = np.abs(values)
    with np.errstate(divide="ignore"):
        estimate = np.floor(np.log10(magnitude))
    fixed = (estimate >= -5) & (estimate <= 16)  # false for 0, inf and nan
    exponent = np.where(fixed, estimate, 0).astype(np.int64)
    magnitude = np.where(fixed, magnitude, 1.0)
    digits = _scaled_round(magnitude, 16 - exponent)
    # floor(log10) can miss by one next to a power of ten, and rounding to
    # 17 digits can carry into the next decade: one step corrects either.
    off = np.flatnonzero((digits < 10**16) | (digits >= 10**17))
    if off.size:
        exponent[off] += np.where(digits[off] < 10**16, -1, 1)
        digits[off] = _scaled_round(magnitude[off], np.clip(16 - exponent[off], 0, 22))
    fixed &= (exponent >= -4) & (exponent <= 16)
    fallback = np.flatnonzero(~fixed & (values != 0.0))
    digits[~fixed] = 0  # a zero prints as 0; the fallback overwrites its slot
    exponent[~fixed] = 0

    upper = digits // 10**8
    lower = digits - upper * 10**8
    top = upper // _GROUP
    g0 = top // _GROUP
    g1 = top - g0 * _GROUP
    g2 = upper - top * _GROUP
    g3 = lower // _GROUP
    g4 = lower - g3 * _GROUP
    # The slots start as z: z[0] = "0", then the words of g0..g4; a word is
    # NUL-stripped when every digit after it is zero.
    block = np.zeros((count, 4), dtype=np.uint64)
    np.bitwise_or(high_words.take(g0), np.uint64(0x30000000), out=block[:, 0])
    g1_word = words.take(g1 + _GROUP * ((g2 | lower) == 0))
    np.bitwise_or(g1_word, high_words.take(g2 + _GROUP * (lower == 0)), out=block[:, 1])
    np.bitwise_or(words.take(g3 + _GROUP * (g4 == 0)), high_words.take(g4 + _GROUP), out=block[:, 2])
    # z moved up one byte; word 3 of z is zero, so no byte crosses into the next slot.
    shifted = block << np.uint64(8)
    shifted.reshape(-1)[1:] |= block.reshape(-1)[:-1] >> np.uint64(56)
    slot = (3 * exponent.reshape(-1, 3) + np.array([12, 13, 14])).ravel()
    keep_integer, keep_fraction, constant = templates
    block &= keep_integer.take(slot, axis=0)
    shifted &= keep_fraction.take(slot, axis=0)
    block |= shifted
    block |= constant.take(slot, axis=0)
    block[:, 0] |= np.signbit(values) * np.uint64(ord("-") << 16)
    flat = block.view(np.uint8).reshape(-1)
    dot = np.arange(8, 32 * count, 32) + exponent
    flat[dot] = ord(".") * (flat[dot + 1] != 0)
    if fallback.size:
        # Every %.17g form, exponent and sign included, fits in 24 characters.
        text = (("%-24.17g" * fallback.size) % tuple(values[fallback].tolist())).replace(" ", "\0")
        block.view(np.uint8)[fallback, 2:26] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 24)
    return block.tobytes().translate(None, b"\0")


def _face_labels(count: int):
    """Rows ``f i``, `` i`` and `` i\\n`` for i = 1..count, in three blocks of ``count``.

    Each row is NUL-padded to whole uint64 words, so a triangle's line is
    three gathered rows.
    """
    import numpy as np

    words = _obj_tables()[0]
    width = len(str(count))
    groups = -(-width // 4)
    rest = np.arange(1, count + 1, dtype=np.int64)
    chars = np.empty((count, groups), dtype=np.uint32)
    leading = np.ones(count, dtype=bool)  # no nonzero digit yet
    for j in range(groups):
        place = _GROUP ** (groups - 1 - j)
        group = rest // place
        rest -= group * place
        chars[:, j] = words[group + 2 * _GROUP * leading]
        leading &= group == 0
    digits = chars.view(np.uint8)[:, 4 * groups - width :]
    size = 8 * -(-(width + 2) // 8)
    rows = np.zeros((3, count, size), dtype=np.uint8)
    rows[0, :, :2] = (ord("f"), ord(" "))
    rows[0, :, 2 : 2 + width] = digits
    rows[1:, :, 0] = ord(" ")
    rows[1:, :, 1 : 1 + width] = digits
    rows[2, :, 1 + width] = ord("\n")
    return rows.reshape(3 * count, size).view("<u8")


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
