"""Triangle meshing of the circular surfaces, OBJ export, and figure presets.

The parameter rectangle [0, 2*d*pi) x [0, 2*pi) is sampled on a regular
grid, wrapped in both directions.  Each row's generating circle is computed
once, by ``surface._circle_frame``.  Rows where the curve crosses the z axis
are skipped (the affine parametrization is undefined there, so the mesh
keeps a hole), rows where the generating circle degenerates to a point are
collapsed to a single vertex at its center, the vertices of every other
row are placed by ``surface.parametric_point`` (the one surface-point
formula, shared with ``verify invariants``), and each surviving quad is
split into two triangles with exact-zero slivers dropped.  A sampled
``Mesh`` holds numpy arrays: ``(N, 3)`` float64 vertices and ``(M, 3)``
triangles, int32 while N fits in it (int64 beyond), the latter a view of
the leading rows of the buffer the candidate triangles were built in.  The
sliver filter and the OBJ writer work through these arrays in fixed blocks
of triangles or vertices, so the temporaries of a block stay in cache and
no full-size gather or copy of the vertices or the triangles is made; the
one table beyond the mesh that grows with it is the OBJ writer's, one
label row of 8 bytes per vertex (16 from 10^6 vertices).  numpy is
imported inside ``sample`` and ``export_obj``, and the OBJ writer builds
its lookup tables on first use, so importing this module (and the CLI)
does not load numpy.

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
from typing import Any, BinaryIO, Dict, List

from .congruence import CongruenceSpec
from .curve import CurveSpec, Placement, curve_point
from .surface import SurfaceSpec, _circle_frame, parametric_point

ZERO_AREA_EPS = 1e-14

FULL = "full"
COLLAPSED = "collapsed"
SKIPPED = "skipped"


@dataclass(frozen=True)
class MeshRow:
    """Grid row at parameter t: ``ntheta`` vertices if FULL, one if COLLAPSED, none if SKIPPED."""

    t: float
    kind: str
    vertex_start: int


@dataclass
class Mesh:
    """A triangle mesh with the row structure it was sampled on.

    ``sample`` fills ``vertices`` with an ``(N, 3)`` float64 numpy array,
    ``triangles`` with an ``(M, 3)`` numpy array of 0-based vertex indices,
    int32 while N fits in it and int64 otherwise (``_index_dtype``), which
    may be a view of the leading rows of a larger buffer (its ``base``),
    and ``rows`` with one :class:`MeshRow` per grid row.
    The fields default to empty lists so that building a ``Mesh`` does not
    import numpy; ``export_obj`` accepts any ``(N, 3)`` sequence.
    """

    vertices: Any = field(default_factory=list)
    triangles: Any = field(default_factory=list)
    rows: List[MeshRow] = field(default_factory=list)


def sample(spec: SurfaceSpec, nt: int, ntheta: int) -> Mesh:
    """Grid-sample the surface into a triangle mesh.

    ``nt`` rows cover one period of the curve parameter, ``ntheta`` columns
    one turn of each generating circle; both seams are closed by reusing the
    first row/column, never by duplicating vertices.  Each row's kind is
    decided on its circle frame (``surface._circle_frame``): no frame is a
    SKIPPED row, a zero root a COLLAPSED row whose one vertex is the point
    circle's center, and the vertex rings of the FULL rows are one
    ``surface.parametric_point`` call on their frames as numpy columns,
    with the same bits as a call per vertex on floats.  Every candidate
    triangle is written into one preallocated buffer, int32 while the
    vertex count fits in it: a run of consecutive FULL-to-FULL row pairs is
    six corner-wise broadcasts, a fan three.  The sliver filter works
    through the buffer in blocks of ``_TRIANGLE_CHUNK``, gathering each
    block's corners as vertex rows, so its gathers and cross products stay
    in cache, and moves each block's survivors down to the first free row;
    the returned ``triangles`` are the buffer's leading rows, a view.  At
    its peak ``sample`` holds the vertices, the candidate buffer and one
    block's temporaries.  A row or vertex that is not finite (a coordinate
    whose square overflows) is an ``OverflowError``.
    """
    import numpy as np  # only meshing needs it; the other commands start faster without

    if nt < 8 or ntheta < 8:
        raise ValueError("nt and ntheta must be at least 8")
    period = spec.curve.parameter_period
    thetas = [2.0 * math.pi * j / ntheta for j in range(ntheta)]
    cos_t = np.array([math.cos(v) for v in thetas])
    sin_t = np.array([math.sin(v) for v in thetas])
    q = spec.congruence.q_float

    mesh = Mesh()
    rings = []  # (vertex_start, *frame) per FULL row
    apexes = []  # (vertex_start, x, y) per COLLAPSED row
    count = 0
    for i in range(nt):
        t = period * i / nt
        frame = _circle_frame(spec, curve_point(spec.curve, spec.placement, t))
        if frame is None:
            mesh.rows.append(MeshRow(t, SKIPPED, count))
            continue
        x, y, root, norm_sq, two_rho_sq, _ = frame
        if not math.isfinite(norm_sq):
            raise OverflowError(f"the squared norm of the curve point at t={t!r} overflows float64")
        if root == 0.0:
            # Point circle: the whole theta ring is one vertex at the center.
            factor = (norm_sq - q) / two_rho_sq
            apexes.append((count, x * factor, y * factor))
            mesh.rows.append(MeshRow(t, COLLAPSED, count))
            count += 1
            continue
        rings.append((count, *frame))
        mesh.rows.append(MeshRow(t, FULL, count))
        count += ntheta

    if all(row.kind == SKIPPED for row in mesh.rows):
        raise ValueError("every row degenerated: the curve lies on the z axis")

    columns = np.arange(ntheta, dtype=np.int64)
    vertices = np.zeros((count, 3))
    if rings:
        start, *frames = (np.array(values)[:, None] for values in zip(*rings))
        ring = (start + columns).ravel()
        for axis, coordinate in enumerate(parametric_point(frames, q, cos_t, sin_t)):
            vertices[ring, axis] = coordinate.ravel()
        del ring, coordinate  # two vertex columns' worth, not needed while the triangles are built
    for start, x, y in apexes:
        vertices[start, :2] = (x, y)
    peak = float(np.abs(vertices).max())
    if not math.isfinite(peak):
        raise OverflowError("a mesh vertex is not finite in float64")
    scale = max(1.0, peak)

    # Per column j (k = j + 1 around the seam): a quad between FULL rows a, b
    # is (a_j, b_j, b_k), (a_j, b_k, a_k); a fan from a FULL row to an apex
    # is (f_j, f_k, apex).  Every candidate triangle is written, corner by
    # corner, straight into one buffer, in row order; a run of consecutive
    # quad pairs is one broadcast per corner over its pairs.
    nxt = np.roll(columns, -1)
    pairs = [(mesh.rows[i], mesh.rows[(i + 1) % nt]) for i in range(nt)]
    sizes = {(FULL, FULL): 2 * ntheta, (FULL, COLLAPSED): ntheta, (COLLAPSED, FULL): ntheta}
    candidates = sum(sizes.get((a.kind, b.kind), 0) for a, b in pairs)
    triangles = np.empty((candidates, 3), dtype=_index_dtype(count))
    filled = 0
    for quads, run in itertools.groupby(pairs, key=lambda pair: pair[0].kind == pair[1].kind == FULL):
        if quads:
            starts = np.array([(row_a.vertex_start, row_b.vertex_start) for row_a, row_b in run])
            a, b = starts[:, :1], starts[:, 1:]
            end = filled + 2 * ntheta * len(starts)
            view = triangles[filled:end].reshape(len(starts), ntheta, 6)  # [pair, column, corner]
            sources = [(a, columns), (b, columns), (b, nxt), (a, columns), (b, nxt), (a, nxt)]
            for corner, (start, column) in enumerate(sources):
                np.add(start, column, out=view[:, :, corner])
            filled = end
            continue
        for row_a, row_b in run:
            if SKIPPED in (row_a.kind, row_b.kind) or row_a.kind == row_b.kind:
                continue  # a hole at an axis crossing, or two apexes
            full_row, apex_row = (row_a, row_b) if row_a.kind == FULL else (row_b, row_a)
            view = triangles[filled : filled + ntheta]
            np.add(full_row.vertex_start, columns, out=view[:, 0])
            np.add(full_row.vertex_start, nxt, out=view[:, 1])
            view[:, 2] = apex_row.vertex_start
            filled += ntheta

    # Drop exact-zero slivers: area from the cross product of b - a and c - a,
    # one block of triangles at a time, its corners gathered as vertex rows.
    # The survivors of each block move down to the first free row, so the
    # kept triangles end up as the leading rows of the same buffer.
    floor = ZERO_AREA_EPS * scale * scale
    kept = 0
    for first in range(0, len(triangles), _TRIANGLE_CHUNK):
        block = triangles[first : first + _TRIANGLE_CHUNK]
        corners = vertices.take(block.T, axis=0).transpose(2, 0, 1)  # [coordinate, corner, triangle]
        a = corners[:, 0]
        u, v = corners[:, 1] - a, corners[:, 2] - a
        cx = u[1] * v[2] - u[2] * v[1]
        cy = u[2] * v[0] - u[0] * v[2]
        cz = u[0] * v[1] - u[1] * v[0]
        keep = 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz) > floor
        survivors = block if keep.all() else block[keep]  # a copy, so moving it down is safe
        if kept < first or survivors is not block:
            triangles[kept : kept + len(survivors)] = survivors
        kept += len(survivors)
    mesh.vertices = vertices
    mesh.triangles = triangles[:kept]
    return mesh


def _index_dtype(count: int) -> str:
    """Triangle index type for ``count`` vertices: int32 when the count fits in it, else int64."""
    return "int32" if count <= 2**31 - 1 else "int64"


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
    itself, one value at a time.  Each face line is three label rows,
    gathered from one table of a row per vertex built once per mesh and
    framed per block.  Text is built and written in blocks of
    ``_VERTEX_CHUNK`` vertices and ``_FACE_CHUNK`` triangles, so the
    temporaries of a block stay in cache.  Integer triangle arrays are read
    in their own type, int32 included; anything else is cast to int64.  A
    triangle index outside the vertex list is a ``ValueError``.
    """
    import numpy as np

    vertices = np.asarray(mesh.vertices, dtype=np.float64).reshape(-1, 3)
    faces = np.asarray(mesh.triangles)
    if faces.dtype.kind not in "iu":
        faces = faces.astype(np.int64)  # a list of tuples is int64 already; Mesh()'s [] is float
    faces = faces.reshape(-1, 3)
    count = len(vertices)
    if faces.size and (faces.min() < 0 or faces.max() >= count):
        raise ValueError(f"triangle index outside the {count} vertices")
    values = vertices.ravel()
    for start in range(0, values.size, 3 * _VERTEX_CHUNK):
        sink.write(_vertex_lines(values[start : start + 3 * _VERTEX_CHUNK]))
    if faces.size:
        labels = _face_labels(count)
        for start in range(0, len(faces), _FACE_CHUNK):
            lines = labels.take(faces[start : start + _FACE_CHUNK], axis=0)  # [face, corner, word]
            _frame_face_lines(lines)
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
    """One label row per vertex: the digits of i = 1..count from byte 1, NUL-padded.

    The rows are ``(count, words)`` uint64, with room for one byte before
    the digits and one after them, so ``_frame_face_lines`` can turn three
    gathered rows into a face line.  The table is built in blocks of
    ``_VERTEX_CHUNK`` labels, so its temporaries do not grow with ``count``.
    """
    import numpy as np

    words = _obj_tables()[0]
    width = len(str(count))
    groups = -(-width // 4)
    labels = np.zeros((count, -(-(width + 2) // 8)), dtype=np.uint64)
    text = labels.view(np.uint8)
    for first in range(0, count, _VERTEX_CHUNK):
        rest = np.arange(first + 1, min(first + _VERTEX_CHUNK, count) + 1, dtype=np.int64)
        chars = np.empty((len(rest), groups), dtype=np.uint32)
        leading = np.ones(len(rest), dtype=bool)  # no nonzero digit yet
        for j in range(groups):
            place = _GROUP ** (groups - 1 - j)
            group = rest // place
            rest -= group * place
            chars[:, j] = words[group + 2 * _GROUP * leading]
            leading &= group == 0
        text[first : first + len(chars), 1 : 1 + width] = chars.view(np.uint8)[:, 4 * groups - width :]
    return labels


def _frame_face_lines(lines) -> None:
    """Frame gathered label rows, ``[face, corner, word]``, as ``f a b c\\n`` lines in place.

    The first corner's row moves up one byte, carrying across its words,
    and gets ``f `` in front; the other two get a space in front, and the
    last one ``\\n`` in its final byte.  The NULs between are left for the
    caller to drop.
    """
    import numpy as np

    first = lines[:, 0]
    for word in range(first.shape[1] - 1, 0, -1):
        first[:, word] <<= np.uint64(8)
        first[:, word] |= first[:, word - 1] >> np.uint64(56)
    first[:, 0] <<= np.uint64(8)
    first[:, 0] |= np.uint64(ord("f") | ord(" ") << 8)
    lines[:, 1:, 0] |= np.uint64(ord(" "))
    lines[:, 2, -1] |= np.uint64(ord("\n") << 56)


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
