"""Triangle meshing of the circular surfaces, streamed OBJ export, and figure presets.

The parameter rectangle [0, 2*d*pi) x [0, 2*pi) is sampled on a regular
grid, wrapped in both directions.  Each row's generating circle is computed
once, by ``surface._circle_frame``.  Rows where the curve crosses the z axis
are skipped (the affine parametrization is undefined there, so the mesh
keeps a hole), rows where the generating circle degenerates to a point are
collapsed to a single vertex at its center, the vertices of every other
row are placed by ``surface.parametric_point`` (the one surface-point
formula, shared with ``verify invariants``), and each surviving quad is
split into two triangles with exact-zero slivers dropped.

The rows are worked through in bands of consecutive rows (``_Grid``), so
no array of the whole mesh is needed.  ``obj_writer``, which the
``figure`` and ``surface-mesh`` commands use, first checks the mesh
without placing any band: each ring's vertices at its columns of extreme
cosine and sine, and each apex, show whether every vertex is finite and
give the largest coordinate, which the sliver floor reads.  It then
streams the OBJ in two passes over the bands.  The first places each band
once, with the next row, writes the band's ``v`` lines and runs the
sliver filter on the placed rings, keeping only the indices of the
dropped candidates; the second builds each band's candidate triangles by
index arithmetic alone and writes the kept ones as ``f`` lines.  numpy
is imported inside the functions that use it, and the OBJ writer builds
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
import math
from dataclasses import dataclass
from typing import BinaryIO, Callable, Dict, List

from .curve import CurveSpec, Placement, curve_point
from .surface import SurfaceSpec, _circle_frame, parametric_point

ZERO_AREA_EPS = 1e-14


def obj_writer(spec: SurfaceSpec, nt: int, ntheta: int) -> Callable[[BinaryIO], None]:
    """Check the surface's ``nt`` x ``ntheta`` grid mesh; return the function that writes its OBJ.

    ``nt`` rows cover one period of the curve parameter, ``ntheta`` columns
    one turn of each generating circle; both seams are closed by reusing
    the first row or column, never by duplicating vertices.  Every row and
    every vertex is checked before this returns, without placing a band
    (see ``_Grid``), so a mesh that cannot be written fails here, before
    any byte is written or an output file is opened: fewer than 8 rows or
    columns, or a curve on the z axis, is a ``ValueError``, a row or vertex
    that is not finite (a coordinate whose square overflows) an
    ``OverflowError``, and a grid too large for memory numpy's
    ``ValueError`` or ``MemoryError``.

    The returned ``write(sink)`` writes ASCII OBJ with LF endings: one
    ``v %.17g %.17g %.17g`` line per vertex, row by row, then one
    ``f %d %d %d`` line per kept triangle, 1-based, byte for byte what
    those ``%`` formats print.  It makes two passes over the bands.  The
    first places each band and its next row once (``band``), writes the
    band's ``v`` lines and keeps the indices of its dropped candidates
    (``band_slivers``); the second writes each band's ``f`` lines from
    those indices (``band_faces``) and places nothing.  Besides the grid's
    rows, it holds only one band and the dropped indices, a few per row of
    a mesh that drops any.
    """
    grid = _Grid(spec, nt, ntheta)

    def write(sink: BinaryIO) -> None:
        _hold_freed_blocks()
        dropped = []
        for first, last in grid.bands:
            index, sizes, _ = grid.band(first, last)
            vertices = grid.place(index)
            _write_vertex_lines(sink, vertices[: len(vertices) - int(sizes[-1])])
            dropped.append(grid.band_slivers(first, last, vertices))
            del vertices
        words = _label_words(grid.count)
        for (first, last), drops in zip(grid.bands, dropped):
            faces, ids = grid.band_faces(first, last, drops)
            if len(faces):
                sink.write(_face_lines(_face_labels(ids + 1, words), faces))

    return write


class _Grid:
    """The rows of a sampled surface, and the band routines ``obj_writer`` streams through.

    The constructor decides each row on its circle frame
    (``surface._circle_frame``): no frame is a hole, a row with no
    vertices; a zero root is an apex, one vertex at the point circle's
    center; any other frame is a ring of ``ntheta`` vertices.
    ``sizes[i]`` is row i's vertex count (``ntheta >= 8``, so 0, 1 and
    ``ntheta`` name the kind),
    ``starts[i]`` its first vertex and ``frames[i]`` its frame; these numpy
    arrays, about 60 bytes a row, are all that grows with ``nt``.
    ``bands`` cuts the rows into runs of about ``_BAND_VERTICES`` vertices,
    at least one row each.  A band's triangles join each of its rows to the
    next, so its routines take the band's rows and the row after the last
    (``band``): ``place`` them once, decide their slivers from the placed
    vertices (``band_slivers``), and build the kept triangles from the
    dropped indices (``band_faces``).

    The constructor then checks that every vertex is finite and takes the
    largest ``|coordinate|``, which sets the sliver floor
    ``ZERO_AREA_EPS * scale**2`` with ``scale = max(1, largest)``, from
    the apexes and one ``parametric_point`` call on the rings at four
    columns: those of largest and smallest cosine and sine.  That is exact:
    in ``along = (root*cos + |p|^2 - q) * (1/(2*rho^2))``, ``root >= 0``
    and the factor is positive, and rounding to nearest is monotone, so a
    ring's x and y are monotone in the cosine and its z in the sine, and
    its largest ``|coordinate|``, or a coordinate that is not finite, is
    at one of those columns.  ``surface.parametric_point`` works
    elementwise, so a vertex has the same bits in every call that places it.
    """

    def __init__(self, spec: SurfaceSpec, nt: int, ntheta: int) -> None:
        import numpy as np

        if nt < 8 or ntheta < 8:
            raise ValueError("nt and ntheta must be at least 8")
        self.nt, self.ntheta = nt, ntheta
        self.q = spec.q_float
        # The tables are allocated before they are filled, so numpy refuses a
        # grid too large to exist before any row or column is computed.
        # np.empty refuses every such size; np.arange returns an empty array
        # for sizes near 2**63.
        self.cos_t, self.sin_t = np.empty(ntheta), np.empty(ntheta)
        self.columns = np.arange(ntheta)
        thetas = (2.0 * math.pi * self.columns / ntheta).tolist()
        self.cos_t[:] = [math.cos(v) for v in thetas]
        self.sin_t[:] = [math.sin(v) for v in thetas]
        self.shifted = np.roll(self.columns, -1)  # column k = j + 1 around the seam
        # A quad row's candidates, rows a and b = a + 1 counted from a's first
        # vertex: (a_j, b_j, b_k), (a_j, b_k, a_k) per column j.
        j, k = self.columns, self.shifted
        self.quad = np.stack([j, j + ntheta, k + ntheta, j, k + ntheta, k], axis=-1).reshape(-1, 3)

        period = spec.curve.parameter_period
        self.frames = np.zeros((nt, 6))
        self.sizes = np.zeros(nt, dtype=np.int64)  # a hole stays all zeros
        for i in range(nt):
            t = period * i / nt
            frame = _circle_frame(spec, curve_point(spec.curve, spec.placement, t))
            if frame is None:
                continue
            if not math.isfinite(frame[3]):
                raise OverflowError(f"the squared norm of the curve point at t={t!r} overflows float64")
            self.frames[i] = frame
            self.sizes[i] = 1 if frame[2] == 0.0 else ntheta
        if not self.sizes.any():
            raise ValueError("every row degenerated: the curve lies on the z axis")
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.count = int(self.sizes.sum())
        step = max(1, _BAND_VERTICES // ntheta)
        self.bands = [(first, min(first + step, nt)) for first in range(0, nt, step)]

        # Each ring's largest |coordinate| and any overflow are at these columns.
        rings = self.frames[self.sizes == ntheta].T[:, :, None]
        extremes = [self.cos_t.argmax(), self.cos_t.argmin(), self.sin_t.argmax(), self.sin_t.argmin()]
        corners = np.ravel(parametric_point(rings, self.q, self.cos_t[extremes], self.sin_t[extremes]))
        peak = float(np.abs(np.concatenate([corners, *self._apexes(self.sizes == 1)])).max(initial=0.0))
        if not math.isfinite(peak):
            raise OverflowError("a mesh vertex is not finite in float64")
        scale = max(1.0, peak)
        self.floor = ZERO_AREA_EPS * scale * scale

    def _apexes(self, rows):
        """The point circles' centers of the apex rows ``rows``, as arrays ``(x, y)``; z is 0."""
        x, y, _, norm_sq, two_rho_sq, _ = self.frames[rows].T
        factor = (norm_sq - self.q) / two_rho_sq
        return x * factor, y * factor

    def place(self, index):
        """The vertices of the rows ``index``, in that order, as an ``(N, 3)`` float64 array.

        The ring rows are one ``parametric_point`` call on
        their frames as numpy columns; an apex is the point circle's center.
        """
        import numpy as np

        sizes = self.sizes[index]
        full = sizes == self.ntheta
        frame = self.frames[index[full]].T[:, :, None]  # each entry an (n, 1) column
        rings = np.stack(parametric_point(frame, self.q, self.cos_t, self.sin_t), axis=-1).reshape(-1, 3)
        if full.all():
            return rings
        vertices = np.zeros((int(sizes.sum()), 3))
        vertices[np.repeat(full, sizes)] = rings
        apex = sizes == 1
        vertices[np.repeat(apex, sizes), :2] = np.stack(self._apexes(index[apex]), axis=-1)
        return vertices

    def band(self, first: int, last: int):
        """Rows ``first..last - 1`` and the next row (row 0 at the seam): ``(index, sizes, starts)``.

        ``starts`` are local: each row's first vertex in ``place(index)``.
        """
        import numpy as np

        index = np.append(np.arange(first, last), last % self.nt)
        sizes = self.sizes[index]
        return index, sizes, np.cumsum(sizes) - sizes

    def _runs(self, sizes):
        """The candidate triangles of a band's row pairs, as runs in row order.

        ``sizes`` are the band's rows and the next row.  A pair of rings is
        a quad row, two candidates per column; a ring next to an apex is a
        fan, one per column; any other pair (a hole at an axis crossing, or
        two apexes) has none.  Returns ``(row, pairs, apex)`` per run, in
        local rows: ``pairs`` consecutive quad rows from ``row`` on with
        ``apex`` None, or the fan from ring ``row`` to ``apex`` with
        ``pairs`` 1.
        """
        import numpy as np

        ntheta = self.ntheta
        quad = (sizes[:-1] == ntheta) & (sizes[1:] == ntheta)
        fan = sizes[:-1] * sizes[1:] == ntheta
        runs, first_pair = [], 0
        for stop in [*(np.flatnonzero(quad[1:] != quad[:-1]) + 1).tolist(), len(quad)]:
            if quad[first_pair]:
                runs.append((first_pair, stop - first_pair, None))
            else:
                for pair in (np.flatnonzero(fan[first_pair:stop]) + first_pair).tolist():
                    runs.append((pair, 1, pair + 1) if sizes[pair] == ntheta else (pair + 1, 1, pair))
            first_pair = stop
        return runs

    def band_slivers(self, first: int, last: int, vertices):
        """The band's dropped candidates: indices into its ``band_faces`` candidates, ascending.

        ``vertices`` is ``place(band(first, last)[0])``.  A candidate
        (a, b, c) is dropped unless half the norm of the cross product of
        u = b - a and v = c - a exceeds the floor.  The corners are read off
        the placed rings as ``[coordinate, row, column]`` views: a quad
        run's rows a and b and their copies shifted by one column give u
        and v of its triangles (a_j, b_j, b_k), and its triangles
        (a_j, b_k, a_k) take those v as their u; a fan's ring and its
        shifted copy give u, its apex v.
        """
        import numpy as np

        _, sizes, starts = self.band(first, last)
        ntheta = self.ntheta
        coordinates = vertices.T  # [coordinate, vertex], a view
        dropped, offset = [], 0
        for row, pairs, apex in self._runs(sizes):
            start = int(starts[row])
            if apex is None:
                rings = coordinates[:, start : start + (pairs + 1) * ntheta].reshape(3, pairs + 1, ntheta)
                a, b = rings[:, :-1], rings[:, 1:]
                u = np.subtract(b, a, order="C")
                v = _next_column_minus(b, a)
                keep = np.empty((pairs, ntheta, 2), dtype=bool)
                _area_above(u, v, self.floor, keep[..., 0])
                u = v  # the second triangles' u is the first's v
                v = _next_column_minus(a, a)
                _area_above(u, v, self.floor, keep[..., 1])
            else:
                ring = coordinates[:, start : start + ntheta]
                u = _next_column_minus(ring, ring)
                v = np.subtract(coordinates[:, int(starts[apex]), None], ring, order="C")
                keep = np.empty(ntheta, dtype=bool)
                _area_above(u, v, self.floor, keep)
            del u, v
            dropped.append(np.flatnonzero(np.logical_not(keep, out=keep)) + offset)
            offset += keep.size
        return np.concatenate(dropped) if dropped else np.zeros(0, dtype=np.intp)

    def band_faces(self, first: int, last: int, dropped):
        """The kept triangles of the row pairs (i, i + 1) for i in [first, last), seam included.

        Returns ``(faces, ids)``: the candidates but those at the indices
        ``dropped`` (``band_slivers``), as ``(M, 3)`` indices into the
        vertices of rows ``first..last - 1`` followed by those of the next
        row (row 0 at the seam), and each of those vertices' global index.
        Per column j (k = j + 1 around the seam), a quad between ring rows
        a, b is (a_j, b_j, b_k), (a_j, b_k, a_k); a fan from a ring f to an
        apex is (f_j, f_k, apex).  The candidates are written in row order
        into one buffer by index arithmetic alone: a run of quad rows is one
        broadcast of the template ``quad`` over its rows' first vertices, a
        fan one per corner.
        """
        import numpy as np

        index, sizes, starts = self.band(first, last)
        nxt = int(index[-1])
        start, after, own = int(self.starts[first]), int(self.starts[nxt]), int(starts[-1])
        ids = np.concatenate([np.arange(start, start + own), np.arange(after, after + int(self.sizes[nxt]))])

        ntheta = self.ntheta
        runs = self._runs(sizes)
        # [triangle, corner] intp, the layout _face_lines's take reads without a copy.
        triangles = np.empty((ntheta * sum(2 * pairs if apex is None else 1 for _, pairs, apex in runs), 3), np.intp)
        columns, shifted = self.columns, self.shifted
        filled = 0
        for row, pairs, apex in runs:
            if apex is None:  # rings in a row: each quad row is the template moved by its first vertex
                end = filled + 2 * ntheta * pairs
                view = triangles[filled:end].reshape(pairs, 2 * ntheta, 3)
                np.add(starts[row : row + pairs, None, None], self.quad, out=view)
                filled = end
            else:
                view = triangles[filled : filled + ntheta]
                np.add(starts[row], columns, out=view[:, 0])
                np.add(starts[row], shifted, out=view[:, 1])
                view[:, 2] = starts[apex]
                filled += ntheta
        if len(dropped):
            keep = np.ones(len(triangles), dtype=bool)
            keep[dropped] = False
            triangles = triangles.compress(keep, axis=0)
        return triangles, ids


def _next_column_minus(b, a):
    """``b`` at column j + 1 (column 0 after the last) minus ``a`` at column j, along the last axis."""
    import numpy as np

    out = np.empty(a.shape)
    np.subtract(b[..., 1:], a[..., :-1], out=out[..., :-1])
    np.subtract(b[..., :1], a[..., -1:], out=out[..., -1:])
    return out


def _area_above(u, v, floor: float, out) -> None:
    """Write ``0.5 * sqrt(cx*cx + cy*cy + cz*cz) > floor`` into ``out``, for ``c`` = u x v.

    ``u`` and ``v`` are ``[coordinate, ...]`` arrays, read only.
    """
    import numpy as np

    cx = u[1] * v[2]
    cx -= u[2] * v[1]
    cy = u[2] * v[0]
    cy -= u[0] * v[2]
    cz = u[0] * v[1]
    cz -= u[1] * v[0]
    cx *= cx
    cx += np.multiply(cy, cy, out=cy)
    cx += np.multiply(cz, cz, out=cz)
    np.sqrt(cx, out=cx)
    cx *= 0.5
    np.greater(cx, floor, out=out)


# -- exact OBJ text on arrays --------------------------------------------------------

# Vertices per write: each block's temporaries stay in cache.
_VERTEX_CHUNK = 4096
# Vertices per band of rows: two text blocks.  With freed memory held
# (``_hold_freed_blocks``), a pass over the 44 preset meshes (each preset
# at its grid and at twice it) takes the same time at two and three blocks,
# within noise, and about 3% longer at one, where twice as many bands each
# pay their fixed cost.  Streaming 3b at twice its grid peaks at 1.26,
# 1.51 and 2.26 MB traced at one, two and three blocks.
_BAND_VERTICES = 2 * _VERTEX_CHUNK
_TINY = 2.2250738585072014e-308  # the smallest normal double
_SPLIT = 134217729.0  # 2**27 + 1 splits a double into two halves of at most 26 bits
_GROUP = 10000  # digits go in words of four ASCII characters


@functools.cache
def _hold_freed_blocks() -> None:
    """Allocate and free one untouched block of 256 bytes per band vertex, once per process.

    glibc's malloc returns the free memory at the top of its heap to the
    system once it exceeds twice the largest block it has unmapped, and the
    stream frees its working set, at most about 310 bytes per band vertex,
    after each text block and band; the next one faulted it back in.  Over
    one pass of the 44 preset meshes that was about 191,000 minor page
    faults; after this block is freed, about 520.  Other allocators see one
    allocation whose pages are never written.
    """
    import numpy as np

    np.empty(256 * _BAND_VERTICES, dtype=np.uint8)


@functools.cache
def _obj_tables():
    """Lookup tables of the OBJ writer, built on first use.

    Returns ``(words, words << 32, powers, templates)``.  ``words[g]``,
    ``words[g + 10000]`` and ``words[g + 20000]`` hold the four digits of
    ``g`` as ASCII bytes in a uint64: as they are, with trailing zeros as
    NUL, and with leading zeros as NUL.  ``powers`` holds 10^k and its two
    Veltkamp halves for k in [0, 22].
    ``templates[kind, word, 3 * (X + 4) + column]`` is word ``word`` of the
    32-byte slot of one coordinate of exponent X (see ``_vertex_lines``):
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
    templates = np.ascontiguousarray(slots.reshape(3, 63, 32).view("<u8").transpose(0, 2, 1))
    return words, words << np.uint64(32), powers, templates


def _scaled_round(magnitude, k):
    """round_half_even(magnitude * 10^k) as int64, exactly, for k in [0, 22]; overwrites ``magnitude``.

    Dekker's product: with both factors split into halves of at most 26
    bits, every partial product is exact, so ``h + error`` is the exact
    product.  A result in [10^16, 10^17) has h >= 2^53, an even integer,
    so rint(error) rounds the sum half to even.  The partial products are
    summed in a fixed order, in place, so that few arrays are live at once.
    """
    import numpy as np

    power, power_high, power_low = _obj_tables()[2]
    h = power.take(k)
    h *= magnitude
    high = _SPLIT * magnitude
    low = high - magnitude
    high -= low  # split - (split - magnitude)
    np.subtract(magnitude, high, out=low)
    # mode="clip" lets take write into out without a buffer; every k is in range.
    error = power_high.take(k, out=magnitude, mode="clip")
    error *= high
    error -= h
    high *= power_low.take(k)
    error += high
    high = power_high.take(k, out=high, mode="clip")
    high *= low
    error += high
    high = power_low.take(k, out=high, mode="clip")
    low *= high
    error += low
    del high, low
    digits = h.astype(np.int64)
    del h
    digits += np.rint(error, out=error).astype(np.int64)
    return digits


def _write_vertex_lines(sink: BinaryIO, vertices) -> None:
    """Write the ``v`` lines of an ``(N, 3)`` float64 array in blocks of ``_VERTEX_CHUNK``."""
    values = vertices.ravel()
    for start in range(0, values.size, 3 * _VERTEX_CHUNK):
        sink.write(_vertex_lines(values[start : start + 3 * _VERTEX_CHUNK]))


def _vertex_lines(values) -> bytearray:
    """``v x y z`` lines for a flat run of coordinates, 3 per vertex, as ``%.17g`` prints them.

    A coordinate whose 17-digit decimal exponent X lies in [-4, 16] (the
    fixed notation of ``%.17g``) gets its digits from
    N = round_half_even(|v| * 10^(16 - X)), exactly (``_scaled_round``).
    X starts from floor(log10|v|) and takes one step when N falls outside
    [10^16, 10^17).  Zeros print as ``0`` or ``-0``; exponent notation, inf
    and nan go through ``%.17g`` itself, one value at a time.

    Each coordinate fills a 32-byte slot, a row of four uint64 words in a
    ``(count, 4)`` array over one byte buffer: byte 0 ``v`` (first
    coordinate of a line), 1 a space, 2 the sign, 3..24 the number, 26
    ``\\n`` (last coordinate).  The rows are the text in order.  With
    z = "0000" + the 17 digits at bytes 3..23, the integer part is z in
    place on bytes [start, dot) and the fraction is z moved up one byte,
    past the dot.  Trailing zeros come from the table as NUL, the template
    puts ``0`` back within the integer part, and the dot stays only if a
    fraction digit follows it.  Every other byte is NUL, and the NULs are
    dropped in one pass.  Each array of one word per coordinate is freed,
    or reused in place, once it has been read, and the slot buffer is
    built one word column at a time, so about eleven words per coordinate
    are live at the peak.
    """
    import numpy as np

    words, high_words, _, templates = _obj_tables()
    count = values.size
    magnitude = np.abs(values)
    # log10 of the smallest normal double in place of log10(0), which warns.
    estimate = np.log10(np.maximum(magnitude, _TINY))
    np.floor(estimate, out=estimate)
    fixed = (estimate >= -5) & (estimate <= 16)  # false for 0, inf and nan
    np.copyto(estimate, 0.0, where=~fixed)
    np.copyto(magnitude, 1.0, where=~fixed)
    exponent = estimate.astype(np.int64)
    del estimate
    power = 16 - exponent
    digits = _scaled_round(magnitude, power)
    del magnitude, power
    # floor(log10) can miss by one next to a power of ten, and rounding to
    # 17 digits can carry into the next decade: one step corrects either.
    # Neither happens where the magnitude was replaced by 1.
    off = np.flatnonzero((digits - 10**16).view(np.uint64) >= 9 * 10**16)
    if off.size:
        exponent[off] += np.where(digits[off] < 10**16, -1, 1)
        digits[off] = _scaled_round(np.abs(values[off]), np.clip(16 - exponent[off], 0, 22))
        fixed[off] &= exponent[off] <= 16
    fixed &= exponent >= -4
    fallback = np.flatnonzero(~fixed & (values != 0.0))
    digits *= fixed  # a zero prints as 0; the fallback overwrites its slot
    exponent *= fixed
    del fixed
    slot = (3 * exponent.reshape(-1, 3) + np.array([12, 13, 14])).ravel()  # 3 * (X + 4) + column

    # z as three words per coordinate: z[0] = "0", then the words of the
    # digit groups g0..g4, split in place; a word is NUL-stripped when
    # every digit after it is zero.  Word 3 of z is zero.
    upper = digits // 10**8
    lower = digits  # the last 8 digits, then g4
    lower -= upper * 10**8
    lower_zero = lower == 0
    g3 = lower // _GROUP
    lower -= g3 * _GROUP
    g3 += _GROUP * (lower == 0)
    lower += _GROUP
    z2 = words.take(g3)
    del g3
    z2 |= high_words.take(lower)
    del lower, digits
    top = upper // _GROUP  # g0 and g1, then g1
    upper -= top * _GROUP  # g2
    g0 = top // _GROUP
    top -= g0 * _GROUP
    z0 = high_words.take(g0)
    del g0
    z0 |= np.uint64(0x30000000)
    top += _GROUP * ((upper == 0) & lower_zero)
    upper += _GROUP * lower_zero
    z1 = words.take(top)
    del top
    z1 |= high_words.take(upper)
    del upper

    # Slot word w, last first: z's word w on the integer bytes, z moved up
    # one byte (word w shifted, carrying the top byte of word w - 1) on the
    # fraction bytes, and the constant bytes.  No byte of word 3 is an
    # integer byte, and no byte crosses into the next slot.
    text = bytearray(32 * count)
    block = np.frombuffer(text, dtype=np.uint64).reshape(count, 4)
    keep_integer, keep_fraction, constant = templates
    word_text = np.empty(count, dtype=np.uint64)  # built contiguous, then stored
    scratch = np.empty(count, dtype=np.uint64)
    z = [z0, z1, z2]
    del z0, z1, z2
    for word in range(3, -1, -1):
        if word == 3:
            np.right_shift(z[2], np.uint64(56), out=word_text)
        else:
            np.left_shift(z[word], np.uint64(8), out=word_text)
            if word:
                word_text |= np.right_shift(z[word - 1], np.uint64(56), out=scratch)
        word_text &= keep_fraction[word].take(slot, out=scratch, mode="clip")
        if word < 3:  # z.pop() is z's word w, read for the last time
            integer = keep_integer[word].take(slot, out=scratch, mode="clip")
            word_text |= np.bitwise_and(z.pop(), integer, out=scratch)
        word_text |= constant[word].take(slot, out=scratch, mode="clip")
        block[:, word] = word_text
    del word_text, scratch, integer
    block[:, 0] |= np.signbit(values) * np.uint64(ord("-") << 16)
    flat = block.view(np.uint8).reshape(-1)
    dot = exponent  # each slot's dot: byte 32 * i + X + 8
    dot += np.arange(8, 32 * count, 32)
    flat[dot] = ord(".") * (flat[dot + 1] != 0)
    if fallback.size:
        # Every %.17g form, exponent and sign included, fits in 24 characters.
        fields = (("%-24.17g" * fallback.size) % tuple(values[fallback].tolist())).replace(" ", "\0")
        flat.reshape(count, 32)[fallback, 2:26] = np.frombuffer(fields.encode("ascii"), np.uint8).reshape(-1, 24)
    return text.translate(None, b"\0")


def _label_words(count: int) -> int:
    """Words of a label row for vertices 1..count: a spare byte and the digits of ``count``."""
    return len(str(count)) // 8 + 1


def _face_labels(numbers, words: int):
    """One label row per number: a space, then its digits, NUL-padded, in ``words`` uint64.

    Three rows side by side are the body of a face line (``_face_lines``).
    The digits are right-aligned in the row, so a number with fewer digits
    than the row holds has NULs before its first digit.
    """
    import numpy as np

    table = _obj_tables()[0]
    width = 8 * words - 1
    groups = -(-width // 4)
    rest = np.array(numbers, dtype=np.int64)
    chars = np.empty((len(rest), groups), dtype=np.uint32)
    leading = np.ones(len(rest), dtype=bool)  # no nonzero digit yet
    for j in range(groups):
        place = _GROUP ** (groups - 1 - j)
        group = rest // place
        rest -= group * place
        chars[:, j] = table[group + 2 * _GROUP * leading]
        leading &= group == 0
    labels = np.empty((len(rest), words), dtype=np.uint64)
    text = labels.view(np.uint8)
    text[:, 0] = ord(" ")
    text[:, 1:] = chars.view(np.uint8)[:, 4 * groups - width :]
    return labels


def _face_lines(labels, faces) -> bytearray:
    """``f a b c\\n`` lines for ``(M, 3)`` faces that index the rows of ``labels``.

    Each line is built as a packed record: ``f``, the three corners' label
    rows, whose spare first byte is the space before the number, and
    ``\\n``.  The NULs that pad the rows are then dropped in one pass.
    """
    import numpy as np

    rows = labels.view(np.uint8)
    text = bytearray(len(faces) * (2 + 3 * rows.shape[1]))
    lines = np.frombuffer(text, dtype=np.uint8).reshape(len(faces), -1)
    lines[:, 0] = ord("f")
    lines[:, 1:-1] = rows.take(faces, axis=0).reshape(len(faces), -1)
    lines[:, -1] = ord("\n")
    return text.translate(None, b"\0")


# -- figure presets ---------------------------------------------------------------


@dataclass(frozen=True)
class FigurePreset:
    key: str
    spec: SurfaceSpec
    nt: int
    ntheta: int
    description: str


def _preset(key, n, d, a, q, cx, cy, h, nt, ntheta, description) -> FigurePreset:
    spec = SurfaceSpec(CurveSpec(n, d, a), q, Placement(cx, cy, h))
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
