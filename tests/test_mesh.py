"""Tests for mesh sampling, OBJ export, and the figure presets.

The meshes are read back from the OBJ that ``obj_writer`` streams, the
bytes ``figure`` and ``surface-mesh`` write: ``%.17g`` round-trips every
double, so ``parse_obj`` gives each vertex's exact bits, ``-0.0``
included.  The rows come from ``mesh._Grid``.
"""

import hashlib
import io
import json
import math
import os
import tracemalloc
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axis_reference import axis_meeting_parameters
from helpers import make_spec, parse_obj, streamed_obj
from chsurf import cli
from chsurf import mesh as mesh_module
from chsurf.curve import CurveSpec, Placement, curve_point
from chsurf.mesh import ZERO_AREA_EPS, figure_preset, obj_writer, preset_keys
from chsurf.surface import (
    _circle_frame,
    circle_key,
    circle_key_close,
    generating_circle,
    parametric_point,
    radicand,
    zero_circle_parameters,
)

# A grid row: its parameter, its kind and its first vertex.  A ring row has
# ``ntheta`` vertices, an apex (a point circle) one, a hole (an axis crossing) none.
Row = namedtuple("Row", "t kind start")
RING, APEX, HOLE = "ring", "apex", "hole"


def grid_rows(spec, nt, ntheta):
    """The rows of ``_Grid(spec, nt, ntheta)``, each kind read from its size."""
    grid = mesh_module._Grid(spec, nt, ntheta)
    kinds = {ntheta: RING, 1: APEX, 0: HOLE}
    period = spec.curve.parameter_period
    sizes_starts = zip(grid.sizes.tolist(), grid.starts.tolist())
    return [Row(period * i / nt, kinds[size], start) for i, (size, start) in enumerate(sizes_starts)]


def streamed_mesh(spec, nt, ntheta):
    """``(vertices, faces)`` parsed from the streamed OBJ, faces 0-based."""
    return parse_obj(streamed_obj(spec, nt, ntheta))


def test_sample_validates_resolution():
    with pytest.raises(ValueError):
        obj_writer(make_spec(1, 1, q=1), 4, 64)


def test_circle_curve_torus_mesh():
    # r = cos(t) crosses the axis at t = pi/2 and 3*pi/2 only.
    spec = make_spec(1, 1, q=1)
    rows = grid_rows(spec, 64, 64)
    assert [(i, row.kind) for i, row in enumerate(rows) if row.kind != RING] == [(16, HOLE), (48, HOLE)]
    vertices, faces = streamed_mesh(spec, 64, 64)
    assert len(vertices) == sum(row.kind == RING for row in rows) * 64
    assert all(0 <= i < len(vertices) for face in faces for i in face)


def test_vertex_count_invariant_with_collapsed_rows():
    spec = figure_preset("6b").spec
    rows = grid_rows(spec, 280, 32)
    vertices, _ = streamed_mesh(spec, 280, 32)
    assert sum(row.kind == APEX for row in rows) == 7
    assert len(vertices) == sum(row.kind == RING for row in rows) * 32 + 7


def test_mesh_bounded_for_parabolic_preset():
    preset = figure_preset("3b")
    vertices, _ = streamed_mesh(preset.spec, 96, 24)
    bound = 1.0 + float(preset.spec.curve.a) + 0.05
    for vertex in vertices:
        assert math.hypot(*vertex) <= bound


def test_degenerate_rows_match_singular_parameters():
    preset = figure_preset("6b")
    collapsed = [row.t for row in grid_rows(preset.spec, preset.nt, 24) if row.kind == APEX]
    expected = zero_circle_parameters(preset.spec)
    assert collapsed == pytest.approx(expected, abs=1e-6)
    skipped = [row.t for row in grid_rows(make_spec(3, 1, q=0, cx=-1), 256, 24) if row.kind == HOLE]
    expected_axis = axis_meeting_parameters(
        CurveSpec(3, 1), Placement(Fraction(-1), Fraction(0), Fraction(0))
    )
    assert skipped == pytest.approx(expected_axis, abs=1e-6)


def test_vertices_map_back_to_row_circles():
    spec = make_spec(3, 1, "1/2", q="9/4", h="1/2")
    vertices, _ = streamed_mesh(spec, 48, 24)
    for row in grid_rows(spec, 48, 24):
        if row.kind != RING:
            continue
        key = generating_circle(spec, row.t)
        for offset in range(0, 24, 5):
            vertex = vertices[row.start + offset]
            if math.hypot(vertex[0], vertex[1]) < 1e-5:
                continue
            recovered = circle_key(_circle_frame(spec, vertex), spec.q_float)
            assert circle_key_close(key, recovered, 1e-7)


def _scalar_sample(spec, nt, ntheta):
    """The per-vertex, per-triangle loop the banded grid replaced, kept as its reference."""
    period = spec.curve.parameter_period
    thetas = [2.0 * math.pi * j / ntheta for j in range(ntheta)]
    cos_t = [math.cos(v) for v in thetas]
    sin_t = [math.sin(v) for v in thetas]
    q = float(spec.q)
    vertices, triangles, rows = [], [], []
    for i in range(nt):
        t = period * i / nt
        x, y, z = curve_point(spec.curve, spec.placement, t)
        rho_sq = x * x + y * y
        rho = math.sqrt(rho_sq)
        start = len(vertices)
        if rho <= spec.axis_bound:
            rows.append(Row(t, HOLE, start))
            continue
        value = radicand((x, y, z), q)
        norm_sq = rho_sq + z * z
        if value == 0.0:
            factor = (norm_sq - q) / (2.0 * rho_sq)
            vertices.append((x * factor, y * factor, 0.0))
            rows.append(Row(t, APEX, start))
            continue
        root = math.sqrt(value)
        half_inv = 1.0 / (2.0 * rho_sq)
        z_scale = root / (2.0 * rho)
        for j in range(ntheta):
            along = (root * cos_t[j] + norm_sq - q) * half_inv
            vertices.append((x * along, y * along, z_scale * sin_t[j]))
        rows.append(Row(t, RING, start))

    scale = max(1.0, max(max(abs(c) for c in v) for v in vertices))
    area_floor = ZERO_AREA_EPS * scale * scale

    def emit(a, b, c):
        pa, pb, pc = vertices[a], vertices[b], vertices[c]
        ux, uy, uz = pb[0] - pa[0], pb[1] - pa[1], pb[2] - pa[2]
        vx, vy, vz = pc[0] - pa[0], pc[1] - pa[1], pc[2] - pa[2]
        cx = uy * vz - uz * vy
        cy = uz * vx - ux * vz
        cz = ux * vy - uy * vx
        if 0.5 * math.sqrt(cx * cx + cy * cy + cz * cz) > area_floor:
            triangles.append((a, b, c))

    for i in range(nt):
        row_a, row_b = rows[i], rows[(i + 1) % nt]
        if row_a.kind == HOLE or row_b.kind == HOLE:
            continue
        if row_a.kind == APEX and row_b.kind == APEX:
            continue
        if row_a.kind == RING and row_b.kind == RING:
            for j in range(ntheta):
                k = (j + 1) % ntheta
                a0, a1 = row_a.start + j, row_a.start + k
                b0, b1 = row_b.start + j, row_b.start + k
                emit(a0, b0, b1)
                emit(a0, b1, a1)
            continue
        ring_row, apex_row = (row_a, row_b) if row_a.kind == RING else (row_b, row_a)
        for j in range(ntheta):
            k = (j + 1) % ntheta
            emit(ring_row.start + j, ring_row.start + k, apex_row.start)
    return vertices, triangles, rows


def assert_stream_matches_reference(spec, nt, ntheta, reference):
    """The streamed OBJ and the grid's rows equal ``_scalar_sample``'s, bit for bit."""
    vertices, triangles, rows = reference
    assert grid_rows(spec, nt, ntheta) == rows
    streamed, faces = streamed_mesh(spec, nt, ntheta)
    # Bytes, not ==, so that a sign flip of a zero coordinate also fails.
    assert np.array(streamed).tobytes() == np.array(vertices).tobytes()
    assert faces == triangles


_EQUIVALENCE_CASES = [
    pytest.param(figure_preset(key).spec, figure_preset(key).nt, id=key) for key in preset_keys()
] + [
    # Skipped rows; preset 6b has collapsed ones.
    pytest.param(make_spec(3, 1, q=0, cx=-1), 256, id="CH(3,1,0),cx=-1"),
    # A raised plane: the axis test compares planar distances, so the height
    # must not widen it (one skipped row, at the cusp).
    pytest.param(make_spec(1, 1, 1, q=1, h="1e8"), 64, id="CH(1,1,1),h=1e8"),
    # The pole on the axis: coordinates in exponent notation.
    pytest.param(make_spec(2, 1, q=1), 64, id="CH(2,1,0),exponent-notation"),
]


@pytest.mark.parametrize("spec, nt", _EQUIVALENCE_CASES)
def test_sample_matches_scalar_reference(spec, nt):
    assert_stream_matches_reference(spec, nt, 24, _scalar_sample(spec, nt, 24))


def _candidate_triangles(rows, ntheta):
    """Triangles the row pairs make before the sliver filter."""
    count = 0
    for row_a, row_b in zip(rows, rows[1:] + rows[:1]):
        kinds = {row_a.kind, row_b.kind}
        if kinds == {RING}:
            count += 2 * ntheta
        elif kinds == {RING, APEX}:
            count += ntheta
    return count


@pytest.mark.parametrize("key, drops", [("3b", True), ("4a", False), ("6c", False), ("3a", True)])
def test_sample_matches_scalar_reference_across_triangle_blocks(monkeypatch, key, drops):
    # The sliver filter works band by band.  Bands of two and of three rows
    # put band edges inside every quad run.  6c's 14 apex rows are the
    # rows 14 and 28 mod 42, so a fan crosses a band edge with its apex as
    # the next band's first row (two-row bands) and as the band's own last
    # row (three-row bands).  3a's 14 holes, 10 mod 20, sit on both
    # sides of a band edge too, and the last band closes the seam with row 0.
    preset = figure_preset(key)
    reference = _scalar_sample(preset.spec, preset.nt, preset.ntheta)
    _, triangles, rows = reference
    candidates = _candidate_triangles(rows, preset.ntheta)
    # 3b and 3a drop two slivers per quad row pair, 4a and 6c none.
    assert (len(triangles) < candidates) == drops
    kinds = [row.kind for row in rows]
    crossings = set()  # (last row of a band, the row after it)
    for band_rows in (2, 3):
        monkeypatch.setattr(mesh_module, "_BAND_VERTICES", band_rows * preset.ntheta)
        bands = mesh_module._Grid(preset.spec, preset.nt, preset.ntheta).bands
        assert [last - first for first, last in bands[:-1]] == [band_rows] * (len(bands) - 1)
        assert bands[-1][1] == preset.nt
        crossings |= {(kinds[last - 1], kinds[last % preset.nt]) for _, last in bands}
        assert_stream_matches_reference(preset.spec, preset.nt, preset.ntheta, reference)
    expected = {"6c": {(RING, APEX), (APEX, RING)}, "3a": {(RING, HOLE), (HOLE, RING)}}
    assert {(RING, RING)} | expected.get(key, set()) <= crossings


@pytest.mark.parametrize("key", preset_keys())
def test_full_rows_are_placed_by_parametric_point(key):
    # Each ring's streamed v lines are the float call of the one surface-point
    # formula, printed by %.17g, which is one-to-one on finite doubles,
    # -0.0 included: equal lines are equal bits.
    preset = figure_preset(key)
    spec, ntheta = preset.spec, preset.ntheta
    lines = streamed_obj(spec, preset.nt, ntheta).split(b"\n")
    q = spec.q_float
    thetas = [2.0 * math.pi * j / ntheta for j in range(ntheta)]
    angles = [(math.cos(theta), math.sin(theta)) for theta in thetas]
    rings = [row for row in grid_rows(spec, preset.nt, ntheta) if row.kind == RING]
    assert rings
    for row in rings:
        frame = _circle_frame(spec, curve_point(spec.curve, spec.placement, row.t))
        expected = [parametric_point(frame, q, cos_theta, sin_theta) for cos_theta, sin_theta in angles]
        assert lines[row.start : row.start + ntheta] == [b"v %.17g %.17g %.17g" % p for p in expected], row


def _placed_floor(grid):
    """The sliver floor from every vertex, placed band by band: the pass the extreme columns replaced."""
    peak = 0.0
    for first, last in grid.bands:
        band_peak = float(np.abs(grid.place(np.arange(first, last))).max(initial=0.0))
        assert math.isfinite(band_peak)
        peak = max(peak, band_peak)
    scale = max(1.0, peak)
    return ZERO_AREA_EPS * scale * scale


@pytest.mark.parametrize("key", preset_keys())
def test_floor_equals_the_floor_of_every_placed_vertex(key):
    preset = figure_preset(key)
    nt, ntheta = preset.nt, preset.ntheta
    for size in [(nt, ntheta), (2 * nt, 2 * ntheta), (nt + 5, 37), (64, 24)]:
        grid = mesh_module._Grid(preset.spec, *size)
        assert grid.floor == _placed_floor(grid), size


_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_SIGNED = st.one_of(st.floats(-10.0, 10.0), _ANY_FLOAT)
_POSITIVE = st.one_of(st.floats(0.01, 10.0), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
_NONNEGATIVE = st.one_of(st.floats(0.0, 10.0), st.floats(min_value=0.0, allow_infinity=False))


@settings(max_examples=500, deadline=None)
@given(
    st.tuples(_SIGNED, _SIGNED, _NONNEGATIVE, _SIGNED, _POSITIVE, _POSITIVE),
    _SIGNED,
    st.integers(min_value=8, max_value=300),
)
def test_ring_extremes_are_at_the_extreme_columns(frame, q, ntheta):
    # x and y are monotone in cos(theta), z in sin(theta), after rounding
    # too, so the columns of extreme cosine and sine hold a ring's largest
    # |coordinate| and, if there is one, a coordinate that is not finite.
    thetas = [2.0 * math.pi * j / ntheta for j in range(ntheta)]
    cos_t = np.array([math.cos(v) for v in thetas])
    sin_t = np.array([math.sin(v) for v in thetas])
    extremes = [cos_t.argmax(), cos_t.argmin(), sin_t.argmax(), sin_t.argmin()]
    with np.errstate(all="ignore"):
        every = np.abs(parametric_point(frame, q, cos_t, sin_t))
        chosen = np.abs(parametric_point(frame, q, cos_t[extremes], sin_t[extremes]))
    finite = np.isfinite(every).all()
    assert finite == np.isfinite(chosen).all()
    if finite:
        assert every.max().tobytes() == chosen.max().tobytes()


@pytest.mark.parametrize("h", ["1e8", "1e10"])
def test_axis_tolerance_does_not_grow_with_the_plane_height(h):
    # r = 1 + cos(t) meets the axis only at its cusp t = pi, row 32 of 64; the
    # axis test compares planar distances, so the plane's height must not widen it.
    rows = grid_rows(make_spec(1, 1, 1, q=1, h=h), 64, 8)
    assert [(i, row.kind) for i, row in enumerate(rows) if row.kind != RING] == [(32, HOLE)]


@pytest.mark.parametrize("h", ["0", "1e4", "1e6"])
def test_singular_circles_csv_is_written_at_any_plane_height(tmp_path, h):
    # The singular-circle scan of CH(3,1,0) at pole (1, 0) keys a circle
    # through a curve point at distance 1 from the axis, whatever its height.
    target = tmp_path / "circles.csv"
    argv = ["surface-classify", "--n", "3", "--d", "1", "--q", "1", "--cx", "1", "--h", h]
    err = io.BytesIO()
    assert cli.run(argv + ["--singular-circles-csv", str(target)], io.BytesIO(), err) == 0, err.getvalue()
    assert target.read_text().startswith("meridian_angle,")


def test_obj_single_triangle():
    buffer = io.BytesIO()
    mesh_module._write_vertex_lines(buffer, np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]))
    labels = mesh_module._face_labels(np.arange(1, 4), mesh_module._label_words(3))
    buffer.write(mesh_module._face_lines(labels, np.array([(0, 1, 2)])))
    assert buffer.getvalue().decode("ascii").splitlines() == [
        "v 0 0 0",
        "v 1 0 0",
        "v 0 1 0",
        "f 1 2 3",
    ]


def test_obj_round_trip_counts_and_coordinates():
    # The stream is the grid's vertices, then every band's kept faces.
    preset = figure_preset("9a")
    grid = mesh_module._Grid(preset.spec, 64, 24)
    vertices, faces = streamed_mesh(preset.spec, 64, 24)
    assert np.array(vertices).tobytes() == grid.place(np.arange(64)).tobytes()
    kept = [ids.take(band) for band, ids in (grid.band_faces(first, last) for first, last in grid.bands)]
    assert faces == [tuple(face) for face in np.concatenate(kept).tolist()]


# -- exact OBJ text ------------------------------------------------------------------


def formatted_coordinates(values):
    """Each value's text in the ``v`` lines ``_write_vertex_lines`` writes for it."""
    values = list(values)
    padded = values + [0.0] * (-len(values) % 3)
    buffer = io.BytesIO()
    mesh_module._write_vertex_lines(buffer, np.array(padded, dtype=np.float64).reshape(-1, 3))
    fields = []
    for line in buffer.getvalue().decode("ascii").split("\n")[:-1]:
        tag, *numbers = line.split(" ")
        assert tag == "v" and len(numbers) == 3, line
        fields.extend(numbers)
    return fields[: len(values)]


def assert_formats_like_percent(values):
    values = [float(v) for v in values]
    assert formatted_coordinates(values) == ["%.17g" % v for v in values]


def float_from_bits(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=60))
def test_obj_coordinates_match_percent_g_on_bit_patterns(patterns):
    assert_formats_like_percent(float_from_bits(bits) for bits in patterns)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-10.0, 10.0), st.integers(-8, 18)).map(lambda p: p[0] * 10.0 ** p[1]),
        min_size=1,
        max_size=60,
    )
)
def test_obj_coordinates_match_percent_g_on_scaled_values(values):
    assert_formats_like_percent(values)


@st.composite
def half_way_values(draw):
    """Doubles v with v * 10^(16 - X) exactly half-way between integers."""
    exponent = draw(st.integers(-4, 15))
    denominator = 2 ** (17 - exponent)  # v = M / 2^(k + 1), k = 16 - X, M odd
    bound = Fraction(10) ** exponent * denominator  # 10^X <= v < 10^(X + 1)
    low, high = math.ceil(bound), min(math.ceil(10 * bound), 2**53)
    numerator = 2 * draw(st.integers(low // 2, (high - 2) // 2)) + 1
    return draw(st.sampled_from([1, -1])) * numerator / denominator


@settings(max_examples=200, deadline=None)
@given(st.lists(half_way_values(), min_size=1, max_size=30))
def test_obj_coordinates_round_half_way_cases_to_even(values):
    assert_formats_like_percent(values)


POWER_NEIGHBOURS = [
    value
    for j in range(-7, 19)
    for value in (
        10.0**j,
        np.nextafter(10.0**j, 0.0),
        np.nextafter(10.0**j, np.inf),
        np.nextafter(np.nextafter(10.0**j, 0.0), 0.0),
    )
]

EDGE_VALUES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-4,
    np.nextafter(1e-4, 0.0),
    np.nextafter(1e-4, 1.0),
    9.9999999999999995e-05,
    1e15,
    np.nextafter(1e15, 0.0),
    np.nextafter(1e15, 2e15),
    1e16,
    np.nextafter(1e16, 0.0),
    np.nextafter(1e16, 2e16),
    1e17,
    np.nextafter(1e17, 0.0),
    np.nextafter(1e17, 2e17),
    99999999999999999.0,
    9999999999999998.0,
    1055742800533251.25,  # half-way at the 17th digit: rounds to even
    0.5,
    100.0,
    1000000.0,
    0.1,
    0.3,
    2.0 / 3.0,
    -3.25,
    -100.0,
    -0.000123,
    np.pi,
    -np.e,
    1.7976931348623157e308,
    -2.2250738585072014e-308,
    float("inf"),
    float("-inf"),
    float("nan"),
]


def test_obj_coordinates_edge_values():
    assert_formats_like_percent(EDGE_VALUES)
    assert_formats_like_percent(POWER_NEIGHBOURS)
    assert_formats_like_percent([-v for v in POWER_NEIGHBOURS])


@pytest.mark.parametrize("count", [1, 9, 10, 11, 99, 100, 101, 9999, 10000, 10001, 10**6])
def test_obj_face_labels_across_widths(count):
    # The label width follows the vertex count.  As in obj_writer, labels are
    # built only for the vertices the faces use, and the faces index them.
    corners = sorted({0, count // 2, max(count - 2, 0), count - 1, min(8, count - 1), min(9, count - 1)})
    triangles = [(a, b, c) for a in corners for b in corners for c in corners[::-1]]
    triangles += [(i, i, i) for i in (8, 9, 10, 98, 99, 100, 9998, 9999, 10000) if i < count]
    expected = "".join("f %d %d %d\n" % (a + 1, b + 1, c + 1) for a, b, c in triangles).encode("ascii")
    ids = np.unique(triangles)
    labels = mesh_module._face_labels(ids + 1, mesh_module._label_words(count))
    assert mesh_module._face_lines(labels, np.searchsorted(ids, triangles)) == expected


def _reference_digests():
    path = Path(__file__).resolve().parents[1] / "bench" / "references" / "figures.json"
    return json.loads(path.read_text())["presets"]


@pytest.mark.parametrize("band_rows", [None, 3], ids=["default-bands", "three-row-bands"])
def test_streamed_obj_matches_the_references(monkeypatch, band_rows):
    # Every preset at its own grid and at twice the grid in both directions,
    # the same bytes however the rows are cut into bands.
    presets = _reference_digests()
    assert sorted(presets) == preset_keys()
    for key in preset_keys():
        preset = figure_preset(key)
        assert (presets[key]["nt"], presets[key]["ntheta"]) == (preset.nt, preset.ntheta), key
        assert sorted(presets[key]["sha256"]) == ["1", "2"], key
        for mult in (1, 2):
            ntheta = mult * preset.ntheta
            if band_rows:
                monkeypatch.setattr(mesh_module, "_BAND_VERTICES", band_rows * ntheta)
            digest = hashlib.sha256(streamed_obj(preset.spec, mult * preset.nt, ntheta)).hexdigest()
            assert digest == presets[key]["sha256"][str(mult)], (key, mult)


def test_streamed_peak_memory_does_not_grow_with_nt():
    # The stream holds one band at a time; what grows with nt is a few
    # numbers per row.  Twice the rows must cost less than one band's vertices.
    preset = figure_preset("3b")
    ntheta = 2 * preset.ntheta
    peaks = []
    with open(os.devnull, "wb") as sink:  # text written to a buffer would be traced too
        obj_writer(preset.spec, 16, 16)(sink)  # first-use tables stay out of the trace
        for mult in (2, 4):
            tracemalloc.start()
            try:
                obj_writer(preset.spec, mult * preset.nt, ntheta)(sink)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 24 * mesh_module._BAND_VERTICES


def test_vertex_text_block_peak_memory():
    # One block of vertex text holds at most 100 bytes per coordinate at its
    # peak, the 32-byte slots and a few arrays of one word each: less than
    # half of the 250 bytes it held with every temporary live at once.
    preset = figure_preset("3b")
    grid = mesh_module._Grid(preset.spec, 2 * preset.nt, 2 * preset.ntheta)
    values = grid.place(np.arange(*grid.bands[0]))[: mesh_module._VERTEX_CHUNK].ravel().copy()
    mesh_module._vertex_lines(values)  # first-use tables stay out of the trace
    tracemalloc.start()
    try:
        mesh_module._vertex_lines(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * values.size


# sha256 of ``surface-mesh`` stdout, recorded with the per-number ``%`` writer.
SURFACE_MESH_DIGESTS = [
    (  # pole on the axis: 4 skipped rows, exponent-notation coordinates
        ["--n", "2", "--d", "1", "--q", "1", "--nt", "64", "--ntheta", "24"],
        "7cf8007c4cb94d541c6e29df9efd4d29da37381a9264e5f1cd0d81e50392d3fe",
    ),
    (  # 7 collapsed rows
        ["--n", "7", "--d", "1", "--a", "2", "--q", "-1", "--nt", "140", "--ntheta", "20"],
        "79325b8ed5bd6882cc9baf773c207b68ef44106b368d0bac78c59c56c9251420",
    ),
    (  # pole off the axis, plane below it, one skipped row
        ["--n", "5", "--d", "3", "--a", "1", "--q", "-9/4", "--cx", "-2", "--h", "-1/2",
         "--nt", "120", "--ntheta", "30"],
        "0d3fa73a531b5b6591823c05db0cb302c1ddbf29e376290f45f9bb3689243b02",
    ),
]


@pytest.mark.parametrize("argv, digest", SURFACE_MESH_DIGESTS)
def test_surface_mesh_bytes_are_pinned(argv, digest):
    out, err = io.BytesIO(), io.StringIO()
    assert cli.run(["surface-mesh", *argv], out, err) == 0, err.getvalue()
    assert hashlib.sha256(out.getvalue()).hexdigest() == digest


def test_preset_registry():
    keys = preset_keys()
    assert len(keys) == 22
    assert keys[0] == "3a"
    preset = figure_preset("5b")
    assert preset.spec.curve == CurveSpec(9, 2, Fraction(2))
    assert preset.spec.q == -1
    assert preset.spec.placement.height == Fraction(1, 2)
    with pytest.raises(ValueError):
        figure_preset("10z")
