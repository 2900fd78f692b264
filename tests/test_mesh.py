"""Tests for mesh sampling, OBJ export, and the figure presets."""

import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axis_reference import axis_meeting_parameters
from helpers import make_spec, parse_obj
from chsurf import cli
from chsurf import mesh as mesh_module
from chsurf.congruence import circle_key_close, circle_through
from chsurf.curve import CurveSpec, Placement, curve_point
from chsurf.mesh import (
    COLLAPSED,
    FULL,
    SKIPPED,
    ZERO_AREA_EPS,
    Mesh,
    MeshRow,
    export_obj,
    figure_preset,
    preset_keys,
    sample,
)
from chsurf.surface import (
    AXIS_EPS,
    generating_circle,
    radicand,
    zero_circle_parameters,
)


def test_sample_validates_resolution():
    with pytest.raises(ValueError):
        sample(make_spec(1, 1, q=1), 4, 64)


def test_circle_curve_torus_mesh():
    # r = cos(t) crosses the axis at t = pi/2 and 3*pi/2 only.
    mesh = sample(make_spec(1, 1, q=1), 64, 64)
    assert mesh.skipped_rows == [16, 48]
    assert mesh.collapsed_rows == []
    full_rows = sum(1 for row in mesh.rows if row.kind == FULL)
    assert len(mesh.vertices) == full_rows * 64
    assert all(0 <= i < len(mesh.vertices) for tri in mesh.triangles for i in tri)


def test_vertex_count_invariant_with_collapsed_rows():
    mesh = sample(figure_preset("6b").spec, 280, 32)
    full_rows = sum(1 for row in mesh.rows if row.kind == FULL)
    assert len(mesh.collapsed_rows) == 7
    assert len(mesh.vertices) == full_rows * 32 + 7


def test_mesh_bounded_for_parabolic_preset():
    preset = figure_preset("3b")
    mesh = sample(preset.spec, 96, 24)
    bound = 1.0 + float(preset.spec.curve.a) + 0.05
    for vertex in mesh.vertices:
        assert math.hypot(*vertex) <= bound


def test_degenerate_rows_match_singular_parameters():
    preset = figure_preset("6b")
    mesh = sample(preset.spec, preset.nt, 24)
    collapsed = mesh.row_parameters(["collapsed"])
    expected = zero_circle_parameters(preset.spec)
    assert collapsed == pytest.approx(expected, abs=1e-6)
    skipped = sample(make_spec(3, 1, q=0, cx=-1), 256, 24).row_parameters(["skipped"])
    expected_axis = axis_meeting_parameters(
        CurveSpec(3, 1), Placement(Fraction(-1), Fraction(0), Fraction(0))
    )
    assert skipped == pytest.approx(expected_axis, abs=1e-6)


def test_vertices_map_back_to_row_circles():
    spec = make_spec(3, 1, "1/2", q="9/4", h="1/2")
    mesh = sample(spec, 48, 24)
    for row in mesh.rows:
        if row.kind != FULL:
            continue
        key = generating_circle(spec, row.t)
        for offset in range(0, row.vertex_count, 5):
            vertex = mesh.vertices[row.vertex_start + offset]
            if math.hypot(vertex[0], vertex[1]) < 1e-5:
                continue
            recovered = circle_through(spec.congruence, vertex)
            assert circle_key_close(key, recovered, 1e-7)


def _scalar_sample(spec, nt, ntheta):
    """The per-vertex, per-triangle loop that ``sample`` replaced, kept as its reference."""
    period = spec.curve.parameter_period
    thetas = [2.0 * math.pi * j / ntheta for j in range(ntheta)]
    cos_t = [math.cos(v) for v in thetas]
    sin_t = [math.sin(v) for v in thetas]
    q = float(spec.congruence.q)
    axis_tol = AXIS_EPS * max(1.0, spec.extent)
    vertices, triangles, rows = [], [], []
    for i in range(nt):
        t = period * i / nt
        x, y, z = curve_point(spec.curve, spec.placement, t)
        rho_sq = x * x + y * y
        rho = math.sqrt(rho_sq)
        start = len(vertices)
        if rho <= axis_tol:
            rows.append(MeshRow(i, t, SKIPPED, start, 0))
            continue
        value = radicand((x, y, z), q)
        norm_sq = rho_sq + z * z
        if value == 0.0:
            factor = (norm_sq - q) / (2.0 * rho_sq)
            vertices.append((x * factor, y * factor, 0.0))
            rows.append(MeshRow(i, t, COLLAPSED, start, 1))
            continue
        root = math.sqrt(value)
        half_inv = 1.0 / (2.0 * rho_sq)
        z_scale = root / (2.0 * rho)
        for j in range(ntheta):
            along = (root * cos_t[j] + norm_sq - q) * half_inv
            vertices.append((x * along, y * along, z_scale * sin_t[j]))
        rows.append(MeshRow(i, t, FULL, start, ntheta))

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
        if row_a.kind == SKIPPED or row_b.kind == SKIPPED:
            continue
        if row_a.kind == COLLAPSED and row_b.kind == COLLAPSED:
            continue
        if row_a.kind == FULL and row_b.kind == FULL:
            for j in range(ntheta):
                k = (j + 1) % ntheta
                a0, a1 = row_a.vertex_start + j, row_a.vertex_start + k
                b0, b1 = row_b.vertex_start + j, row_b.vertex_start + k
                emit(a0, b0, b1)
                emit(a0, b1, a1)
            continue
        full_row, apex_row = (row_a, row_b) if row_a.kind == FULL else (row_b, row_a)
        for j in range(ntheta):
            k = (j + 1) % ntheta
            emit(full_row.vertex_start + j, full_row.vertex_start + k, apex_row.vertex_start)
    return vertices, triangles, rows


_EQUIVALENCE_CASES = [
    pytest.param(figure_preset(key).spec, figure_preset(key).nt, id=key) for key in preset_keys()
] + [
    # Skipped rows; preset 6b has collapsed ones.
    pytest.param(make_spec(3, 1, q=0, cx=-1), 256, id="CH(3,1,0),cx=-1"),
]


@pytest.mark.parametrize("spec, nt", _EQUIVALENCE_CASES)
def test_sample_matches_scalar_reference(spec, nt):
    mesh = sample(spec, nt, 24)
    vertices, triangles, rows = _scalar_sample(spec, nt, 24)
    assert mesh.rows == rows
    assert mesh.vertices.dtype == np.float64 and mesh.vertices.shape == (len(vertices), 3)
    assert mesh.triangles.dtype == np.int64 and mesh.triangles.shape == (len(triangles), 3)
    # Bytes, not ==, so that a sign flip of a zero coordinate also fails.
    assert mesh.vertices.tobytes() == np.array(vertices, dtype=np.float64).tobytes()
    assert mesh.triangles.tolist() == [list(t) for t in triangles]


def _candidate_triangles(rows, ntheta):
    """Triangles the row pairs make before the sliver filter."""
    count = 0
    for row_a, row_b in zip(rows, rows[1:] + rows[:1]):
        kinds = {row_a.kind, row_b.kind}
        if kinds == {FULL}:
            count += 2 * ntheta
        elif kinds == {FULL, COLLAPSED}:
            count += ntheta
    return count


@pytest.mark.parametrize("key, drops", [("3b", True), ("4a", False)])
def test_sample_matches_scalar_reference_across_triangle_blocks(monkeypatch, key, drops):
    # A block size that divides neither a row pair nor the triangle count,
    # so block edges fall inside row pairs and a short block ends the run.
    monkeypatch.setattr(mesh_module, "_TRIANGLE_CHUNK", 1000)
    preset = figure_preset(key)
    mesh = sample(preset.spec, preset.nt, preset.ntheta)
    vertices, triangles, rows = _scalar_sample(preset.spec, preset.nt, preset.ntheta)
    candidates = _candidate_triangles(rows, preset.ntheta)
    assert candidates > 10 * mesh_module._TRIANGLE_CHUNK
    # 3b drops two slivers per row pair, 4a none.
    assert (len(triangles) < candidates) == drops
    assert mesh.rows == rows
    assert mesh.vertices.tobytes() == np.array(vertices, dtype=np.float64).tobytes()
    assert mesh.triangles.tolist() == [list(t) for t in triangles]


def test_export_obj_single_triangle():
    mesh = Mesh(
        vertices=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
        triangles=[(0, 1, 2)],
    )
    buffer = io.BytesIO()
    export_obj(mesh, buffer)
    text = buffer.getvalue().decode("ascii")
    assert text.splitlines() == [
        "v 0 0 0",
        "v 1 0 0",
        "v 0 1 0",
        "f 1 2 3",
    ]


def test_export_obj_empty():
    buffer = io.BytesIO()
    export_obj(Mesh(), buffer)
    assert buffer.getvalue() == b""


def test_obj_round_trip_counts_and_coordinates():
    preset = figure_preset("9a")
    mesh = sample(preset.spec, 64, 24)
    buffer = io.BytesIO()
    export_obj(mesh, buffer)
    vertices, faces = parse_obj(buffer.getvalue())
    assert len(vertices) == len(mesh.vertices)
    assert len(faces) == len(mesh.triangles)
    assert faces == [tuple(t) for t in mesh.triangles.tolist()]
    for parsed, original in zip(vertices, mesh.vertices):
        assert parsed == tuple(original.tolist())  # 17 significant digits round-trip exactly


# -- exact OBJ text ------------------------------------------------------------------


def formatted_coordinates(values):
    """Each value's text in the ``v`` lines ``export_obj`` writes for it."""
    values = list(values)
    padded = values + [0.0] * (-len(values) % 3)
    buffer = io.BytesIO()
    export_obj(Mesh(vertices=np.array(padded, dtype=np.float64).reshape(-1, 3)), buffer)
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
    # The label width follows the vertex count; 10**6 vertices need two-word rows.
    vertices = np.zeros((count, 3))
    corners = sorted({0, count // 2, max(count - 2, 0), count - 1, min(8, count - 1), min(9, count - 1)})
    triangles = [(a, b, c) for a in corners for b in corners for c in corners[::-1]]
    triangles += [(i, i, i) for i in (8, 9, 10, 98, 99, 100, 9998, 9999, 10000) if i < count]
    buffer = io.BytesIO()
    export_obj(Mesh(vertices=vertices, triangles=triangles), buffer)
    faces = buffer.getvalue()[len(b"v 0 0 0\n") * count :]
    assert faces == "".join("f %d %d %d\n" % (a + 1, b + 1, c + 1) for a, b, c in triangles).encode("ascii")


def test_export_obj_rejects_indices_outside_the_vertices():
    vertices = [(0.0, 0.0, 0.0)] * 3
    for bad in [(0, 1, 3), (0, -1, 2)]:
        with pytest.raises(ValueError):
            export_obj(Mesh(vertices=vertices, triangles=[bad]), io.BytesIO())


def test_preset_obj_digests_match_bench_references():
    # Every preset at its own grid and at twice the grid in both directions.
    path = Path(__file__).resolve().parents[1] / "bench" / "references" / "figures.json"
    presets = json.loads(path.read_text())["presets"]
    assert sorted(presets) == preset_keys()
    for key in preset_keys():
        preset = figure_preset(key)
        assert (presets[key]["nt"], presets[key]["ntheta"]) == (preset.nt, preset.ntheta), key
        assert sorted(presets[key]["sha256"]) == ["1", "2"], key
        for mult in (1, 2):
            buffer = io.BytesIO()
            export_obj(sample(preset.spec, mult * preset.nt, mult * preset.ntheta), buffer)
            digest = hashlib.sha256(buffer.getvalue()).hexdigest()
            assert digest == presets[key]["sha256"][str(mult)], (key, mult)


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
    assert preset.spec.congruence.q == -1
    assert preset.spec.placement.height == Fraction(1, 2)
    with pytest.raises(ValueError):
        figure_preset("10z")
