"""Tests of the benchmark itself: inputs, span arithmetic, checks, contract.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cases  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- seeded inputs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.batch(workload, 7, 0) == workloads.batch(workload, 7, 0)
    assert workloads.batch(workload, 7, 1) == workloads.batch(workload, 7, 1)
    assert workloads.batch(workload, 7, 0) != workloads.batch(workload, 8, 0)
    assert workloads.batch(workload, 7, 0) != workloads.batch(workload, 7, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_batches_have_fixed_size(workload):
    sizes = {len(workloads.batch(workload, seed, 0)) for seed in range(5)}
    assert sizes == {run.BATCH_CASES[workload]}


def test_table1_batch_covers_every_cell_once():
    cells = sorted((c["n"] + c["d"], c["a"]) for c in workloads.table1_batch(3, 0))
    expected = sorted(
        (total, a) for total in workloads.grid_strata() for a in workloads.GRID_A_VALUES
    )
    assert cells == expected


def test_surface_batch_takes_one_query_per_cost_stratum():
    strata = workloads.recorded_strata()
    chosen = workloads.surface_batch(3, 0)
    owner = {q["key"]: stratum for stratum, members in strata.items() for q in members}
    assert sorted(owner[case["key"]] for case in chosen) == sorted(strata)


def test_recorded_pool_matches_generator():
    generated = sorted(q["key"] for members in workloads.surface_pool().values() for q in members)
    recorded = sorted(q["key"] for members in workloads.recorded_strata().values() for q in members)
    assert generated == recorded


def test_rational_options_use_equals_form():
    # argparse reads "--cx -1/2" as two flags; "--cx=-1/2" is unambiguous.
    for case in workloads.surface_batch(1, 0) + workloads.figures_batch(1, 0):
        assert all(arg.startswith("--") and "=" in arg for arg in case["argv"][1:] if arg.startswith("-"))


# -- span arithmetic ---------------------------------------------------------------


def _span(name, start, end, parent):
    return [name, start, end, parent, "case"]


def test_self_times_subtract_direct_children():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 9.0, 0),
        _span("a", 6.0, 7.0, 2),
        _span("root", 20.0, 21.5, -1),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 3.0, 1.0, 1.5]
    table = spans.summarize(tree)
    assert table["root"] == {"calls": 2, "total_s": 11.5, "self_s": 4.5}
    assert table["a"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert spans.top_level_seconds(tree) == 11.5


def test_recorder_links_nested_calls_and_counts():
    recorder = spans.Recorder()

    class Tally(spans.Hook):
        def after(self, counts, args, result, state):
            counts["leaf.results"] += result

    leaf = recorder.wrap("leaf", lambda x: x, Tally())
    outer = recorder.wrap("outer", lambda: leaf(2) + leaf(3))
    recorder.case = "c1"
    assert outer() == 5
    names = [(s[spans.NAME], s[spans.PARENT], s[spans.CASE]) for s in recorder.spans]
    assert names == [("outer", -1, "c1"), ("leaf", 0, "c1"), ("leaf", 0, "c1")]
    assert recorder.counts["leaf.results"] == 5
    own = spans.self_times(recorder.spans)
    assert all(value >= 0 for value in own)


def test_install_rebinds_every_namespace_and_skips_hot_helpers():
    poly = types.ModuleType("fake.poly")

    def scale(x):
        return 2 * x

    def _private(x):
        return x

    class Poly:
        def __mul__(self, other):
            return "mul"

        __rmul__ = __mul__

        def __add__(self, other):
            return "add"

        def norm(self):
            return 1

    class GaussianRational:
        def conjugate(self):
            return self

    for fn in (scale, _private):
        fn.__module__ = "fake.poly"
    Poly.__module__ = GaussianRational.__module__ = "fake.poly"
    poly.scale, poly._private, poly.Poly, poly.GaussianRational = scale, _private, Poly, GaussianRational
    curve = types.ModuleType("fake.curve")

    def curve_point(t):
        return t

    curve_point.__module__ = "fake.curve"
    curve.curve_point = curve_point
    curve.scale = scale  # re-exported by name, as "from .poly import scale" does

    recorder = spans.Recorder()
    names = spans.install(recorder, [poly, curve], {})
    assert names == ["poly.mul", "poly.norm", "poly.scale"]
    assert curve.scale is poly.scale is not scale
    assert Poly.__rmul__ is Poly.__mul__
    assert curve.curve_point is curve_point and poly._private is _private
    assert Poly() * 1 == "mul" and curve.scale(2) == 4 and Poly().norm() == 1
    assert [s[spans.NAME] for s in recorder.spans] == ["poly.mul", "poly.scale", "poly.norm"]


# -- checks catch perturbed outputs ---------------------------------------------


@pytest.fixture(scope="module")
def package():
    import chsurf.cli
    import chsurf.curve
    import chsurf.verify

    return chsurf


def _run_case(workload, case):
    state = workload.prepare(case)
    return workload.collect(state, workload.run(state))


def test_table1_check_catches_perturbations(package):
    workload = cases.make_workload("table1-grid", package, "")
    case = {"n": 3, "d": 2, "a": "1/4", "slope_seed": 11, "id": "t"}
    out = _run_case(workload, case)
    assert workload.check(case, out) == []
    text = out["implicit_json"]
    perturbations = {
        "implicit_json": text.replace('"re":"', '"re":"9', 1),
        "degree": out["degree"] + 1,
        "lowest_degree": out["lowest_degree"] - 1,
        "cone_matches": False,
        "absolute": out["absolute"] + 1,
        "residual": 1e-6,
    }
    assert perturbations["implicit_json"] != text
    for key, value in perturbations.items():
        assert workload.check(case, dict(out, **{key: value})), key


def test_surface_check_catches_perturbations(package, tmp_path):
    workload = cases.make_workload("surface-queries", package, str(tmp_path))
    query = min(
        (q for q in workload.references.values() if q["singular_circles"] and q["waist_points"]),
        key=lambda q: (q["stratum"], q["key"]),
    )
    case = {"argv": query["argv"], "key": query["key"], "id": "s"}
    out = _run_case(workload, case)
    assert workload.check(case, out) == []

    def bumped(rows, column, factor):
        rows = [list(row) for row in rows]
        rows[0][column] = rows[0][column] * factor + (factor - 1)
        return rows

    circles, waist = out["singular_circles"], out["waist_points"]
    perturbations = {
        "exit_code": 1,
        "stdout": out["stdout"].replace('"order":', '"order":1'),
        "stderr": "warning\n",
        "singular_circles": bumped(circles, 1, 1 + 1e-6),
        "waist_points": waist[1:],
    }
    for key, value in perturbations.items():
        assert workload.check(case, dict(out, **{key: value})), key
    multiplicity = bumped(circles, 3, 2.0)
    assert workload.check(case, dict(out, singular_circles=multiplicity))
    within = bumped(circles, 2, 1 + 1e-13)
    assert workload.check(case, dict(out, singular_circles=within)) == []
    missing = dict(case, key="surface-classify --n=1 --d=1")
    assert workload.check(missing, out)


def test_figure_check_catches_perturbations(package):
    workload = cases.make_workload("figures", package, "")
    case = next(c for c in workloads.figures_batch(5, 0) if c["mult"] == 1)
    out = _run_case(workload, case)
    assert workload.check(case, out) == []
    assert workload.check(case, dict(out, sha256="0" * 64))
    assert workload.check(case, dict(out, exit_code=1))
    assert workload.check(dict(case, mult=2), out)


# -- the benchmark contract ----------------------------------------------------


def test_benchmark_json_names_the_metrics_run_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.PER_LAYER
    ]


def test_tail_percentile_leaves_ten_cases_beyond():
    for workload, size in run.BATCH_CASES.items():
        guaranteed = size * run.MIN_BATCHES
        assert guaranteed * (1 - run.tail_percentile(workload) / 100) >= 10


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figures", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "src/chsurf/cli.py" in done.stderr
