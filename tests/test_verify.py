"""Tests that the verification suites report a broken table row as FAIL checks."""

import io
import re

import pytest

from chsurf import curve
from chsurf.cli import run
from chsurf.mesh import figure_preset, preset_keys
from chsurf.surface import CLASSIFICATION_TABLE, incidence_type, table_branch, table_variant
from chsurf.verify import grid_specs, run_invariants, run_suite, run_table2


def wrong_row(n, d, j):
    return (1, 1, 1, 1)  # positive, so table2 still counts the row as realizable


def _row_key(preset_key):
    spec = figure_preset(preset_key).spec
    return (incidence_type(spec).kind, table_variant(spec.curve), table_branch(spec.curve))


def _failed_names(report):
    return sorted(c.name for c in report.checks if not c.passed)


def test_table2_row_check_fails_with_its_instances(monkeypatch):
    monkeypatch.setitem(CLASSIFICATION_TABLE, (5, "B", "lt"), wrong_row)
    report = run_table2(max_nd=4)
    instances = [n for n in _failed_names(report) if n.startswith("type 5B lt ")]
    assert instances
    assert _failed_names(report) == sorted(instances + ["type 5B (lt)"])
    row = next(c for c in report.checks if c.name == "type 5B (lt)")
    assert row.measured.startswith(f"{len(instances)} of ")


def test_invariants_report_disagreement_per_preset(monkeypatch):
    names = [c.name for c in run_invariants().checks]
    row = _row_key("5b")
    affected = sorted(f"{key} classification" for key in preset_keys() if _row_key(key) == row)
    monkeypatch.setitem(CLASSIFICATION_TABLE, row, wrong_row)
    report = run_invariants()
    assert [c.name for c in report.checks] == names
    assert _failed_names(report) == affected
    assert all("classification paths disagree" in c.measured for c in report.checks if not c.passed)



def test_one_disagreeing_slope_fails_its_spec(monkeypatch):
    specs = grid_specs(2)
    index = 12
    target = specs[index]
    seed = curve.DEFAULT_SEED + index  # the seed table1 gives the spec at this position
    exact = curve.absolute_point_multiplicity
    drawn = []
    monkeypatch.setattr(
        curve, "absolute_point_multiplicity", lambda s, m: drawn.append(m) or exact(s, m)
    )
    order = curve.verified_absolute_multiplicity(target, seed=seed)
    wrong = drawn[1]
    monkeypatch.setattr(
        curve,
        "absolute_point_multiplicity",
        lambda s, m: exact(s, m) + (s == target and m == wrong),
    )
    with pytest.raises(RuntimeError, match=re.escape(f"{order + 1} at m={wrong}")):
        curve.verified_absolute_multiplicity(target, seed=seed)

    label = f"CH({target.n},{target.d},{target.a}) absolute multiplicity"
    report = run_suite("table1", max_nd=2)
    assert _failed_names(report) == [label]
    assert "slopes disagree" in next(c.measured for c in report.checks if c.name == label)

    out, err = io.BytesIO(), io.BytesIO()
    assert run(["verify", "table1", "--max-nd", "2"], out, err) == 1
    assert err.getvalue() == b""
    assert f"FAIL  {label}  [slopes disagree".encode() in out.getvalue()
