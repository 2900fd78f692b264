"""One case of each workload: how it runs, and how its outputs are checked.

A workload object splits a case into three steps.  ``prepare`` builds the
arguments and clears whatever a fresh CLI process would not have; ``run``
is the timed user-level query; ``collect`` gathers what the query wrote
(CSV files, digests) into a plain dict.  ``check`` compares that dict with
the closed-form tables or with the references recorded at the seed commit
and returns the list of problems found, empty when the case is correct.
The references are read-only here: nothing in this module writes them.

Calls go through module attributes (``curve.implicit_equation``), so a
traced run sees them through its wrappers.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from fractions import Fraction
from typing import Dict, List

from workloads import REFERENCE_DIR

RESIDUAL_BOUND = 1e-9
# CSV float fields must match the recorded value to this many units of
# max(1, |reference|); the recorded values were printed with %.17g.
CSV_FLOAT_TOL = 1e-9


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, name)) as handle:
        return json.load(handle)


class DigestSink:
    """Binary sink that keeps only the SHA-256 and the byte count."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._size = 0

    def write(self, data: bytes) -> int:
        self._hash.update(data)
        self._size += len(data)
        return len(data)

    def tell(self) -> int:
        return self._size

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class Table1Grid:
    """Implicit equation, pole and circular-point invariants, residual."""

    def __init__(self, chsurf, digests: Dict[str, str]) -> None:
        self.curve = chsurf.curve
        self.verify = chsurf.verify
        self.digests = digests

    @staticmethod
    def spec_key(case: dict) -> str:
        return f"{case['n']},{case['d']},{case['a']}"

    def prepare(self, case: dict):
        # Every CLI process starts with empty caches.
        self.curve.implicit_equation.cache_clear()
        self.curve.homogeneous_implicit.cache_clear()
        return self.curve.CurveSpec(case["n"], case["d"], Fraction(case["a"])), case["slope_seed"]

    def run(self, state) -> dict:
        spec, slope_seed = state
        curve = self.curve
        implicit = curve.implicit_equation(spec)
        text = json.dumps(implicit.to_dict(), separators=(",", ":")) + "\n"
        lowest = implicit.lowest_form()
        cone = None
        if not spec.is_odd_rose:
            cone = lowest.primitive() == curve.tangent_cone(spec)
        return {
            "implicit_json": text,
            "degree": implicit.total_degree,
            "lowest_degree": lowest.total_degree,
            "cone_matches": cone,
            "absolute": curve.verified_absolute_multiplicity(spec, seed=slope_seed),
            "residual": self.verify.max_scaled_residual(spec),
        }

    def collect(self, state, raw: dict) -> dict:
        return raw

    def check(self, case: dict, out: dict) -> List[str]:
        spec = self.curve.CurveSpec(case["n"], case["d"], Fraction(case["a"]))
        expected = self.curve.curve_properties(spec)
        problems = []
        if out["degree"] != expected.order:
            problems.append(f"order {out['degree']} != {expected.order}")
        if out["lowest_degree"] != expected.origin_multiplicity:
            problems.append(f"pole multiplicity {out['lowest_degree']} != {expected.origin_multiplicity}")
        if not spec.is_odd_rose and out["cone_matches"] is not True:
            problems.append("tangent cone not proportional to the lowest form")
        if out["absolute"] != expected.absolute_multiplicity:
            problems.append(f"circular-point multiplicity {out['absolute']} != {expected.absolute_multiplicity}")
        if not out["residual"] <= RESIDUAL_BOUND:
            problems.append(f"residual {out['residual']:.3e} > {RESIDUAL_BOUND:.0e}")
        digest = hashlib.sha256(out["implicit_json"].encode("ascii")).hexdigest()
        if digest != self.digests.get(self.spec_key(case)):
            problems.append("implicit-equation JSON differs from the recorded digest")
        return problems


class SurfaceQueries:
    """``surface-classify`` with both inspection CSVs, through ``cli.run``."""

    def __init__(self, chsurf, workdir: str, references: Dict[str, dict]) -> None:
        self.cli = chsurf.cli
        self.workdir = workdir
        self.references = references

    def prepare(self, case: dict):
        circles = os.path.join(self.workdir, "singular_circles.csv")
        waist = os.path.join(self.workdir, "waist_points.csv")
        for path in (circles, waist):
            if os.path.exists(path):
                os.remove(path)
        argv = case["argv"] + [f"--singular-circles-csv={circles}", f"--waist-points-csv={waist}"]
        return argv, circles, waist

    def run(self, state) -> dict:
        argv = state[0]
        out, err = io.StringIO(), io.StringIO()
        code = self.cli.run(argv, out, err)
        return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def collect(self, state, raw: dict) -> dict:
        _, circles, waist = state
        return dict(raw, singular_circles=read_csv(circles), waist_points=read_csv(waist))

    def check(self, case: dict, out: dict) -> List[str]:
        ref = self.references.get(case["key"])
        if ref is None:
            return ["query has no recorded reference"]
        problems = []
        if out["exit_code"] != ref["exit_code"]:
            problems.append(f"exit code {out['exit_code']} != {ref['exit_code']}")
        if out["stdout"] != ref["stdout"]:
            problems.append(f"stdout {out['stdout']!r} != {ref['stdout']!r}")
        if out["exit_code"] == 0 and out["stderr"]:
            problems.append(f"unexpected stderr {out['stderr']!r}")
        problems += compare_rows("singular circle", out["singular_circles"], ref["singular_circles"], exact_last=True)
        problems += compare_rows("waist point", out["waist_points"], ref["waist_points"], exact_last=False)
        return problems


def read_csv(path: str):
    """Data rows of a chsurf CSV as lists of floats; None if not written."""
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        lines = handle.read().splitlines()
    return [[float(field) for field in line.split(",")] for line in lines[1:]]


def compare_rows(what: str, rows, ref_rows, exact_last: bool) -> List[str]:
    if rows is None or ref_rows is None:
        return [] if rows is ref_rows else [f"{what} CSV presence differs from the reference"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} {what}s != {len(ref_rows)}"]
    problems = []
    for index, (row, ref) in enumerate(zip(rows, ref_rows)):
        floats, ref_floats = (row[:-1], ref[:-1]) if exact_last else (row, ref)
        if exact_last and row[-1] != ref[-1]:
            problems.append(f"{what} {index}: multiplicity {row[-1]:g} != {ref[-1]:g}")
        for value, expected in zip(floats, ref_floats):
            if abs(value - expected) > CSV_FLOAT_TOL * max(1.0, abs(expected)):
                problems.append(f"{what} {index}: {value!r} != {expected!r}")
                break
    return problems


class Figures:
    """``figure <id>`` into an in-memory sink, OBJ digest per preset and size."""

    def __init__(self, chsurf, presets: Dict[str, dict]) -> None:
        self.cli = chsurf.cli
        self.presets = presets

    def prepare(self, case: dict):
        return case["argv"], DigestSink()

    def run(self, state) -> dict:
        argv, sink = state
        err = io.StringIO()
        code = self.cli.run(argv, sink, err)
        return {"exit_code": code, "stderr": err.getvalue()}

    def collect(self, state, raw: dict) -> dict:
        sink = state[1]
        return dict(raw, sha256=sink.hexdigest(), obj_bytes=sink.tell())

    def check(self, case: dict, out: dict) -> List[str]:
        problems = []
        if out["exit_code"] != 0:
            problems.append(f"exit code {out['exit_code']}: {out['stderr']!r}")
        expected = self.presets[case["preset"]]["sha256"][str(case["mult"])]
        if out["sha256"] != expected:
            problems.append(f"OBJ of {case['preset']} x{case['mult']} differs from the recorded digest")
        return problems


def make_workload(name: str, chsurf, workdir: str):
    """The workload runner with its recorded references loaded."""
    if name == "table1-grid":
        return Table1Grid(chsurf, load_reference("table1_implicit.json")["sha256"])
    if name == "surface-queries":
        queries = load_reference("surface_queries.json")["queries"]
        return SurfaceQueries(chsurf, workdir, {query["key"]: query for query in queries})
    if name == "figures":
        return Figures(chsurf, load_reference("figures.json")["presets"])
    raise ValueError(f"unknown workload {name!r}")
