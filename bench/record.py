"""Record the reference outputs that the benchmark's checks compare against.

    PYTHONPATH=src python3 bench/record.py <new-directory>

Writes ``table1_implicit.json``, ``surface_queries.json`` and
``figures.json`` into a directory that must not exist yet; it never
overwrites.  The files in ``bench/references`` were recorded this way from
the commit that introduced the benchmark, and the benchmark itself only
reads them.  Recording takes about three minutes.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import tempfile
import time

import workloads
from cases import Figures, SurfaceQueries
from probe import at_reference_speed, speed_probe

COST_REPEATS = 5


def _dump(directory: str, name: str, payload: dict) -> None:
    """One JSON object whose single collection is written one entry per line."""
    (key, entries), = payload.items()
    if isinstance(entries, dict):
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(entries.items())]
        body = "{\n" + ",\n".join(lines) + "\n}"
    else:
        body = "[\n" + ",\n".join(json.dumps(v, sort_keys=True) for v in entries) + "\n]"
    with open(os.path.join(directory, name), "x") as handle:
        handle.write(f"{{{json.dumps(key)}: {body}}}\n")


def record_table1(chsurf) -> dict:
    digests = {}
    for spec in chsurf.verify.grid_specs(workloads.GRID_MAX_ND, workloads.GRID_A_VALUES):
        implicit = chsurf.curve.implicit_equation(spec)
        text = json.dumps(implicit.to_dict(), separators=(",", ":")) + "\n"
        digests[f"{spec.n},{spec.d},{spec.a}"] = hashlib.sha256(text.encode("ascii")).hexdigest()
    return {"sha256": digests}


def record_surface(chsurf, workdir: str) -> dict:
    runner = SurfaceQueries(chsurf, workdir, references={})
    queries = []
    for q_text, members in workloads.surface_pool().items():
        timed = []
        for query in members:
            costs = []
            for _ in range(COST_REPEATS):
                state = runner.prepare(query)
                before = speed_probe()
                start = time.perf_counter()
                raw = runner.run(state)
                elapsed = time.perf_counter() - start
                costs.append(at_reference_speed(elapsed, before, speed_probe()))
            out = runner.collect(state, raw)
            timed.append((statistics.median(costs), query, out))
        # Cost strata: members ranked by their median cost at reference speed,
        # STRATUM_SIZE per stratum.
        timed.sort(key=lambda item: item[0])
        for rank, (_, query, out) in enumerate(timed):
            queries.append(
                {
                    "key": query["key"],
                    "argv": query["argv"],
                    "q": q_text,
                    "stratum": rank // workloads.STRATUM_SIZE,
                    "exit_code": out["exit_code"],
                    "stdout": out["stdout"],
                    "singular_circles": out["singular_circles"],
                    "waist_points": out["waist_points"],
                }
            )
    return {"queries": queries}


def record_figures(chsurf) -> dict:
    runner = Figures(chsurf, presets={})
    presets = {}
    for key in chsurf.mesh.preset_keys():
        preset = chsurf.mesh.figure_preset(key)
        digests = {}
        for mult in (1, 2):
            argv = ["figure", key, f"--nt={preset.nt * mult}", f"--ntheta={preset.ntheta * mult}"]
            state = runner.prepare({"argv": argv})
            out = runner.collect(state, runner.run(state))
            if out["exit_code"] != 0:
                raise SystemExit(f"figure {key} x{mult} failed: {out['stderr']}")
            digests[str(mult)] = out["sha256"]
        presets[key] = {"nt": preset.nt, "ntheta": preset.ntheta, "sha256": digests}
    return {"presets": presets}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    directory = argv[0]
    os.makedirs(directory)
    import chsurf.cli
    import chsurf.curve
    import chsurf.mesh
    import chsurf.verify

    _dump(directory, "table1_implicit.json", record_table1(chsurf))
    _dump(directory, "figures.json", record_figures(chsurf))
    with tempfile.TemporaryDirectory(dir=directory) as workdir:
        payload = record_surface(chsurf, workdir)
    _dump(directory, "surface_queries.json", payload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
