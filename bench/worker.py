"""Run one workload in this fresh interpreter and print the result as JSON.

Started by ``run.py`` with a job on stdin:
``{"workload", "seed", "seconds", "min_batches", "max_batches", "trace"}``.
One client runs cases one after another (a closed loop).  Whole batches
run until ``seconds`` would be exceeded by the next batch, but never fewer
than ``min_batches`` nor more than ``max_batches``.  Only ``run`` of each
case is timed, with the host-speed probe (``probe.py``) timed right before
and right after it; input generation, ``prepare``, ``collect`` and
``check`` are not timed.

With ``"trace": true`` the chsurf layers are wrapped before the first case
and the span table and work counts are added to the result.  Without it
nothing is installed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import time
import traceback

import cases
import spans
import workloads
from probe import speed_probe

MAX_PROBLEMS = 20


class _ImplicitCache(spans.Hook):
    """Hit or miss of the ``implicit_equation`` cache, and the size of what it built."""

    def __init__(self, function) -> None:
        self.function = function

    def before(self, args):
        return self.function.cache_info().misses

    def after(self, counts, args, result, misses_before):
        if self.function.cache_info().misses == misses_before:
            counts["curve.implicit_cache.hits"] += 1
            return
        counts["curve.implicit_cache.misses"] += 1
        counts["poly.implicit_terms"] += len(result.terms)
        bits = max(
            max(abs(c.re.numerator).bit_length(), abs(c.im.numerator).bit_length())
            for c in result.terms.values()
        )
        counts["poly.implicit_coeff_bits"] = max(counts["poly.implicit_coeff_bits"], bits)


class _Count(spans.Hook):
    """Adds ``measure(result)`` to a counter."""

    def __init__(self, counter: str, measure) -> None:
        self.counter, self.measure = counter, measure

    def after(self, counts, args, result, state):
        counts[self.counter] += self.measure(result)


class _MeshSample(spans.Hook):
    def after(self, counts, args, result, state):
        counts["mesh.vertices"] += len(result.vertices)
        counts["mesh.triangles"] += len(result.triangles)


class _ExportBytes(spans.Hook):
    """Bytes written by ``export_obj``, from the sink position."""

    def before(self, args):
        tell = getattr(args[1], "tell", None)
        return tell() if tell else None

    def after(self, counts, args, result, before):
        if before is not None:
            counts["mesh.obj_bytes"] += args[1].tell() - before


class _IncidenceKind(spans.Hook):
    def after(self, counts, args, result, state):
        counts[f"surface.incidence_kind.{result.kind}"] += 1


def _import_chsurf():
    import chsurf
    import chsurf.cli
    import chsurf.congruence
    import chsurf.curve
    import chsurf.mesh
    import chsurf.poly
    import chsurf.surface
    import chsurf.verify

    return chsurf


def _install_tracing(chsurf) -> spans.Recorder:
    recorder = spans.Recorder()
    hooks = {
        "curve.implicit_equation": _ImplicitCache(chsurf.curve.implicit_equation),
        "surface.singular_circles": _Count("surface.singular_circles.found", len),
        "surface.zero_circle_parameters": _Count("surface.zero_circle_parameters.found", len),
        "surface.incidence_type": _IncidenceKind(),
        "mesh.sample": _MeshSample(),
        "mesh.export_obj": _ExportBytes(),
    }
    modules = [
        chsurf.poly,
        chsurf.curve,
        chsurf.congruence,
        chsurf.surface,
        chsurf.mesh,
        chsurf.verify,
        chsurf.cli,
        chsurf,
    ]
    spans.install(recorder, modules, hooks)
    return recorder


def run_job(job: dict, workdir: str) -> dict:
    chsurf = _import_chsurf()
    recorder = _install_tracing(chsurf) if job["trace"] else None
    workload = cases.make_workload(job["workload"], chsurf, workdir)

    latencies, probes, problems = [], [], []
    attempted = failed = batches = 0
    started = time.perf_counter()
    while batches < job["max_batches"]:
        elapsed = time.perf_counter() - started
        if batches >= job["min_batches"] and elapsed * (batches + 1) / batches > job["seconds"]:
            break
        for case in workloads.batch(job["workload"], job["seed"], batches):
            attempted += 1
            if recorder:
                recorder.case = case["id"]
            try:
                state = workload.prepare(case)
                before = speed_probe()
                start = time.perf_counter()
                raw = workload.run(state)
                elapsed = time.perf_counter() - start
                after = speed_probe()
                latencies.append(elapsed)
                probes.append((before, after))
                found = workload.check(case, workload.collect(state, raw))
            except Exception:  # a raising case is a failed case; the run goes on
                found = [traceback.format_exc(limit=3)]
            if found:
                failed += 1
                if len(problems) < MAX_PROBLEMS:
                    problems.append({"case": case, "problems": found})
        batches += 1
    wall = time.perf_counter() - started

    result = {
        "workload": job["workload"],
        "batches": batches,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "latencies_s": latencies,
        "probes_s": probes,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "chsurf_file": chsurf.__file__,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
    }
    if recorder:
        result["span_table"] = spans.summarize(recorder.spans)
        result["top_level_s"] = spans.top_level_seconds(recorder.spans)
        result["counts"] = dict(recorder.counts)
    return result


def main() -> int:
    job = json.load(sys.stdin)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with tempfile.TemporaryDirectory(prefix="bench-", dir=os.path.join(root, ".bench_work")) as workdir:
        result = run_job(job, workdir)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
