"""chsurf benchmark: one command, every metric by name with its unit.

    python3 bench/run.py --workload table1-grid --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workloads are described in
``bench/NOTES.md``; each runs in its own fresh interpreter (``worker.py``),
single-threaded, against the sources under ``src/``.  Every output is
checked against the closed-form tables or the recorded references before a
metric is reported.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median import
time of ``chsurf.cli`` in a fresh interpreter), ``cases_per_s``,
``case_p50_ms``, ``case_tail_ms``, ``peak_rss_mb``.  Times are rescaled to
the reference host speed of ``probe.py``; the values as measured are
printed too.  ``--trace 1`` runs the first batch of the seed twice,
untraced and traced, and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from probe import at_reference_speed  # noqa: E402

# Timed imports of chsurf.cli, half before and half after the workload, so
# that they sample the machine at both ends of the run.
SETUP_IMPORTS = 12
MIN_BATCHES = 2
MAX_BATCHES = 200
CHILD_TIMEOUT_S = 160
BATCH_CASES = {"table1-grid": 80, "surface-queries": 40, "figures": 29}


def tail_percentile(workload: str) -> int:
    """Highest whole percentile with at least ten cases beyond it.

    Fixed per workload from the fewest cases a run can have, so every run
    of a workload reports the same percentile.
    """
    guaranteed = BATCH_CASES[workload] * MIN_BATCHES
    return math.floor(100 * (1 - 10 / guaranteed))


END_TO_END = (
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("case_p50_ms", "ms"),
    ("case_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, where the value comes from)
PER_LAYER = (
    ("poly.substitute.self_s", "s", ("self", "poly.substitute")),
    ("poly.substitute.calls", "count", ("calls", "poly.substitute")),
    ("poly.mul.calls", "count", ("calls", "poly.mul")),
    ("poly.primitive.self_s", "s", ("self", "poly.primitive")),
    ("poly.lowest_form.self_s", "s", ("self", "poly.lowest_form")),
    ("poly.implicit_terms", "count", ("count", "poly.implicit_terms")),
    ("poly.implicit_coeff_bits", "bits", ("count", "poly.implicit_coeff_bits")),
    ("curve.absolute_point_multiplicity.self_s", "s", ("self", "curve.absolute_point_multiplicity")),
    ("curve.absolute_point_multiplicity.calls", "count", ("calls", "curve.absolute_point_multiplicity")),
    ("curve.verified_absolute_multiplicity.self_s", "s", ("self", "curve.verified_absolute_multiplicity")),
    ("curve.implicit_equation.self_s", "s", ("self", "curve.implicit_equation")),
    ("curve.implicit_equation.calls", "count", ("calls", "curve.implicit_equation")),
    ("curve.homogeneous_implicit.self_s", "s", ("self", "curve.homogeneous_implicit")),
    ("curve.tangent_cone.self_s", "s", ("self", "curve.tangent_cone")),
    ("curve.implicit_cache.hits", "count", ("count", "curve.implicit_cache.hits")),
    ("curve.implicit_cache.misses", "count", ("count", "curve.implicit_cache.misses")),
    ("curve.implicit_cache.hit_ratio", "ratio", ("hit_ratio", "curve.implicit_cache")),
    ("verify.max_scaled_residual.self_s", "s", ("self", "verify.max_scaled_residual")),
    ("surface.singular_circles.self_s", "s", ("self", "surface.singular_circles")),
    ("surface.singular_circles.found", "count", ("count", "surface.singular_circles.found")),
    ("surface.zero_circle_parameters.self_s", "s", ("self", "surface.zero_circle_parameters")),
    ("surface.zero_circle_parameters.found", "count", ("count", "surface.zero_circle_parameters.found")),
    ("surface.zero_circle_intersections.self_s", "s", ("self", "surface.zero_circle_intersections")),
    ("surface.classify.self_s", "s", ("self", "surface.classify")),
    ("surface.classify.calls", "count", ("calls", "surface.classify")),
    *(
        (f"surface.incidence_kind.{kind}", "count", ("count", f"surface.incidence_kind.{kind}"))
        for kind in range(1, 6)
    ),
    ("congruence.circle_through.self_s", "s", ("self", "congruence.circle_through")),
    ("congruence.circle_through.calls", "count", ("calls", "congruence.circle_through")),
    ("mesh.sample.self_s", "s", ("self", "mesh.sample")),
    ("mesh.export_obj.self_s", "s", ("self", "mesh.export_obj")),
    ("mesh.vertices", "count", ("count", "mesh.vertices")),
    ("mesh.triangles", "count", ("count", "mesh.triangles")),
    ("mesh.obj_bytes", "B", ("count", "mesh.obj_bytes")),
    ("mesh.export_bytes_per_s", "B/s", ("rate", "mesh.export_obj")),
    ("cli.run.self_s", "s", ("self", "cli.run")),
    ("bench.other_s", "s", ("bench", "other_s")),
    ("bench.untraced_cases_per_s", "1/s", ("bench", "untraced_cases_per_s")),
    ("bench.traced_cases_per_s", "1/s", ("bench", "traced_cases_per_s")),
    ("bench.tracing_overhead", "ratio", ("bench", "tracing_overhead")),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def check_checkout() -> None:
    needed = [os.path.join(SRC, "chsurf", "cli.py")]
    needed += [
        os.path.join(workloads.REFERENCE_DIR, name)
        for name in ("table1_implicit.json", "surface_queries.json", "figures.json")
    ]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        raise BenchError(
            "run from a chsurf checkout: missing " + ", ".join(os.path.relpath(p, ROOT) for p in missing)
        )


def time_imports(count: int) -> list:
    """Import times of chsurf.cli, each in a fresh interpreter, at reference speed."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "import_time.py")],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
        if done.returncode != 0:
            raise BenchError(f"importing chsurf.cli failed:\n{done.stderr}")
        raw, before, after = (float(v) for v in done.stdout.split())
        times.append((raw, at_reference_speed(raw, before, after)))
    return times


def run_worker(job: dict) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if done.returncode != 0:
        raise BenchError(f"worker failed for {job}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if os.path.dirname(os.path.dirname(result["chsurf_file"])) != SRC:
        raise BenchError(f"worker imported chsurf from {result['chsurf_file']}, not {SRC}")
    return result


def latencies(result: dict, rescale: bool = True) -> list:
    """Case latencies in seconds, at reference speed unless ``rescale`` is off."""
    if not result["latencies_s"]:
        raise BenchError(f"no case of {result['workload']} completed: {result['problems'][:1]}")
    if not rescale:
        return list(result["latencies_s"])
    return [
        at_reference_speed(raw, before, after)
        for raw, (before, after) in zip(result["latencies_s"], result["probes_s"])
    ]


def cases_per_s(result: dict, rescale: bool = True) -> float:
    times = latencies(result, rescale)
    return len(times) / sum(times)


def end_to_end(workload: str, result: dict, imports: list, rescale: bool = True) -> dict:
    times = sorted(latencies(result, rescale))
    percentile = tail_percentile(workload)
    tail = statistics.quantiles(times, n=100, method="inclusive")[percentile - 1]
    return {
        "setup_s": statistics.median(scaled if rescale else raw for raw, scaled in imports),
        "cases_per_s": len(times) / sum(times),
        "case_p50_ms": 1000 * statistics.median(times),
        "case_tail_ms": 1000 * tail,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    table, counts = traced["span_table"], traced["counts"]
    untraced_rate, traced_rate = cases_per_s(untraced), cases_per_s(traced)
    bench = {
        "other_s": traced["wall_s"] - traced["top_level_s"],
        "untraced_cases_per_s": untraced_rate,
        "traced_cases_per_s": traced_rate,
        "tracing_overhead": untraced_rate / traced_rate - 1,
    }
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    values = {}
    for name, _, (kind, key) in PER_LAYER:
        if kind == "self":
            values[name] = table.get(key, empty)["self_s"]
        elif kind == "calls":
            values[name] = table.get(key, empty)["calls"]
        elif kind == "count":
            values[name] = counts.get(key, 0)
        elif kind == "hit_ratio":
            hits, misses = counts.get(f"{key}.hits", 0), counts.get(f"{key}.misses", 0)
            values[name] = hits / (hits + misses) if hits + misses else 0.0
        elif kind == "rate":
            busy = table.get(key, empty)["total_s"]
            values[name] = counts.get("mesh.obj_bytes", 0) / busy if busy else 0.0
        else:
            values[name] = bench[key]
    return values


def print_span_table(traced: dict, limit: int = 15) -> None:
    rows = sorted(traced["span_table"].items(), key=lambda item: -item[1]["self_s"])
    print(f"traced spans by self time ({min(limit, len(rows))} of {len(rows)}):")
    for name, entry in rows[:limit]:
        print(f"  {name:44s} self {entry['self_s']:9.4f} s  total {entry['total_s']:9.4f} s  calls {entry['calls']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        check_checkout()
        os.makedirs(WORKDIR, exist_ok=True)
        job = {"workload": args.workload, "seed": args.seed, "trace": False}
        if args.trace:
            single = dict(job, seconds=0, min_batches=1, max_batches=1)
            untraced = run_worker(single)
            traced = run_worker(dict(single, trace=True))
            runs = [untraced, traced]
            metrics = per_layer(untraced, traced)
            units = {name: unit for name, unit, _ in PER_LAYER}
            print_span_table(traced)
        else:
            time_imports(1)  # may compile bytecode into src/
            imports = time_imports(SETUP_IMPORTS // 2)
            result = run_worker(dict(job, seconds=args.seconds, min_batches=MIN_BATCHES, max_batches=MAX_BATCHES))
            imports += time_imports(SETUP_IMPORTS - SETUP_IMPORTS // 2)
            runs = [result]
            metrics = end_to_end(args.workload, result, imports)
            units = dict(END_TO_END)
            percentile = tail_percentile(args.workload)
            print(f"case_tail_ms is p{percentile} over {len(result['latencies_s'])} cases in {result['batches']} batches")
            for name, value in end_to_end(args.workload, result, imports, rescale=False).items():
                print(f"as measured, before rescaling to reference speed: {name} = {value:.6g} {units[name]}")
    except (BenchError, subprocess.TimeoutExpired) as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    env = {
        "python": runs[0]["python"],
        "numpy": runs[0]["numpy"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
    }
    print("env " + json.dumps(env, sort_keys=True))
    for run in runs:
        for entry in run["problems"]:
            print(f"FAILED {json.dumps(entry['case'])}: {entry['problems']}")
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
