"""Seeded input generators for the three benchmark workloads.

Nothing here imports chsurf or touches a clock: a generator turns
``(seed, batch index)`` into plain JSON-able case records, and the worker
calls it before it starts timing a batch.  The same seed always yields the
same cases.

Every batch of a workload has the same size and the same cost strata, so
runs with different seeds measure comparable amounts of work:

- ``table1-grid``: one spec per ``(n + d, a)`` cell of the 275-spec grid
  (80 cells).  Within a stratum ``n + d`` the coprime pairs are dealt to the
  five ``a`` values from a seeded permutation, so both table branches
  (``d < n`` and ``d > n``) appear in every batch.
- ``surface-queries``: one query from each cost stratum of each of the
  five ``q`` values (40 queries).  The strata partition a fixed pool of
  ``POOL_PER_Q`` queries per ``q``, ranked by the cost measured when the
  references were recorded; references exist only for pool members.
- ``figures``: all 22 presets at their own grid size plus one seeded preset
  of each of the 7 families (3 to 9) at twice the grid in both directions,
  in seeded order.  The 1x cases are the same set for every seed, which
  keeps the median steady; the 2x cases set the tail.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")

WORKLOADS = ("table1-grid", "surface-queries", "figures")

GRID_MAX_ND = 9
GRID_A_VALUES = ("0", "1/4", "1/2", "1", "5/2")

# Surface query pool.  The pool is generated once from POOL_SEED and every
# member has a recorded reference; a workload seed only chooses among them.
POOL_SEED = 20130513
Q_VALUES = ("-9/4", "-1", "0", "1/4", "1")
POOL_PER_Q = 32
STRATUM_SIZE = 4  # a batch takes one query from each cost stratum of each q
LATTICE = tuple(Fraction(k, 2) for k in range(-4, 5))  # -2, -3/2, ..., 2
HEIGHTS = tuple(Fraction(k, 2) for k in range(-2, 3))  # -1, ..., 1


def _rat(value: Fraction) -> str:
    return str(Fraction(value))


def _workload_rng(workload: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{batch}")


# -- table1-grid -----------------------------------------------------------------


def grid_strata() -> Dict[int, List[tuple]]:
    """Coprime ``(n, d)`` pairs with ``n, d <= 9``, keyed by ``n + d``."""
    strata: Dict[int, List[tuple]] = {}
    for n in range(1, GRID_MAX_ND + 1):
        for d in range(1, GRID_MAX_ND + 1):
            if math.gcd(n, d) == 1:
                strata.setdefault(n + d, []).append((n, d))
    return strata


def table1_batch(seed: int, batch: int) -> List[dict]:
    rng = _workload_rng("table1-grid", seed, batch)
    cases = []
    for total, pairs in sorted(grid_strata().items()):
        dealt = rng.sample(pairs, len(pairs))
        offset = rng.randrange(len(dealt))
        for k, a in enumerate(GRID_A_VALUES):
            n, d = dealt[(offset + k) % len(dealt)]
            cases.append({"n": n, "d": d, "a": a})
    rng.shuffle(cases)
    for index, case in enumerate(cases):
        case["slope_seed"] = rng.randrange(1 << 30)
        case["id"] = f"b{batch}c{index}"
    return cases


# -- surface-queries ---------------------------------------------------------------


def _coprime_pairs() -> List[tuple]:
    return [pair for pairs in grid_strata().values() for pair in pairs]


def _square_root(value: Fraction):
    """Rational square root of a non-negative rational, or None."""
    if value < 0:
        return None
    num, den = math.isqrt(value.numerator), math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


def _pool_query(rng: random.Random, q: Fraction) -> dict:
    n, d = rng.choice(_coprime_pairs())
    a = Fraction(rng.choice(GRID_A_VALUES))
    placement = rng.random()
    if placement < 0.3:
        cx = cy = Fraction(0)  # pole on the axis: incidence kinds 1 and 2
    elif placement < 0.55 and (1 + a) in LATTICE:
        # Lattice point that puts the petal tip at phi = 0 on the axis.
        cx, cy = -(1 + a), Fraction(0)
    else:
        cx, cy = rng.choice(LATTICE), rng.choice(LATTICE)
    root = _square_root(q)
    if root is not None and rng.random() < 0.5:
        h = root if rng.random() < 0.5 else -root  # curve plane through a base point
    else:
        h = rng.choice(HEIGHTS)
    return {
        "argv": [
            "surface-classify",
            f"--n={n}",
            f"--d={d}",
            f"--a={_rat(a)}",
            f"--q={_rat(q)}",
            f"--cx={_rat(cx)}",
            f"--cy={_rat(cy)}",
            f"--h={_rat(h)}",
        ]
    }


def surface_pool() -> Dict[str, List[dict]]:
    """The fixed query pool, keyed by q; query keys are unique."""
    rng = random.Random(POOL_SEED)
    pool: Dict[str, List[dict]] = {}
    seen = set()
    for q_text in Q_VALUES:
        q = Fraction(q_text)
        members = []
        while len(members) < POOL_PER_Q:
            query = _pool_query(rng, q)
            key = query_key(query)
            if key not in seen:
                seen.add(key)
                query["key"] = key
                members.append(query)
        pool[q_text] = members
    return pool


def query_key(query: dict) -> str:
    return " ".join(query["argv"])


def recorded_strata() -> Dict[tuple, List[dict]]:
    """Recorded pool members keyed by (q, cost stratum)."""
    with open(os.path.join(REFERENCE_DIR, "surface_queries.json")) as handle:
        queries = json.load(handle)["queries"]
    strata: Dict[tuple, List[dict]] = {}
    for query in queries:
        strata.setdefault((query["q"], query["stratum"]), []).append(query)
    return strata


def surface_batch(seed: int, batch: int) -> List[dict]:
    rng = _workload_rng("surface-queries", seed, batch)
    cases = []
    for _, members in sorted(recorded_strata().items()):
        query = rng.choice(sorted(members, key=query_key))
        cases.append({"argv": list(query["argv"]), "key": query["key"]})
    rng.shuffle(cases)
    for index, case in enumerate(cases):
        case["id"] = f"b{batch}c{index}"
    return cases


# -- figures --------------------------------------------------------------------------


def figure_sizes() -> Dict[str, dict]:
    """Preset grid sizes, as recorded with the OBJ references."""
    with open(os.path.join(REFERENCE_DIR, "figures.json")) as handle:
        return json.load(handle)["presets"]


def figures_batch(seed: int, batch: int) -> List[dict]:
    rng = _workload_rng("figures", seed, batch)
    presets = figure_sizes()
    keys = sorted(presets)
    families = sorted({key[0] for key in keys})
    doubled = [rng.choice([key for key in keys if key[0] == family]) for family in families]
    runs = [(key, 1) for key in keys] + [(key, 2) for key in doubled]
    rng.shuffle(runs)
    cases = []
    for index, (key, mult) in enumerate(runs):
        size = presets[key]
        cases.append(
            {
                "argv": [
                    "figure",
                    key,
                    f"--nt={size['nt'] * mult}",
                    f"--ntheta={size['ntheta'] * mult}",
                ],
                "preset": key,
                "mult": mult,
                "id": f"b{batch}c{index}",
            }
        )
    return cases


BATCHES = {
    "table1-grid": table1_batch,
    "surface-queries": surface_batch,
    "figures": figures_batch,
}


def batch(workload: str, seed: int, index: int) -> List[dict]:
    """Cases of batch ``index`` of a workload for a seed."""
    return BATCHES[workload](seed, index)
