"""Seeded input generators for the three workloads.

Everything here is plain data -- run-spec dicts and operation lists --
so the program under test receives only generated inputs, and the same
``seed`` always yields the same inputs.  Work is sized from the
``seconds`` argument by fixed constants, never by the clock, so the
amount and mix of work never depends on how fast the host happens to be.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: host seconds one repetition of the train-des run list takes on a
#: 2-CPU container (sizing constant, not a measurement made at run time)
TRAIN_REP_S = 1.6
#: host seconds one sweep-analytic grid pass takes (same hardware)
SWEEP_PASS_S = 1.2
#: distinct specs per (dataset, template) cell per second of run time
SERVE_SPECS_PER_CELL_PER_S = 0.8

# -- train-des ---------------------------------------------------------------

#: the fixed train-des base run: one reddit dataset and workload pool at
#: the default RunSpec scale, 60-batch event-driven runs
TRAIN_BASE = {"dataset": "reddit", "seed": 0, "n_batches": 60}

#: run kind -> (call, run-spec overrides, system-spec overrides).  The
#: ``sampling`` kinds are the Fig 16 measurement (12 sampling-only
#: workers), the source of that figure's paper ratio.
TRAIN_KINDS: Dict[str, Tuple[str, dict, dict]] = {
    "event-dram": ("run", {"mode": "event"}, {"design": "dram"}),
    "event-pmem": ("run", {"mode": "event"}, {"design": "pmem"}),
    "event-ssd-mmap": ("run", {"mode": "event"}, {"design": "ssd-mmap"}),
    "event-smartsage-sw": (
        "run", {"mode": "event"}, {"design": "smartsage-sw"}),
    "event-smartsage-hwsw": (
        "run", {"mode": "event"}, {"design": "smartsage-hwsw"}),
    "sharded": (
        "run", {"mode": "sharded"},
        {"design": "smartsage-hwsw", "n_shards": 2}),
    "async": ("run", {"mode": "async"}, {"design": "smartsage-hwsw"}),
    "gids": ("run", {"mode": "gids"}, {"design": "gids-cached"}),
    "distributed": (
        "run", {"mode": "distributed"},
        {"design": "smartsage-hwsw", "n_hosts": 2, "n_shards": 2}),
    "sampling-ssd-mmap": (
        "sampling", {"n_workers": 12, "n_batches": 36},
        {"design": "ssd-mmap"}),
    "sampling-smartsage-hwsw": (
        "sampling", {"n_workers": 12, "n_batches": 36},
        {"design": "smartsage-hwsw"}),
}


def train_spec(kind: str) -> dict:
    """The run-spec dict of one train-des run kind."""
    _, run_over, sys_over = TRAIN_KINDS[kind]
    return {**TRAIN_BASE, **run_over, "system": dict(sys_over)}


def train_reps(seconds: float) -> int:
    return max(1, round(seconds / TRAIN_REP_S))


def train_ops(seed: int, seconds: float) -> List[str]:
    """The fixed run list: every kind once per repetition, each
    repetition in its own seeded order."""
    rng = random.Random(seed)
    ops: List[str] = []
    for _ in range(train_reps(seconds)):
        kinds = list(TRAIN_KINDS)
        rng.shuffle(kinds)
        ops.extend(kinds)
    return ops


# -- serve-specs -------------------------------------------------------------

SERVE_DATASETS = ("reddit", "movielens", "amazon")

#: (mode, system overrides, run overrides): the five event-driven
#: backends plus one analytic template, which the service batches
SERVE_TEMPLATES: Tuple[Tuple[str, dict, dict], ...] = (
    ("event", {"design": "ssd-mmap"}, {}),
    ("sharded", {"design": "smartsage-sharded", "n_shards": 2}, {}),
    ("async", {"design": "smartsage-hwsw"}, {"prefetch_depth": 3}),
    ("gids", {"design": "gids-cached"}, {"qp_depth": 32}),
    ("distributed",
     {"design": "smartsage-sharded", "n_shards": 2, "n_hosts": 2}, {}),
    ("analytic", {"design": "smartsage-sw"}, {}),
)

#: dataset seeds a cell draws its distinct specs from
SERVE_SEED_RANGE = 32
#: Zipf exponent of the repeat draws (a few hot specs dominate)
SERVE_ZIPF_A = 1.3


def serve_spec(dataset: str, template: int, seed: int) -> dict:
    mode, sys_over, run_over = SERVE_TEMPLATES[template]
    return {
        "dataset": dataset,
        "edge_budget": 1.5e5,
        "batch_size": 16,
        "n_workloads": 3,
        "seed": seed,
        "n_batches": 8,
        "n_workers": 2,
        "mode": mode,
        "system": dict(sys_over),
        **run_over,
    }


def serve_per_cell(seconds: float) -> int:
    return min(SERVE_SEED_RANGE,
               max(1, round(seconds * SERVE_SPECS_PER_CELL_PER_S)))


def serve_trace(seed: int, seconds: float) -> List[dict]:
    """A whole submission trace: every distinct spec once, plus as many
    Zipf-popular repeats, in seeded order.

    The number of distinct specs per (dataset, template) cell is fixed
    by ``seconds``, so every seed carries the same amount and mix of
    computation; the seed picks which dataset seeds, which specs are
    hot, and the submission order.
    """
    rng = random.Random(seed)
    per_cell = serve_per_cell(seconds)
    distinct = [
        serve_spec(dataset, t, s)
        for dataset in SERVE_DATASETS
        for t in range(len(SERVE_TEMPLATES))
        for s in sorted(rng.sample(range(SERVE_SEED_RANGE), per_cell))
    ]
    ranking = list(range(len(distinct)))
    rng.shuffle(ranking)
    weights = [1.0 / (r + 1) ** SERVE_ZIPF_A for r in range(len(ranking))]
    repeats = rng.choices(ranking, weights=weights, k=len(distinct))
    trace = distinct + [distinct[i] for i in repeats]
    rng.shuffle(trace)
    return trace


def serve_warm_specs(n: int) -> List[dict]:
    """One tiny spec per pool worker, disjoint from every trace spec."""
    return [
        {"dataset": "amazon", "edge_budget": 2e4, "batch_size": 8,
         "n_workloads": 3, "seed": 1000 + i, "n_batches": 2,
         "n_workers": 1, "mode": "event"}
        for i in range(n)
    ]


# -- sweep-analytic ----------------------------------------------------------

SWEEP_BASE = {"dataset": "reddit", "seed": 0, "n_batches": 60,
              "mode": "analytic"}
SWEEP_DESIGNS = ("dram", "pmem", "ssd-mmap", "smartsage-sw",
                 "smartsage-hwsw", "smartsage-oracle")
#: host cache fractions: each (design, fraction) is one cost group
SWEEP_CACHE_FRACS = tuple(round(0.03 * i, 2) for i in range(1, 17))
#: worker counts: the free axis every cost group is vectorized over
SWEEP_WORKERS = tuple(range(1, 49))


def sweep_passes(seconds: float) -> int:
    return max(1, round(seconds / SWEEP_PASS_S))


def sweep_grid(seed: int) -> List[dict]:
    """The designs x host_cache_frac x n_workers grid in seeded order."""
    grid = [
        {**SWEEP_BASE, "n_workers": w,
         "system": {"design": d, "host_cache_frac": f}}
        for d in SWEEP_DESIGNS
        for f in SWEEP_CACHE_FRACS
        for w in SWEEP_WORKERS
    ]
    random.Random(seed).shuffle(grid)
    return grid
