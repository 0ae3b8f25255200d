"""Metric names, percentile rule and the result line.

End-to-end metrics are reported by every workload (the result line of
an untraced run carries each of them), so each is defined to hold on
all three workloads.  Per-layer metrics come from the traced run; a
layer a workload does not touch reads 0 there.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.workloads import TRAIN_KINDS

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: (name, unit, better, bound): the regression bound is the share of the
#: parent's median a metric may worsen by before a change is rejected
E2E: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sim_batches_per_s", "1/s", "higher", 0.2),
    ("jobs_per_s", "1/s", "higher", 0.2),
)
E2E_UNITS = {name: unit for name, unit, _, _ in E2E}

#: backend modes timed per layer (``analytic`` has no DES drive)
MODES = ("event", "sharded", "async", "gids", "distributed", "analytic")
DES_MODES = MODES[:-1]

#: phases each backend reports in ``PipelineResult.phase_means``
PHASES = {
    "event": ("neighbor_sampling", "feature_lookup", "cpu_to_gpu",
              "gnn_training"),
    "sharded": ("neighbor_sampling", "feature_lookup", "remote_fetch",
                "cpu_to_gpu", "gnn_training"),
    "distributed": ("neighbor_sampling", "feature_lookup", "remote_fetch",
                    "remote_sampling", "feature_pull", "cpu_to_gpu",
                    "gnn_training", "grad_allreduce"),
}


def kind_phases(kind: str) -> Sequence[str]:
    mode = TRAIN_KINDS[kind][1].get("mode", "event")
    return PHASES.get(mode, PHASES["event"])


def _layer_metrics() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric."""
    low = [
        ("graph.dataset_ms", "ms"), ("graph.datasets_built", "count"),
        ("graph.csr_ms", "ms"),
        ("gnn.workloads_ms", "ms"),
        ("core.build_ms", "ms"), ("core.builds", "count"),
        ("core.warm_ms", "ms"),
    ]
    low += [(f"pipeline.run_ms.{m}", "ms") for m in MODES]
    low += [(f"pipeline.plan_ms.{m}", "ms") for m in MODES]
    low += [(f"sim.drive_ms.{m}", "ms") for m in DES_MODES]
    low += [(f"sim.events.{m}", "count") for m in DES_MODES]
    low += [
        ("sim.us_per_event", "us"), ("sim.sampling_ms", "ms"),
        ("api.batcheval.groups", "count"),
        ("api.batcheval.phase_costs_ms", "ms"),
        ("pipeline.analytic.combine_ms", "ms"),
        ("service.submit_ms", "ms"), ("service.store_get_ms", "ms"),
    ]
    out = [(name, unit, "lower") for name, unit in low]
    out += [
        ("service.store_hits", "count", "higher"),
        ("service.store_puts", "count", "lower"),
        ("service.queue_wait_ms_p50", "ms", "lower"),
        ("service.worker_util", "fraction", "higher"),
        ("service.queue_depth_mean", "count", "lower"),
    ]
    for kind, (call, _, _) in TRAIN_KINDS.items():
        if call == "sampling":
            out.append(
                (f"simtime.sampling_batches_per_s.{kind}", "1/s", "higher"))
            continue
        out.append((f"simtime.elapsed_s.{kind}", "s", "lower"))
        out.append((f"simtime.gpu_idle_frac.{kind}", "fraction", "lower"))
        out += [(f"simtime.{p}_ms.{kind}", "ms", "lower")
                for p in kind_phases(kind)]
    out += [
        ("cache.gpu_hit_rate", "fraction", "higher"),
        ("storage.bar_bytes", "B", "lower"),
        ("net.bytes", "B", "lower"),
        ("net.rpc_calls", "count", "lower"),
        ("distributed.remote_bytes", "B", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_sim_batches_per_s", "fraction", "lower"),
        ("trace.overhead_jobs_per_s", "fraction", "lower"),
    ]
    return out


#: every per-layer metric (name, unit, better), in report order
LAYER: Tuple[Tuple[str, str, str], ...] = tuple(_layer_metrics())
LAYER_UNITS = {name: unit for name, unit, _ in LAYER}


def tail_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` unless at least ten samples
    lie beyond it (a percentile resting on fewer is not reported)."""
    if not samples:
        return None
    value = float(np.percentile(np.asarray(samples, dtype=float), q))
    beyond = sum(1 for s in samples if s > value)
    return value if beyond >= 10 else None


def check_names(names) -> None:
    bad = [n for n in names if not NAME_RE.fullmatch(n)]
    if bad:
        raise ValueError(f"malformed metric names: {bad}")


def result_line(
    attempted: int, failed: int, values: Dict[str, float],
    units: Dict[str, str],
) -> str:
    """The one-line JSON result the benchmark prints last."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise ValueError(f"metrics not measured: {missing}")
    check_names(values)
    return json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    })
