"""The three workloads: set-up, fixed timed work, correctness checks.

Each runner's :meth:`setup` is timed into ``setup_s`` by the caller;
:meth:`work` runs the fixed work and returns an :class:`Outcome`;
:meth:`traced` repeats set-up and work under the span tracer for the
per-layer numbers.  End-to-end figures come only from :meth:`work`
runs made without a tracer.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api.batcheval import evaluate_sessions
from repro.api.cache import canonical_json
from repro.api.session import Session
from repro.api.spec import RunSpec
from repro.service.server import CampaignService
from repro.service.store import make_record, record_bytes, result_to_dict
from repro.service.worker import (
    evaluate_and_store,
    evaluate_batch_and_store,
    evaluate_spec_dict,
)

from perfbench import workloads as wl
from perfbench.hostclock import RefClock
from perfbench.metrics import kind_phases, tail_percentile
from perfbench.paper import paper_log_err
from perfbench.trace import Tracer, instrument

#: grid points / jobs whose results are re-derived by the scalar path
CHECK_SAMPLE = 8


@dataclass
class Outcome:
    """What one pass of a workload's fixed work produced."""

    #: reference seconds (``RefClock``) of the timed work
    timed_s: float
    results: int
    sim_batches: int
    attempted: int
    failed: int
    errors: List[str] = field(default_factory=list)
    #: deterministic simulated statistics (traced == untraced check)
    sim_stats: object = None
    #: per-layer values the pass knows directly (not from spans)
    layer: Dict[str, float] = field(default_factory=dict)
    #: workload-specific figures for the human-readable report
    report: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    @property
    def e2e(self) -> Dict[str, float]:
        timed = self.timed_s if self.timed_s > 0 else float("inf")
        return {
            "sim_batches_per_s": self.sim_batches / timed,
            "jobs_per_s": self.results / timed,
        }


#: paper ratio -> (numerator kind, denominator kind) among train-des runs
TRAIN_RATIOS = (
    ("fig18.hwsw_vs_mmap", "event-ssd-mmap", "event-smartsage-hwsw"),
    ("fig18.pmem_vs_dram", "event-pmem", "event-dram"),
    ("fig16.hwsw_vs_mmap", "sampling-smartsage-hwsw", "sampling-ssd-mmap"),
)


def _headline(value) -> float:
    """Simulated elapsed seconds of a run, or a sampling throughput."""
    return value["elapsed_s"] if isinstance(value, dict) else value


def _digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


class Runner:
    name = ""

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def work(self, state, tracer: Optional[Tracer] = None) -> Outcome:
        raise NotImplementedError

    def close(self, state) -> None:
        pass

    def traced(self, tracer: Tracer) -> Outcome:
        with instrument(tracer):
            with tracer.span("setup"):
                state = self.setup()
            try:
                return self.work(state, tracer)
            finally:
                self.close(state)


class _SharedPool(Runner):
    """Set-up shared by train-des and sweep-analytic: one dataset and
    one workload pool, materialized through a ``Session``."""

    base: dict = {}

    def setup(self):
        session = Session(RunSpec.from_dict(dict(self.base)))
        return session.dataset, session.workloads


class TrainDES(_SharedPool):
    """train-des: a fixed list of long event-driven ``Session`` runs."""

    name = "train-des"
    base = wl.TRAIN_BASE

    def work(self, state, tracer=None) -> Outcome:
        dataset, pool = state
        ops = wl.train_ops(self.seed, self.seconds)
        specs = {k: RunSpec.from_dict(wl.train_spec(k)) for k in wl.TRAIN_KINDS}
        seen: Dict[str, List[object]] = {k: [] for k in wl.TRAIN_KINDS}
        out = Outcome(0.0, 0, 0, len(ops) + len(specs), 0)
        clock = RefClock()

        def run(kind, spec):
            session = Session(spec, dataset=dataset, workloads=pool)
            if wl.TRAIN_KINDS[kind][0] == "run":
                return result_to_dict(session.run())
            return session.sampling_throughput(
                n_workers=spec.n_workers, n_batches=spec.n_batches
            )

        for kind in ops:
            spec = specs[kind]
            try:
                value = clock.time(lambda: run(kind, spec))
            except Exception as exc:  # counted, the run list goes on
                out.fail(f"{kind}: {exc!r}")
                continue
            out.results += 1
            out.sim_batches += spec.n_batches
            seen[kind].append(value)
        first = {}
        for kind, values in seen.items():
            if not values or any(
                canonical_json(v) != canonical_json(values[0]) for v in values
            ):
                out.fail(f"{kind}: results differ between repetitions")
                continue
            first[kind] = values[0]
        out.sim_stats = first
        out.layer = self._layer_stats(first)
        ratios = {
            name: _headline(first[num]) / _headline(first[den])
            for name, num, den in TRAIN_RATIOS
            if num in first and den in first
        }
        out.timed_s = clock.ref_s
        out.report = {"ratios": ratios, "paper_log_err": paper_log_err(ratios),
                      "repetitions": wl.train_reps(self.seconds),
                      "host_s": clock.raw_s}
        return out

    @staticmethod
    def _layer_stats(first: Dict[str, object]) -> Dict[str, float]:
        layer: Dict[str, float] = {}
        for kind, value in first.items():
            if not isinstance(value, dict):
                layer[f"simtime.sampling_batches_per_s.{kind}"] = value
                continue
            layer[f"simtime.elapsed_s.{kind}"] = value["elapsed_s"]
            layer[f"simtime.gpu_idle_frac.{kind}"] = value["gpu_idle_fraction"]
            for phase in kind_phases(kind):
                layer[f"simtime.{phase}_ms.{kind}"] = (
                    1e3 * value["phase_means"].get(phase, 0.0)
                )
        stats = {k: v["backend_stats"] for k, v in first.items()
                 if isinstance(v, dict)}
        gids, dist = stats.get("gids", {}), stats.get("distributed", {})
        layer["cache.gpu_hit_rate"] = gids.get("gpu_cache_hit_rate", 0.0)
        layer["storage.bar_bytes"] = gids.get("bar_bytes", 0.0)
        layer["net.bytes"] = dist.get("net_bytes", 0.0)
        layer["net.rpc_calls"] = dist.get("net_rpc_calls", 0.0)
        layer["distributed.remote_bytes"] = dist.get("remote_bytes", 0.0)
        return layer


class SweepAnalytic(_SharedPool):
    """sweep-analytic: one large grid through ``evaluate_sessions``."""

    name = "sweep-analytic"
    base = wl.SWEEP_BASE

    def work(self, state, tracer=None) -> Outcome:
        dataset, pool = state
        grid = wl.sweep_grid(self.seed)
        passes = wl.sweep_passes(self.seconds)
        out = Outcome(0.0, 0, 0, 0, 0)
        reference: Optional[List[dict]] = None
        clock = RefClock()

        def answer_grid():
            return evaluate_sessions(
                [Session(d, dataset=dataset, workloads=pool) for d in grid]
            )

        for _ in range(passes):
            out.attempted += len(grid)
            try:
                results = clock.time(answer_grid)
            except Exception as exc:  # the whole pass is lost
                out.failed += len(grid)
                out.errors.append(f"grid pass: {exc!r}")
                continue
            out.results += len(results)
            out.sim_batches += sum(r.n_batches for r in results)
            answer = [result_to_dict(r) for r in results]
            if reference is None:
                reference = answer
                continue
            out.attempted += 1
            if answer != reference:
                out.fail("grid results differ between passes")
        out.timed_s = clock.ref_s
        if reference is None:
            return out
        rng = random.Random(self.seed)
        out.attempted += CHECK_SAMPLE
        for i in rng.sample(range(len(grid)), CHECK_SAMPLE):
            scalar = Session(grid[i], dataset=dataset, workloads=pool).run()
            if canonical_json(result_to_dict(scalar)) != canonical_json(
                reference[i]
            ):
                out.fail(f"grid point {i}: batched != scalar Session.run")
        out.sim_stats = _digest(reference)
        ratios = self._ratios(grid, reference)
        out.report = {"ratios": ratios, "paper_log_err": paper_log_err(ratios),
                      "points_per_s": out.e2e["jobs_per_s"],
                      "passes": passes, "grid_points": len(grid),
                      "host_s": clock.raw_s}
        return out

    @staticmethod
    def _ratios(grid, results) -> Dict[str, float]:
        at = {}
        for spec, result in zip(grid, results):
            if spec["system"]["host_cache_frac"] == 0.15:
                at[(spec["system"]["design"], spec["n_workers"])] = result
        samp = {d: r["phase_means"]["neighbor_sampling"]
                for (d, w), r in at.items() if w == 1}
        e2e = {d: r["elapsed_s"] for (d, w), r in at.items() if w == 12}
        return {
            "fig14.sw_vs_mmap": samp["ssd-mmap"] / samp["smartsage-sw"],
            "fig14.hwsw_vs_mmap": samp["ssd-mmap"] / samp["smartsage-hwsw"],
            "fig18.hwsw_vs_mmap": e2e["ssd-mmap"] / e2e["smartsage-hwsw"],
            "fig18.pmem_vs_dram": e2e["pmem"] / e2e["dram"],
        }


def _pool_size() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def check_store_records(store, jobs, seed: int, sample: int = CHECK_SAMPLE):
    """Re-derive a seeded sample of stored records in-process.

    Returns the keys whose on-disk bytes differ from
    ``record_bytes(make_record(key, spec, evaluate_spec_dict(spec)))``.
    """
    firsts = {}
    for job in jobs:
        if job.source in ("computed", "batch"):
            firsts.setdefault(job.key, job)
    keys = sorted(firsts)
    picked = random.Random(seed).sample(keys, min(sample, len(keys)))
    bad = []
    for key in picked:
        job = firsts[key]
        want = record_bytes(
            make_record(key, job.spec, evaluate_spec_dict(job.spec))
        )
        with open(store.path_for(key), "rb") as f:
            if f.read() != want:
                bad.append(key)
    return picked, bad


class ServeSpecs(Runner):
    """serve-specs: a whole seeded trace through ``CampaignService``."""

    name = "serve-specs"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.workers = _pool_size()
        self.computed_specs: List[dict] = []
        self._n = 0

    def setup(self):
        self._n += 1
        state_dir = os.path.join(self.workdir, f"service-{self._n}")
        shutil.rmtree(state_dir, ignore_errors=True)
        service = CampaignService(state_dir, workers=self.workers,
                                  executor="process")
        for spec in wl.serve_warm_specs(self.workers):
            service.submit(spec)
        service.drain()
        return service

    def close(self, service) -> None:
        service.close()
        shutil.rmtree(service.state_dir, ignore_errors=True)

    def work(self, service, tracer=None) -> Outcome:
        trace = wl.serve_trace(self.seed, self.seconds)
        out = Outcome(0.0, 0, 0, len(trace), 0)
        jobs = []

        def submit_and_drain():
            for spec in trace:
                if tracer is None:
                    jobs.append(service.submit(spec))
                else:
                    with tracer.span("service.submit"):
                        jobs.append(service.submit(spec))
            return service.drain()

        # the probes run while the pool is idle, before and after
        clock = RefClock()
        report = clock.time(submit_and_drain)
        out.timed_s = clock.ref_s
        sources: Dict[str, int] = {}
        latencies = []
        for job in jobs:
            if job.state != "done":
                out.fail(f"{job.job_id}: {job.state} {job.error}")
                continue
            out.results += 1
            sources[job.source] = sources.get(job.source, 0) + 1
            if job.source in ("computed", "batch"):
                out.sim_batches += job.spec["n_batches"]
            if job.source == "computed" and job.spec["mode"] != "analytic":
                latencies.append(1e3 * (job.finished_at - job.started_at))
        picked, bad = check_store_records(service.store, jobs, self.seed)
        out.attempted += len(picked)
        for key in bad:
            out.fail(f"store record {key} differs from in-process result")
        keys = sorted({job.key for job in jobs if job.state == "done"})
        stored = {}
        for key in keys:
            with open(service.store.path_for(key), "rb") as f:
                stored[key] = f.read()
        out.sim_stats = stored
        served = sources.get("store", 0) + sources.get("coalesced", 0)
        waits = [1e3 * (j.started_at - j.submitted_at) for j in jobs
                 if j.started_at is not None]
        out.layer = {
            "service.store_hits": service.store.hits,
            "service.store_puts": len(keys),
            "service.queue_wait_ms_p50": (
                statistics.median(waits) if waits else 0.0),
            "service.worker_util": report.worker_utilization,
            "service.queue_depth_mean": report.queue_depth_mean,
        }
        out.report = {
            "served_frac": served / max(1, out.results),
            "sources": sources,
            "job_ms_p50": tail_percentile(latencies, 50),
            "job_ms_p90": tail_percentile(latencies, 90),
            "job_ms_samples": len(latencies),
            "host_s": clock.raw_s,
        }
        self.computed_specs = [
            j.spec for j in jobs if j.source in ("computed", "batch")
        ]
        return out

    def traced(self, tracer: Tracer) -> Outcome:
        """Service-side layers from a traced drain; worker-side layers
        (graph/gnn/core/pipeline) from replaying the drain's computed
        specs in-process, since pool workers are separate processes."""
        with tracer.span("setup"):
            service = self.setup()
        store_get = service.store.get

        def traced_get(key):
            with tracer.span("service.store_get"):
                return store_get(key)

        service.store.get = traced_get
        try:
            out = self.work(service, tracer)
        finally:
            self.close(service)
        specs = self.computed_specs
        scalar = [s for s in specs if s["mode"] != "analytic"]
        batched = [s for s in specs if s["mode"] == "analytic"]
        with instrument(tracer), tracer.span("service.replay"):
            for spec in scalar:
                evaluate_and_store(spec, None)
            if batched:
                evaluate_batch_and_store(batched, None)
        return out


RUNNERS = {r.name: r for r in (TrainDES, ServeSpecs, SweepAnalytic)}
