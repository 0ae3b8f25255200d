"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-des --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` repeats the
run under the span tracer and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a human-readable report.  The exit code is nonzero when
any operation or correctness check failed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("train-des", "serve-specs", "sweep-analytic")
#: set-up is repeated this many times per run, each in a fresh process,
#: and its median reported
SETUP_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: import and set up once, print the seconds it took, exit
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fresh_setup_s(args) -> float:
    """Process start to end of set-up, measured in a fresh interpreter
    so that imports are paid again."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _peak_rss_mb() -> float:
    """Largest RSS of this process and of any pool worker it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _print_report(workload, values, units, out, extra_title):
    print(f"== {workload} ({extra_title})")
    for name, value in values.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    for name, value in out.report.items():
        print(f"  {name:44s} {value}")
    frac = out.failed / max(1, out.attempted)
    print(f"  {'failed_frac':44s} {frac:14.6g} fraction "
          f"({out.failed} of {out.attempted})")
    for error in out.errors[:20]:
        print(f"  FAILED: {error}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import metrics
    from perfbench.hostclock import RefClock
    from perfbench.runners import RUNNERS
    from perfbench.trace import Tracer

    workdir = os.path.join(ROOT, ".perfbench_run",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = RUNNERS[args.workload](args.seed, args.seconds, workdir)
    try:
        if args.setup_only:
            state = runner.setup()
            print(json.dumps({"setup_s": time.perf_counter() - _T0}))
            runner.close(state)
            return 0
        clock = RefClock()
        setups, host_setups = [], []
        for _ in range(SETUP_REPEATS):
            host_setups.append(clock.time(lambda: _fresh_setup_s(args)))
            setups.append(host_setups[-1] * clock.scale)
        state = runner.setup()
        gc.collect()
        try:
            out = runner.work(state)
        finally:
            runner.close(state)
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": _peak_rss_mb(),
            **out.e2e,
        }
        units = metrics.E2E_UNITS
        out.report["setup_host_s"] = statistics.median(host_setups)
        attempted, failed = out.attempted, out.failed
        if args.trace:
            tracer = Tracer(f"{args.workload}-seed{args.seed}")
            gc.collect()
            traced = runner.traced(tracer)
            attempted += traced.attempted + 1
            failed += traced.failed
            if traced.sim_stats != out.sim_stats:
                traced.fail("traced simulated statistics differ "
                            "from the untraced run")
                failed += 1
            layer = {name: 0.0 for name in metrics.LAYER_UNITS}
            layer.update(_span_metrics(tracer))
            layer.update(traced.layer)
            for name, value in out.e2e.items():
                if traced.e2e[name] > 0:
                    layer[f"trace.overhead_{name}"] = (
                        value / traced.e2e[name] - 1.0
                    )
            _print_report(args.workload, values, units, out, "untraced")
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(
                out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
            out, values, units = traced, layer, metrics.LAYER_UNITS
            _print_report(args.workload, values, units, out, "traced")
        else:
            _print_report(args.workload, values, units, out, "untraced")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(metrics.result_line(attempted, failed, values, units))
    return 1 if failed else 0


def _span_metrics(tracer) -> dict:
    """Per-layer wall-clock figures read off the recorded spans."""
    from perfbench.metrics import DES_MODES, MODES

    v = {
        "graph.dataset_ms": tracer.total_ms("graph.dataset"),
        "graph.datasets_built": tracer.n_spans("graph.dataset"),
        "graph.csr_ms": tracer.total_ms("graph.csr"),
        "gnn.workloads_ms": tracer.total_ms("gnn.workloads"),
        "core.build_ms": tracer.total_ms("core.build"),
        "core.builds": tracer.n_spans("core.build"),
        "core.warm_ms": tracer.total_ms("core.warm"),
        "sim.sampling_ms": tracer.total_ms("sim.sampling"),
        "api.batcheval.groups": tracer.n_spans("api.batcheval.phase_costs"),
        "api.batcheval.phase_costs_ms": tracer.total_ms(
            "api.batcheval.phase_costs"),
        "pipeline.analytic.combine_ms": tracer.total_ms(
            "pipeline.analytic.combine"),
        "service.submit_ms": tracer.total_ms("service.submit"),
        "service.store_get_ms": tracer.total_ms("service.store_get"),
        "trace.spans": len(tracer.spans),
    }
    drive_ms = events = 0.0
    for mode in MODES:
        run = tracer.total_ms(f"pipeline.run.{mode}")
        drive = tracer.total_ms(f"sim.drive.{mode}")
        v[f"pipeline.run_ms.{mode}"] = run
        v[f"pipeline.plan_ms.{mode}"] = run - drive
        if mode in DES_MODES:
            v[f"sim.drive_ms.{mode}"] = drive
            v[f"sim.events.{mode}"] = tracer.counts[f"sim.events.{mode}"]
            drive_ms += drive
            events += tracer.counts[f"sim.events.{mode}"]
    v["sim.us_per_event"] = 1e3 * drive_ms / events if events else 0.0
    return v


if __name__ == "__main__":
    sys.exit(main())
