"""Experiment harness: one module per paper figure/table, plus extensions.

Each module registers itself with the Campaign API
(:func:`repro.api.experiment.register_experiment`): a ``plan(cfg,
**axes)`` that splits the experiment into independent units (zero-arg
callables or declarative :class:`~repro.api.spec.RunSpec`\\ s), a
``collect`` that merges unit outputs into the experiment's result, a
``records`` hook emitting structured
:class:`~repro.api.experiment.RunRecord` rows where the default
flattening is not enough, and a paper-style ``render(result) -> str``.
Run one with :func:`repro.api.experiment.run_experiment` or
``python -m repro run <name>``; run many with
:class:`~repro.api.campaign.Campaign` or ``python -m repro run all``.
The README's "Campaign API" section documents the protocol;
``python -m repro list`` names the figure or table each module
regenerates.
"""

# Import order is registration order, and so the order of
# ``available_experiments()``, ``repro list`` and ``repro run all``:
# Table I, the figures in paper order, calibration, then extensions.
from repro.experiments import (  # noqa: F401  (registers on import)
    table1_datasets,
    fig05_characterization,
    fig06_breakdown,
    fig07_gpu_idle,
    fig13_degree,
    fig14_single_worker,
    fig15_coalescing,
    fig16_multi_worker,
    fig17_worker_scaling,
    fig18_end_to_end,
    fig19_fpga,
    fig20_graphsaint,
    fig21_sampling_rate,
    calibration,
    energy,
    sensitivity_batch,
    ablations,
    fidelity,
    cache_sensitivity,
    cache_hierarchy,
    depth_sensitivity,
    shard_scaling,
    host_scaling,
    gids_vs_isp,
    service_traffic,
    fault_sweep,
)
from repro.experiments.common import (
    EVAL_DATASETS,
    EVAL_DESIGNS,
    ExperimentConfig,
    build_eval_system,
    design_sweep,
    make_workloads,
    sampling_throughput,
    scaled_instance,
    steady_state_cost,
)

__all__ = [
    "ExperimentConfig",
    "EVAL_DATASETS",
    "EVAL_DESIGNS",
    "scaled_instance",
    "make_workloads",
    "steady_state_cost",
    "design_sweep",
    "build_eval_system",
    "sampling_throughput",
]
