"""Paper headline ratios and the ``paper_log_err`` fidelity figure.

Each reference is one ratio the SmartSAGE paper reports, with the
figure it comes from and the summary string the repository's
``benchmarks/bench_fig14/16/18_*.py`` files already quote.  Ratios are
defined as ``repro.experiments.fig14_single_worker`` (steady-state
single-worker sampling cost, mmap over design),
``fig16_multi_worker`` (12-worker sampling throughput, design over
mmap) and ``fig18_end_to_end`` (simulated end-to-end elapsed time,
baseline over design) define them.

Caveat: the simulator's hardware constants were tuned against these
same ratios.  No held-out reference exists, so ``paper_log_err`` shows
drift from the tuned state; it is not an independent validation.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional


class Reference(NamedTuple):
    figure: str
    paper: float
    quote: str
    definition: str


REFERENCES: Dict[str, Reference] = {
    "fig14.sw_vs_mmap": Reference(
        "Fig 14", 1.5, "SW 1.5x, HW/SW 10.1x (max 12.6x)",
        "mmap / smartsage-sw sampling phase, n_workers=1"),
    "fig14.hwsw_vs_mmap": Reference(
        "Fig 14", 10.1, "SW 1.5x, HW/SW 10.1x (max 12.6x)",
        "mmap / smartsage-hwsw sampling phase, n_workers=1"),
    "fig16.hwsw_vs_mmap": Reference(
        "Fig 16", 4.4, "HW/SW 4.4x (max 5.5x), SW ~2.9x",
        "smartsage-hwsw / mmap sampling throughput, 12 workers"),
    "fig18.hwsw_vs_mmap": Reference(
        "Fig 18", 3.5,
        "HW/SW 3.5x vs mmap; PMEM 1.2x vs DRAM; oracle ~70% of DRAM",
        "mmap / smartsage-hwsw end-to-end elapsed"),
    "fig18.pmem_vs_dram": Reference(
        "Fig 18", 1.2,
        "HW/SW 3.5x vs mmap; PMEM 1.2x vs DRAM; oracle ~70% of DRAM",
        "pmem / dram end-to-end elapsed"),
}


def paper_log_err(ratios: Dict[str, float]) -> Optional[float]:
    """Mean |ln(sim / paper)| over the ratios a workload produced."""
    if not ratios:
        return None
    return sum(
        abs(math.log(value / REFERENCES[name].paper))
        for name, value in ratios.items()
    ) / len(ratios)
