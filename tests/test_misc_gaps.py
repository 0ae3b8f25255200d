"""Coverage for remaining edge cases across modules."""

import numpy as np
import pytest

from repro.config import GPUParams, HardwareParams, PCIeParams
from repro.errors import ConfigError, SimulationError
from repro.gnn import FeatureTable, macro_f1
from repro.graph import CSRGraph
from repro.pipeline import GPUModel
from repro.sim import Simulator, Store


# -- engine interrupt -------------------------------------------------------


def test_process_interrupt():
    sim = Simulator()
    caught = []

    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except SimulationError as exc:
            caught.append(str(exc))

    proc = sim.process(victim(sim))

    def killer(sim):
        yield sim.timeout(1.0)
        proc.interrupt("killed by test")

    sim.process(killer(sim))
    sim.run()
    assert caught == ["killed by test"]


def test_store_unbounded_never_blocks_put():
    sim = Simulator()
    store = Store(sim)  # capacity <= 0: unbounded
    done = []

    def producer(sim):
        for i in range(100):
            yield store.put(i)
        done.append(sim.now)

    sim.process(producer(sim))
    sim.run()
    assert done == [0.0]
    assert len(store) == 100


# -- empty graph edge cases ------------------------------------------------


def test_empty_graph_from_edges():
    g = CSRGraph.from_edges([], [], num_nodes=3)
    assert g.num_nodes == 3
    assert g.num_edges == 0
    assert g.average_degree == 0.0
    assert list(g.edges()) == []


def test_single_node_graph():
    g = CSRGraph.from_adjacency([[0, 0]])  # self loops
    assert g.num_nodes == 1
    assert g.degree(0) == 2


# -- feature table -----------------------------------------------------------


def test_feature_table_validation():
    with pytest.raises(ConfigError):
        FeatureTable(np.zeros(5))  # 1-D rejected
    table = FeatureTable(np.zeros((4, 3), dtype=np.float32))
    with pytest.raises(ConfigError):
        table.gather(np.array([4]))
    assert table.row_bytes == 12
    assert table.total_bytes == 48
    assert table.gather_bytes(2) == 24


def test_feature_table_gather_counts():
    table = FeatureTable(np.arange(12.0).reshape(4, 3))
    rows = table.gather(np.array([1, 3]))
    assert rows.shape == (2, 3)
    assert table.rows_gathered == 2


# -- metrics edge cases ---------------------------------------------------


def test_macro_f1_empty_and_perfect():
    assert macro_f1(np.zeros((0, 3)), np.array([], dtype=np.int64)) == 0.0
    logits = np.eye(3) * 10
    assert macro_f1(logits, np.array([0, 1, 2])) == pytest.approx(1.0)


def test_macro_f1_ignores_absent_classes():
    logits = np.array([[5.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    labels = np.array([0, 0])  # classes 1, 2 absent
    assert macro_f1(logits, labels) == pytest.approx(1.0)


# -- GPU model memory-bound path --------------------------------------------


def test_gpu_model_memory_bound_regime():
    """With huge feature volume and tiny FLOPs, HBM bandwidth rules."""
    gpu = GPUModel(
        GPUParams(effective_flops=1e18, hbm_bandwidth=1e9,
                  kernel_overhead_s=0.0),
        PCIeParams(),
        feature_dim=1024, hidden_dim=2, num_classes=2,
    )

    class TinyWorkload:
        num_input_nodes = 1000
        subgraph_bytes = 0
        block_sizes = [(1, 1, 1)]

    w = TinyWorkload()
    expected = 4.0 * 1000 * 1024 * 4 / 1e9
    assert gpu.train_time(w) == pytest.approx(expected, rel=0.01)


# -- hardware params helpers ------------------------------------------------


def test_hardware_replace_in():
    hw = HardwareParams()
    hw2 = hw.replace_in("workload", batch_size=64)
    assert hw2.workload.batch_size == 64
    assert hw.workload.batch_size == 1024  # original untouched
    hw3 = hw.replace(gpu=GPUParams(kernel_overhead_s=1.0))
    assert hw3.gpu.kernel_overhead_s == 1.0


# -- packaging --------------------------------------------------------------


def test_setup_py_declares_package_name():
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "setup.py", "--name"],
        cwd=root, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "repro"
