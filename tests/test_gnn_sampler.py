"""Tests for GraphSAGE and GraphSAINT samplers and batch structures."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph import CSRGraph, rmat_graph
from repro.gnn import NeighborSampler, SaintRandomWalkSampler, sampling_access_trace


@pytest.fixture
def graph():
    return rmat_graph(500, 6000, np.random.default_rng(0))


def test_sampler_block_structure(graph):
    sampler = NeighborSampler(graph, fanouts=(5, 3))
    rng = np.random.default_rng(1)
    batch = sampler.sample_batch(np.arange(16), rng)
    assert len(batch.blocks) == 2
    for block in batch.blocks:
        block.validate()
    # last block's dst are the seeds
    assert np.array_equal(batch.blocks[-1].dst, np.arange(16))
    # forward order: first block has the widest frontier
    assert batch.blocks[0].num_src >= batch.blocks[1].num_src


def test_sampler_hop_targets_grow(graph):
    sampler = NeighborSampler(graph, fanouts=(5, 5))
    batch = sampler.sample_batch(np.arange(8), np.random.default_rng(2))
    assert batch.hop_targets[0].size == 8
    assert batch.hop_targets[1].size > 8  # frontier expanded
    assert batch.total_targets == sum(t.size for t in batch.hop_targets)


def test_sampler_sample_counts(graph):
    sampler = NeighborSampler(graph, fanouts=(4,))
    batch = sampler.sample_batch(np.arange(10), np.random.default_rng(3))
    # every target with degree > 0 yields exactly fanout samples
    degs = graph.degrees(np.arange(10))
    expected = int((degs > 0).sum()) * 4
    assert batch.hop_samples[0] == expected


def test_sampler_samples_large_graph():
    graph = rmat_graph(20_000, 400_000, np.random.default_rng(0))
    sampler = NeighborSampler(graph, fanouts=(25, 10))
    rng = np.random.default_rng(1)
    seeds = rng.integers(0, graph.num_nodes, size=128)
    batch = sampler.sample_batch(seeds, rng)
    assert batch.total_samples > 0


def test_sampler_subgraph_bytes(graph):
    sampler = NeighborSampler(graph, fanouts=(5, 3))
    batch = sampler.sample_batch(np.arange(8), np.random.default_rng(4))
    expected = (batch.total_targets + batch.total_samples) * 8
    assert batch.subgraph_bytes() == expected


def test_sampler_validation(graph):
    with pytest.raises(ConfigError):
        NeighborSampler(graph, fanouts=())
    with pytest.raises(ConfigError):
        NeighborSampler(graph, fanouts=(0,))
    sampler = NeighborSampler(graph, fanouts=(2,))
    with pytest.raises(ConfigError):
        sampler.sample_batch(np.array([], dtype=np.int64),
                             np.random.default_rng(0))


def test_sampler_batches_cover_epoch(graph):
    sampler = NeighborSampler(graph, fanouts=(3,))
    rng = np.random.default_rng(5)
    seen = []
    for batch in sampler.batches(np.arange(50), 16, rng):
        seen.extend(batch.seeds.tolist())
    assert sorted(seen) == list(range(50))


def test_sampler_deterministic(graph):
    sampler = NeighborSampler(graph, fanouts=(5, 3))
    b1 = sampler.sample_batch(np.arange(8), np.random.default_rng(7))
    b2 = sampler.sample_batch(np.arange(8), np.random.default_rng(7))
    assert np.array_equal(b1.input_nodes, b2.input_nodes)


def test_access_trace_requires_positions(graph):
    sampler = NeighborSampler(graph, fanouts=(3,))
    batch = sampler.sample_batch(np.arange(8), np.random.default_rng(8))
    with pytest.raises(ConfigError):
        sampling_access_trace(graph, batch)


def test_access_trace_addresses_in_range(graph):
    sampler = NeighborSampler(graph, fanouts=(3, 2), record_positions=True)
    batch = sampler.sample_batch(np.arange(8), np.random.default_rng(9))
    trace = sampling_access_trace(graph, batch)
    indptr_bytes = (graph.num_nodes + 1) * 8
    total_bytes = indptr_bytes + graph.num_edges * 8
    assert trace.min() >= 0
    assert trace.max() < total_bytes
    assert trace.size == batch.total_targets + batch.total_samples


def test_zero_degree_seeds_handled():
    g = CSRGraph.from_adjacency([[1], [], [0, 1]])
    sampler = NeighborSampler(g, fanouts=(2,))
    batch = sampler.sample_batch(np.array([1]), np.random.default_rng(0))
    assert batch.hop_samples[0] == 0
    assert batch.blocks[0].num_edges == 0


# -- GraphSAINT ---------------------------------------------------------


def test_saint_walk_structure(graph):
    sampler = SaintRandomWalkSampler(graph, num_roots=32, walk_length=3)
    batch = sampler.sample_batch(np.arange(32), np.random.default_rng(1))
    assert len(batch.hop_targets) == 3
    # each step reads one chunk per walker
    assert all(t.size == 32 for t in batch.hop_targets)
    # at most one sample per walker per step
    assert all(s <= 32 for s in batch.hop_samples)


def test_saint_much_smaller_than_sage(graph):
    """SAINT's storage workload is far lighter per subgraph node -- the
    mechanism behind Fig 20's larger end-to-end speedup."""
    sage = NeighborSampler(graph, fanouts=(25, 10))
    saint = SaintRandomWalkSampler(graph, num_roots=64, walk_length=2)
    rng = np.random.default_rng(2)
    b_sage = sage.sample_batch(np.arange(64), rng)
    b_saint = saint.sample_batch(np.arange(64), rng)
    assert b_saint.total_targets < b_sage.total_targets
    assert b_saint.total_samples < b_sage.total_samples


def test_saint_blocks_validate(graph):
    sampler = SaintRandomWalkSampler(graph, num_roots=16, walk_length=2)
    batch = sampler.sample_batch(np.arange(16), np.random.default_rng(3))
    for block in batch.blocks:
        block.validate()


def test_saint_validation(graph):
    with pytest.raises(ConfigError):
        SaintRandomWalkSampler(graph, num_roots=0)
    with pytest.raises(ConfigError):
        SaintRandomWalkSampler(graph, walk_length=0)
    s = SaintRandomWalkSampler(graph)
    with pytest.raises(ConfigError):
        s.sample_batch(np.array([], dtype=np.int64), np.random.default_rng(0))


def test_saint_node_budget(graph):
    s = SaintRandomWalkSampler(graph, num_roots=100, walk_length=2)
    assert s.node_budget() == 300
