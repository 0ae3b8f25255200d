"""Unit tests for Resource, Store, and BandwidthLink."""

import pytest

from repro.errors import SimulationError
from repro.sim import BandwidthLink, Resource, Simulator, Store


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    grants = []

    def proc(sim, tag):
        yield res.acquire()
        grants.append((tag, sim.now))
        yield sim.timeout(1.0)
        res.release()

    for tag in range(3):
        sim.process(proc(sim, tag))
    sim.run()
    # first two at t=0, third waits for a release at t=1
    assert grants == [(0, 0.0), (1, 0.0), (2, 1.0)]


def test_resource_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def proc(sim, tag):
        yield res.acquire()
        order.append(tag)
        yield sim.timeout(1.0)
        res.release()

    for tag in range(4):
        sim.process(proc(sim, tag))
    sim.run()
    assert order == [0, 1, 2, 3]


def test_resource_contention_dispatches_every_event():
    """8 workers x 200 acquire/hold/release cycles on 4 slots."""
    sim = Simulator()
    res = Resource(sim, capacity=4)

    def worker():
        for _ in range(200):
            yield res.acquire()
            yield sim.timeout(1e-6)
            res.release()

    for _ in range(8):
        sim.process(worker())
    sim.run()
    assert sim.processed_events > 1000
    # 1600 holds of 1 us, 4 at a time
    assert sim.now == pytest.approx(400e-6)


def test_resource_release_without_acquire_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_utilization_full_busy():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def proc(sim):
        yield res.acquire()
        yield sim.timeout(10.0)
        res.release()

    sim.process(proc(sim))
    sim.run()
    assert res.utilization(10.0) == pytest.approx(1.0)


def test_resource_utilization_half_busy():
    sim = Simulator()
    res = Resource(sim, capacity=2)

    def proc(sim):
        yield res.acquire()
        yield sim.timeout(10.0)
        res.release()

    sim.process(proc(sim))
    sim.run()
    assert res.utilization(10.0) == pytest.approx(0.5)


def test_resource_mean_wait():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def proc(sim):
        yield res.acquire()
        yield sim.timeout(2.0)
        res.release()

    sim.process(proc(sim))
    sim.process(proc(sim))
    sim.run()
    # second waiter waited 2s, first waited 0 -> mean 1s
    assert res.mean_wait_s == pytest.approx(1.0)


def test_store_put_get_order():
    sim = Simulator()
    store = Store(sim, capacity=10)
    got = []

    def producer(sim):
        for i in range(3):
            yield store.put(i)
            yield sim.timeout(1.0)

    def consumer(sim):
        for _ in range(3):
            item = yield store.get()
            got.append((item, sim.now))

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert [item for item, _ in got] == [0, 1, 2]


def test_store_bounded_blocks_producer():
    sim = Simulator()
    store = Store(sim, capacity=1)
    puts = []

    def producer(sim):
        for i in range(3):
            yield store.put(i)
            puts.append((i, sim.now))

    def consumer(sim):
        while True:
            yield sim.timeout(5.0)
            yield store.get()

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run(until=20.0)
    # put 0 at t=0; put 1 blocked until first get at t=5; put 2 until t=10
    assert puts == [(0, 0.0), (1, 5.0), (2, 10.0)]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        item = yield store.get()
        got.append((item, sim.now))

    def producer(sim):
        yield sim.timeout(7.0)
        yield store.put("x")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert got == [("x", 7.0)]


def test_store_handoff_counts():
    sim = Simulator()
    store = Store(sim, capacity=2)

    def producer(sim):
        for i in range(5):
            yield store.put(i)

    def consumer(sim):
        for _ in range(5):
            yield store.get()
            yield sim.timeout(1.0)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert store.total_put == 5
    assert store.total_got == 5
    assert len(store) == 0


def test_bandwidth_link_transfer_time():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=1e9, latency_s=1e-6)
    assert link.transfer_time(1000) == pytest.approx(1e-6 + 1e-6)


def test_bandwidth_link_serializes():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=100.0)  # 100 B/s
    done = []

    def sender(sim, tag):
        yield from link.transfer(100)  # 1 second each
        done.append((tag, sim.now))

    sim.process(sender(sim, "a"))
    sim.process(sender(sim, "b"))
    sim.run()
    assert done == [("a", 1.0), ("b", 2.0)]
    assert link.bytes_moved == 200


def test_bandwidth_link_lanes_allow_overlap():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=100.0, lanes=2)
    done = []

    def sender(sim, tag):
        yield from link.transfer(100)
        done.append((tag, sim.now))

    sim.process(sender(sim, "a"))
    sim.process(sender(sim, "b"))
    sim.run()
    assert done == [("a", 1.0), ("b", 1.0)]


def test_bandwidth_link_rejects_bad_config():
    sim = Simulator()
    with pytest.raises(SimulationError):
        BandwidthLink(sim, bandwidth=0.0)


# -- fast-path grant/release (churn optimization) -----------------------


def test_try_acquire_grants_until_saturated():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    assert res.try_acquire()
    assert res.try_acquire()
    assert not res.try_acquire()  # saturated: caller must take the event path
    assert res.in_use == 2
    res.release()
    assert res.try_acquire()
    for _ in range(2):
        res.release()
    assert res.in_use == 0


def test_try_acquire_declines_when_fast_path_disabled():
    sim = Simulator()
    res = Resource(sim, capacity=4)
    old = Resource.fast_path
    Resource.fast_path = False
    try:
        assert not res.try_acquire()
    finally:
        Resource.fast_path = old
    assert res.in_use == 0


def test_fast_path_matches_reference_accounting():
    """The same churn loop, fast path on vs off: identical grant
    counts, utilization, wait times, and completion times."""

    def run(fast):
        sim = Simulator()
        res = Resource(sim, capacity=3, name="churn")
        done = []

        def proc(tag):
            for _ in range(50):
                if not res.try_acquire():
                    yield res.acquire()
                try:
                    yield sim.timeout(1e-3)
                finally:
                    res.release()
            done.append((tag, sim.now))

        old = Resource.fast_path
        Resource.fast_path = fast
        try:
            for tag in range(5):  # 5 procs > capacity 3: mixed contention
                sim.process(proc(tag))
            sim.run()
        finally:
            Resource.fast_path = old
        return (
            done,
            sim.now,
            res._acquisitions,
            res._busy_area,
            res._wait_time_total,
            res.utilization(),
        )

    assert run(True) == run(False)


# -- wait-time bookkeeping under abandoned waiters ----------------------


def test_ungranted_waiters_leave_no_side_bookkeeping():
    """Waiters that are never granted (holder never releases) must not
    leak accounting state: the start time rides on the waiter entry,
    not in an ``id(event)``-keyed side table."""
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder(sim):
        yield res.acquire()
        yield sim.timeout(1.0)
        # never releases: the queued waiters are abandoned at run end

    def waiter(sim):
        yield res.acquire()

    sim.process(holder(sim))
    for _ in range(3):
        sim.process(waiter(sim))
    sim.run()
    assert res.queue_length == 3
    assert res._acquisitions == 1  # only the holder's zero-wait grant
    assert res.mean_wait_s == 0.0
    # regression: the historical id(event)-keyed table is gone entirely
    assert not hasattr(res, "_wait_started")


def test_wait_accounting_survives_event_id_reuse():
    """Wait times are attributed per waiter entry even when earlier
    event objects have been dropped (the id-reuse collision case)."""
    import gc

    sim = Simulator()
    res = Resource(sim, capacity=1)
    times = []

    def holder(sim):
        yield res.acquire()
        yield sim.timeout(4.0)
        res.release()

    def late_waiter(sim):
        # churn some short-lived events first so their ids can be reused
        for _ in range(100):
            sim.event().succeed(None)
        gc.collect()
        yield res.acquire()
        times.append(sim.now)
        res.release()

    sim.process(holder(sim))
    sim.process(late_waiter(sim))
    sim.run()
    assert times == [4.0]
    # 2 grants: holder waited 0, late waiter waited 4 -> mean 2
    assert res.mean_wait_s == pytest.approx(2.0)
