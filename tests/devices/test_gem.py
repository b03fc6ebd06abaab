"""Unit tests for the GEM device model."""

import pytest

from repro.devices.gem import GemDevice
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestAccessTimes:
    def test_page_access_time(self, sim):
        gem = GemDevice(sim, page_access_time=50e-6)
        done = []

        def proc():
            yield from gem.access_page()
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [pytest.approx(50e-6)]

    def test_entry_access_time(self, sim):
        gem = GemDevice(sim, entry_access_time=2e-6)
        done = []

        def proc():
            yield from gem.access_entries(1)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [pytest.approx(2e-6)]

    def test_batched_entry_accesses(self, sim):
        gem = GemDevice(sim, entry_access_time=2e-6)
        done = []

        def proc():
            yield from gem.access_entries(5)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [pytest.approx(10e-6)]
        assert gem.entry_accesses == 5

    def test_zero_entries_is_noop(self, sim):
        gem = GemDevice(sim)

        def proc():
            yield from gem.access_entries(0)
            yield sim.timeout(0)

        sim.process(proc())
        sim.run()
        assert gem.entry_accesses == 0

    def test_negative_entries_rejected(self, sim):
        gem = GemDevice(sim)
        with pytest.raises(ValueError):
            list(gem.access_entries(-1))

    def test_negative_access_time_rejected(self, sim):
        with pytest.raises(ValueError):
            GemDevice(sim, page_access_time=-1.0)


class TestQueuing:
    def test_single_server_serializes_accesses(self, sim):
        gem = GemDevice(sim, servers=1, page_access_time=50e-6)
        done = []

        def proc(tag):
            yield from gem.access_page()
            done.append((tag, sim.now))

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        assert done[0] == ("a", pytest.approx(50e-6))
        assert done[1] == ("b", pytest.approx(100e-6))

    def test_multi_server_parallelism(self, sim):
        gem = GemDevice(sim, servers=2, page_access_time=50e-6)
        done = []

        def proc():
            yield from gem.access_page()
            done.append(sim.now)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert done == [pytest.approx(50e-6), pytest.approx(50e-6)]

    def test_utilization_accounting(self, sim):
        gem = GemDevice(sim, page_access_time=0.1)

        def proc():
            yield from gem.access_page()

        sim.process(proc())
        sim.run()
        sim.run(until=0.2)
        assert gem.utilization() == pytest.approx(0.5)

    def test_reset_stats(self, sim):
        gem = GemDevice(sim)

        def proc():
            yield from gem.access_page()
            yield from gem.access_entries(1)

        sim.process(proc())
        sim.run()
        gem.reset_stats()
        assert gem.page_accesses == 0
        assert gem.entry_accesses == 0
