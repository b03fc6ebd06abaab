"""Integration tests for overload and limit behaviour."""

import pytest

from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.monitor import TimeSeriesMonitor
from repro.system.runner import run_simulation


class TestOverload:
    def test_cpu_saturation_backs_up_input_queue(self):
        """Offered load beyond CPU capacity: the MPL input queue grows
        and response times explode, but the system stays coherent."""
        config = SystemConfig(
            num_nodes=1,
            coupling="gem",
            routing="affinity",
            update_strategy="noforce",
            arrival_rate_per_node=250.0,  # >160 TPS CPU capacity
            mpl_per_node=20,
            warmup_time=0.5,
            measure_time=3.0,
        )
        cluster = Cluster(config)
        monitor = TimeSeriesMonitor(cluster, interval=1.0)
        cluster.sim.run(until=3.5)
        in_flight = monitor.column("in_flight")
        assert in_flight[-1] > in_flight[0]
        node = cluster.nodes[0]
        assert node.cpu.utilization() > 0.9
        assert node.mpl.queue_length > 0

    def test_mpl_bounds_active_transactions(self):
        config = SystemConfig(
            num_nodes=1,
            arrival_rate_per_node=300.0,
            mpl_per_node=5,
            warmup_time=0.2,
            measure_time=1.0,
        )
        cluster = Cluster(config)
        cluster.sim.run(until=1.2)
        assert cluster.nodes[0].mpl.busy <= 5

    def test_high_mpl_avoids_input_queueing_at_nominal_load(self):
        """Table 4.1: MPL 'high enough to avoid queuing delays'."""
        config = SystemConfig(
            num_nodes=1,
            arrival_rate_per_node=100.0,
            mpl_per_node=50,
            warmup_time=1.0,
            measure_time=3.0,
            collect_breakdown=True,
        )
        result = run_simulation(config)
        assert result.breakdown is not None
        assert result.breakdown["input_queue"] < 1e-4


class TestStability:
    def test_long_run_remains_stable(self):
        """An extended run keeps throughput at the offered rate and
        exercises millions of events without drift or leaks."""
        config = SystemConfig(
            num_nodes=2,
            coupling="pcl",
            routing="random",
            update_strategy="force",
            warmup_time=2.0,
            measure_time=10.0,
        )
        result = run_simulation(config)
        offered = config.total_arrival_rate
        assert result.throughput_total == pytest.approx(offered, rel=0.1)
        assert result.mean_response_time < 0.5

    def test_buffer_far_too_small_is_detected(self):
        from repro.errors import BufferFullError

        config = SystemConfig(
            num_nodes=1,
            arrival_rate_per_node=200.0,
            mpl_per_node=50,
            buffer_pages_per_node=10,  # fewer frames than pinnable pages
            warmup_time=0.5,
            measure_time=2.0,
        )
        with pytest.raises(BufferFullError):
            run_simulation(config)
