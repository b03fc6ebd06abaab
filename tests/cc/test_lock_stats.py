"""Every protocol reports its CC-path statistics through ``lock_stats()``.

``Cluster.collect_results`` reads the lock and page-request figures of
a run from this one view, under every coupling regime and protocol, so
each combination must return exactly the seven required keys and the
result must carry the values they imply.
"""

import pytest

from repro.system.cluster import Cluster

from tests.helpers import system_config

LOCK_STATS_KEYS = {
    "local_share",
    "remote_lock_requests",
    "lock_requests",
    "mean_lock_wait",
    "page_requests",
    "mean_page_request_delay",
    "pages_supplied_with_grant",
}


@pytest.mark.parametrize("protocol", ["2pl", "mvcc", "dgcc"])
@pytest.mark.parametrize("coupling", ["gem", "pcl", "rdma"])
def test_collect_results_reports_lock_stats(coupling, protocol):
    config = system_config(
        coupling=coupling,
        protocol=protocol,
        routing="random",
        arrival_rate_per_node=40.0,
        warmup_time=0.2,
        measure_time=0.5,
    )
    cluster = Cluster(config)
    cluster.sim.run(until=config.warmup_time)
    cluster.reset_stats()
    cluster.sim.run(until=config.warmup_time + config.measure_time)
    stats = cluster.protocol.lock_stats()
    assert set(stats) == LOCK_STATS_KEYS

    result = cluster.collect_results(config.measure_time)
    assert result.completed > 0
    per_txn = 1.0 / result.completed
    assert result.local_lock_share == stats["local_share"]
    assert result.lock_requests_per_txn == stats["lock_requests"] * per_txn
    assert result.remote_lock_requests_per_txn == (
        stats["remote_lock_requests"] * per_txn
    )
    assert result.mean_lock_wait_time == stats["mean_lock_wait"]
    assert result.page_requests_per_txn == stats["page_requests"] * per_txn
    assert result.mean_page_request_delay == stats["mean_page_request_delay"]
    assert result.pages_supplied_with_grant_per_txn == (
        stats["pages_supplied_with_grant"] * per_txn
    )
