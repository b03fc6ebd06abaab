"""Per-layer measurement for the traced pass of ``perfbench/run.py``.

Everything here observes the simulator from outside:

* :class:`PhaseTimer` wraps one cluster's ``sim.run`` and
  ``collect_results`` and listens on ``gc.callbacks``, splitting an
  untraced run into warm-up, measurement, collection and GC pauses;
* :class:`Profiler` runs ``cProfile`` around a whole ``run_simulation``
  call; :func:`package_metrics` groups its call counts and self times
  by package under ``src/repro``;
* :func:`model_metrics` reads the layer statistics the run itself
  reports in its ``RunResult``.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

#: The ten packages whose cost the traced pass reports, in report
#: order; "builtins" is everything outside ``src/repro`` and the
#: benchmark (interpreter built-ins and the standard library).
PACKAGES = (
    "sim", "node", "cc", "devices", "workload",
    "db", "routing", "obs", "system", "builtins",
)
#: Every buffer partition the four workloads define (debit-credit's
#: clustered BRANCH_TELLER layout and the trace's 13 files).  A
#: workload reports 0 for partitions it does not have, the program's
#: own convention for a partition without accesses.
PARTITIONS = ("BRANCH_TELLER", "ACCOUNT", "HISTORY") + tuple(
    f"FILE{i}" for i in range(13)
)
#: The response-time breakdown phases (``repro.obs.phases.PHASES``),
#: pinned here so the metric names stay fixed.  They read 0 on
#: workloads that do not collect the breakdown.
PHASES = (
    "input_queue", "cpu", "lock_local", "lock_global", "io", "gem",
    "comm", "page_transfer", "commit", "backoff", "other",
)
BENCH_DIR = Path(__file__).resolve().parent


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


class PhaseTimer:
    """Host-time split of one ``run_simulation`` call.

    Enter it around the call and pass :meth:`attach` as the cluster
    probe's ``on_build`` hook.  ``run_s`` holds one entry per
    ``Simulator.run`` call: warm-up, then measurement.
    """

    def __init__(self) -> None:
        self.run_s: List[float] = []
        self.collect_s = 0.0
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_started = 0.0

    def attach(self, cluster: Any) -> None:
        sim_run = cluster.sim.run
        collect = cluster.collect_results

        def run(until: Any = None) -> None:
            started = time.perf_counter()
            try:
                sim_run(until=until)
            finally:
                self.run_s.append(time.perf_counter() - started)

        def collect_results(measure_time: float) -> Any:
            started = time.perf_counter()
            try:
                return collect(measure_time)
            finally:
                self.collect_s += time.perf_counter() - started

        cluster.sim.run = run
        cluster.collect_results = collect_results

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    def __enter__(self) -> "PhaseTimer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._on_gc)


def phase_metrics(timers: Sequence[PhaseTimer]) -> Dict[str, Dict[str, Any]]:
    """Medians of the phase split over the untraced runs."""

    def median(values: Any) -> float:
        return float(statistics.median(values))

    return {
        "system.warmup_s": metric(median(t.run_s[0] for t in timers), "s"),
        "system.measure_s": metric(median(t.run_s[1] for t in timers), "s"),
        "system.collect_s": metric(median(t.collect_s for t in timers), "s"),
        "system.gc_pause_s": metric(median(t.gc_pause_s for t in timers), "s"),
        "system.gc_collections": metric(
            median(t.gc_collections for t in timers), "count"
        ),
    }


class Profiler:
    """``cProfile`` switched on only inside the ``with`` block."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()

    def __enter__(self) -> "Profiler":
        self.profile.enable()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.profile.disable()


def package_of(filename: str, repro_dir: Path) -> str:
    """The ``src/repro`` package defining ``filename``; "builtins" for
    interpreter built-ins and the standard library; "other" for the
    remaining repro modules and the benchmark's own files."""
    if filename.startswith(("~", "<")):
        return "builtins"
    path = Path(filename).resolve()
    if path.parent == BENCH_DIR:
        return "other"
    if repro_dir not in path.parents:
        return "builtins"
    parts = path.relative_to(repro_dir).parts
    return parts[0] if len(parts) > 1 and parts[0] in PACKAGES else "other"


def package_metrics(
    profile: cProfile.Profile, completed: int
) -> Dict[str, Dict[str, Any]]:
    """Calls per committed transaction and self-time share per package."""
    import repro

    repro_dir = Path(repro.__file__).resolve().parent
    calls = dict.fromkeys(PACKAGES + ("other",), 0)
    self_time = dict.fromkeys(PACKAGES + ("other",), 0.0)
    owner: Dict[str, str] = {}
    for (filename, _line, _name), entry in pstats.Stats(profile).stats.items():
        package = owner.get(filename)
        if package is None:
            package = owner[filename] = package_of(filename, repro_dir)
        calls[package] += entry[1]
        self_time[package] += entry[2]
    total = sum(self_time.values())
    out = {}
    for package in PACKAGES:
        out[f"{package}.calls_per_txn"] = metric(
            calls[package] / completed, "calls/txn"
        )
        out[f"{package}.self_share"] = metric(self_time[package] / total, "fraction")
    return out


def model_metrics(result: Any, run_s: float) -> Dict[str, Dict[str, Any]]:
    """Layer statistics from the run's own ``RunResult``.

    ``run_s`` is the untraced host time of the same configuration.
    """
    completed = result.completed
    locks = result.lock_requests_per_txn
    out = {
        "sim.events_per_txn": metric(
            result.events_processed / completed, "events/txn"
        ),
        "sim.host_us_per_event": metric(
            1e6 * run_s / result.events_processed, "us/event"
        ),
    }
    for partition in PARTITIONS:
        out[f"node.hit_ratio.{partition}"] = metric(
            result.hit_ratios.get(partition, 0.0), "fraction"
        )
    out["node.msgs_per_txn"] = metric(result.messages_per_txn, "msgs/txn")
    out["node.cpu_util_max"] = metric(result.cpu_utilization_max, "fraction")
    out["cc.lock_requests_per_txn"] = metric(locks, "requests/txn")
    out["cc.remote_lock_share"] = metric(
        result.remote_lock_requests_per_txn / locks if locks else 0.0, "fraction"
    )
    out["cc.lock_wait_ms"] = metric(1000.0 * result.mean_lock_wait_time, "ms")
    out["cc.page_requests_per_txn"] = metric(
        result.page_requests_per_txn, "requests/txn"
    )
    out["cc.commit_ratio"] = metric(
        completed / (completed + result.aborts), "fraction"
    )
    out["devices.gem_util"] = metric(result.gem_utilization, "fraction")
    out["devices.disk_util_max"] = metric(result.disk_utilization_max, "fraction")
    out["devices.log_disk_util_max"] = metric(
        result.log_disk_utilization_max, "fraction"
    )
    out["devices.network_util"] = metric(result.network_utilization, "fraction")
    breakdown = result.breakdown or {}
    for phase in PHASES:
        out[f"obs.breakdown.{phase}_ms"] = metric(
            1000.0 * breakdown.get(phase, 0.0), "ms"
        )
    return out
