"""Repository benchmark: stationary simulations, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dc-gem-8 --seed 42 --seconds 25 --trace 0

One process runs one workload.  An operation is one
``repro.system.runner.run_simulation(config)`` call, made exactly as a
user makes it, in this single process (no worker pool).  The
benchmark repeats rounds of simulations for ``--seconds`` host
seconds; a round runs every replicate seed of the workload once.
``--seed`` is the workload seed: it is replicate 0's
``SystemConfig.random_seed`` and derives the other replicates' seeds.

With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of
replicate 0, from phase-timed untraced runs plus one ``cProfile`` run
(see ``layers.py``).  Metric definitions and the reasons behind every
workload are in ``perfbench/README.md``.  The program's own source is
never modified: the benchmark wraps the ``Cluster`` constructor that
``run_simulation`` looks up, and only for the duration of a run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import layers
from layers import metric

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Replicate-0 seed of every workload unless ``--seed`` says otherwise.
DEFAULT_SEED = 42
#: A run reports ``setup_s`` as the median of at least this many
#: ``Cluster`` constructions, adding stand-alone builds when its
#: simulations made fewer.
SETUP_SAMPLES = 9
#: Stationarity: window arrivals may differ from completions by at
#: most this share of the arrivals, and no node's CPU may reach the
#: saturated range.
MAX_ARRIVAL_GAP = 0.05
SATURATED_CPU = 0.95


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a ``SystemConfig`` family and its windows."""

    name: str
    make: Callable[[int, float, float], Any]
    #: (warm-up, measure) simulated seconds of a measured run.
    windows: Tuple[float, float]
    #: (warm-up, measure) of the ``--tiny`` self-test run.
    tiny: Tuple[float, float]
    #: Seeds simulated per round; the simulated metrics pool them.
    replicates: int


def _debit_credit(num_nodes, rate, coupling, routing, update, buffer_pages):
    def make(seed: int, warmup: float, measure: float):
        from repro.system.config import SystemConfig

        return SystemConfig(
            num_nodes=num_nodes,
            coupling=coupling,
            routing=routing,
            update_strategy=update,
            buffer_pages_per_node=buffer_pages,
            arrival_rate_per_node=rate,
            warmup_time=warmup,
            measure_time=measure,
            random_seed=seed,
        )

    return make


def _trace_gem_4(seed: int, warmup: float, measure: float):
    from repro.system.config import SystemConfig, TraceWorkloadConfig

    return SystemConfig(
        num_nodes=4,
        coupling="gem",
        routing="affinity",
        update_strategy="noforce",
        workload="trace",
        arrival_rate_per_node=50.0,
        buffer_pages_per_node=1000,
        trace=TraceWorkloadConfig(scale=0.12),
        warmup_time=warmup,
        measure_time=measure,
        collect_breakdown=True,
        random_seed=seed,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dc-gem-8",
            _debit_credit(8, 121.0, "gem", "affinity", "noforce", 1000),
            windows=(1.0, 4.0),
            tiny=(0.5, 1.0),
            replicates=3,
        ),
        Workload(
            "dc-pcl-force-8",
            _debit_credit(8, 100.0, "pcl", "random", "force", 200),
            windows=(1.0, 3.0),
            tiny=(0.5, 1.5),
            replicates=2,
        ),
        Workload(
            "trace-gem-4",
            _trace_gem_4,
            # 8.5 simulated s at 200 TPS is ~1,700 of the trace's 2,100
            # transactions: the run never replays the trace.
            windows=(1.5, 7.0),
            tiny=(1.0, 3.0),
            replicates=4,
        ),
        Workload(
            "dc-gem-256",
            _debit_credit(256, 100.0, "gem", "affinity", "noforce", 1000),
            # A 0.8 s window (not 1.0 s) fits two runs in one benchmark
            # run; CPU max stays at 0.81-0.92 across seeds.
            windows=(0.5, 0.8),
            tiny=(0.25, 0.5),
            replicates=1,
        ),
    )
}


def replicate_seeds(seed: int, count: int) -> List[int]:
    """``seed`` itself, then seeds derived from it (hash-seed independent)."""
    return [seed] + [
        random.Random(f"{seed}/{k}").randrange(2**31) for k in range(1, count)
    ]


def digest(result) -> str:
    """Hash of the simulated statistics (host- and event-count-free)."""
    data = result.deterministic_dict()
    data.pop("events_processed", None)
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class ClusterProbe:
    """Wraps the ``Cluster`` constructor that ``run_simulation`` calls.

    Times each construction (``setup_s``), hands the new cluster to
    ``on_build`` and keeps it until :meth:`take`.  Used as a context
    manager; the original constructor is restored on exit.
    """

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.on_build: Optional[Callable[[Any], None]] = None
        self._cluster = None

    def __enter__(self) -> "ClusterProbe":
        from repro.system import runner

        self._runner = runner
        self._original = runner.Cluster
        runner.Cluster = self.build
        return self

    def __exit__(self, *exc) -> None:
        self._runner.Cluster = self._original

    def build(self, config):
        started = time.perf_counter()
        cluster = self._original(config)
        self.setup_s.append(time.perf_counter() - started)
        if self.on_build is not None:
            self.on_build(cluster)
        self._cluster = cluster
        return cluster

    def take(self):
        cluster, self._cluster = self._cluster, None
        return cluster


@dataclass
class Sim:
    """One simulation: its result, host time and correctness verdict."""

    seed: int
    result: Any
    run_s: float
    digest: str
    problems: List[str]


def check(result, cluster) -> List[str]:
    """Correctness and stationarity problems of one run (empty: passed)."""
    problems = []
    if result.completed <= 0:
        problems.append("no committed transactions")
        return problems
    gap = abs(result.generated - result.completed)
    if gap > MAX_ARRIVAL_GAP * result.generated:
        problems.append(
            f"not stationary: {result.generated} arrivals vs "
            f"{result.completed} completions"
        )
    if result.cpu_utilization_max >= SATURATED_CPU:
        problems.append(f"saturated: cpu max {result.cpu_utilization_max:.3f}")
    utilizations = list(result.cpu_utilization_per_node) + [
        result.gem_utilization,
        result.network_utilization,
        result.log_disk_utilization_max,
        result.disk_utilization_max,
    ] + list(result.hit_ratios.values())
    if any(not 0.0 <= u <= 1.0 for u in utilizations):
        problems.append("a utilization or hit ratio lies outside [0, 1]")
    if cluster.config.collect_breakdown and not math.isclose(
        sum(result.breakdown.values()), result.mean_response_time, rel_tol=1e-9
    ):
        problems.append("breakdown phases do not sum to mean response time")
    if cluster.trace_world is not None and cluster.generator.replays:
        problems.append("trace replayed: window exceeds one trace pass")
    return problems


def simulate(
    probe: ClusterProbe, config, around: Any = contextlib.nullcontext()
) -> Sim:
    """One ``run_simulation`` call from a collected heap, timed inside
    the ``around`` context (phase timers or the profiler)."""
    from repro.system.runner import run_simulation

    gc.collect()
    try:
        with around:
            started = time.perf_counter()
            result = run_simulation(config)
            run_s = time.perf_counter() - started
    except Exception as exc:  # a raising run is a failed operation
        traceback.print_exc()
        probe.take()
        return Sim(config.random_seed, None, 0.0, "", [f"raised {exc!r}"])
    cluster = probe.take()
    problems = check(result, cluster)
    return Sim(config.random_seed, result, run_s, digest(result), problems)


def repeat_until(seconds: float, step: Callable[[], Any]) -> List[Any]:
    """Call ``step`` at least once, then while another call fits in ``seconds``."""
    out = []
    started = time.perf_counter()
    last = 0.0
    while not out or time.perf_counter() - started + last <= seconds:
        began = time.perf_counter()
        out.append(step())
        last = time.perf_counter() - began
    return out


def fill_setup_samples(probe: ClusterProbe, configs) -> None:
    """Stand-alone constructions, cycling over the replicates, until
    the run holds ``SETUP_SAMPLES`` set-up times."""
    for k in range(SETUP_SAMPLES - len(probe.setup_s)):
        gc.collect()
        probe.build(configs[k % len(configs)])
        probe.take()


def mark_inconsistent(sims: List[Sim]) -> None:
    """Flag runs whose simulated statistics differ from the first run
    of the same seed: every repetition must simulate identically."""
    first: Dict[int, str] = {}
    for sim in sims:
        if sim.result is None:
            continue
        expected = first.setdefault(sim.seed, sim.digest)
        if sim.digest != expected:
            sim.problems.append(f"seed {sim.seed} not deterministic")


def end_to_end(configs, seconds: float):
    """Untraced rounds over every replicate; returns (sims, metrics)."""
    with ClusterProbe() as probe:
        rounds = repeat_until(
            seconds, lambda: [simulate(probe, c) for c in configs]
        )
        fill_setup_samples(probe, configs)
    sims = [sim for rnd in rounds for sim in rnd]
    if any(s.result is None for s in sims):
        return sims, {}
    first = rounds[0]
    completed = sum(s.result.completed for s in first)
    metrics = {
        "txn_per_s": metric(
            statistics.median(
                sum(s.result.completed for s in rnd) / sum(s.run_s for s in rnd)
                for rnd in rounds
            ),
            "txn/s",
        ),
        "run_s": metric(
            statistics.median(
                statistics.fmean(s.run_s for s in rnd) for rnd in rounds
            ),
            "s",
        ),
        "setup_s": metric(statistics.median(probe.setup_s), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "sim_rt_ms": metric(
            1000.0
            * sum(s.result.mean_response_time * s.result.completed for s in first)
            / completed,
            "ms",
        ),
        "sim_tps": metric(
            statistics.fmean(s.result.throughput_total for s in first), "txn/s"
        ),
    }
    print(
        f"# {len(rounds)} round(s) x {len(configs)} replicate(s); "
        f"run_s samples {[round(s.run_s, 4) for s in sims]}; "
        f"setup_s samples {len(probe.setup_s)}"
    )
    return sims, metrics


def per_layer(config, seconds: float):
    """Phase-timed untraced runs of ``config``, then one profiled run."""
    timers: List[layers.PhaseTimer] = []

    def timed() -> Sim:
        timer = layers.PhaseTimer()
        timers.append(timer)
        probe.on_build = timer.attach
        return simulate(probe, config, around=timer)

    profiler = layers.Profiler()
    with ClusterProbe() as probe:
        sims = repeat_until(seconds, timed)
        probe.on_build = None
        traced = simulate(probe, config, around=profiler)
    sims.append(traced)
    if any(s.result is None for s in sims):
        return sims, {}
    result = sims[0].result
    run_s = statistics.median(s.run_s for s in sims[:-1])
    metrics = layers.package_metrics(profiler.profile, result.completed)
    metrics.update(layers.phase_metrics(timers))
    metrics.update(layers.model_metrics(result, run_s))
    metrics["trace_overhead"] = metric(traced.run_s / run_s, "ratio")
    return sims, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="self-test scale: short windows, one replicate",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: simulator source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    warmup, measure = workload.tiny if args.tiny else workload.windows
    count = 1 if args.tiny else workload.replicates
    configs = [
        workload.make(seed, warmup, measure)
        for seed in replicate_seeds(args.seed, count)
    ]
    if args.trace:
        sims, metrics = per_layer(configs[0], args.seconds)
    else:
        sims, metrics = end_to_end(configs, args.seconds)
    mark_inconsistent(sims)

    for sim in sims:
        for problem in sim.problems:
            print(f"# FAILED seed={sim.seed}: {problem}")
    for seed in dict.fromkeys(s.seed for s in sims if s.digest):
        sim = next(s for s in sims if s.seed == seed and s.digest)
        print(f"digest {workload.name} seed={seed} {sim.digest}")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    failed = sum(1 for s in sims if s.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(sims),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
