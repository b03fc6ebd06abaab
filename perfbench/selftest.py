"""Self-test of the benchmark at tiny windows.

Usage (from the repository root)::

    python3 perfbench/selftest.py [--workload NAME ...]

For every workload it checks that

* an end-to-end run and a traced run each finish with every run
  correct and emit exactly the metrics named in ``BENCHMARK.json``,
  each with its unit;
* the deterministic per-layer counts (``sim.events_per_txn`` and every
  ``<package>.calls_per_txn``) and the simulated-statistics digest
  repeat exactly across two traced runs with the same seed, and
  across two ``PYTHONHASHSEED`` values.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, trace: int, hash_seed: str) -> Tuple[Dict, List[str]]:
    """One tiny benchmark run; returns (result object, digest lines)."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "42", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(
            f"{workload} trace={trace} exited {proc.returncode}:\n"
            f"{proc.stdout}{proc.stderr}"
        )
    return json.loads(lines[-1]), [x for x in lines if x.startswith("digest ")]


def expect_metrics(label: str, result: Dict, declared: List[Dict]) -> List[str]:
    errors = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: runs failed: {result}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if set(got) != set(want):
        errors.append(
            f"{label}: missing {sorted(set(want) - set(got))}, "
            f"undeclared {sorted(set(got) - set(want))}"
        )
    errors += [
        f"{label}: {name} has unit {got[name]!r}, declared {unit!r}"
        for name, unit in want.items()
        if name in got and got[name] != unit
    ]
    return errors


def counts(result: Dict) -> Dict[str, float]:
    return {
        name: entry["value"]
        for name, entry in result["metrics"].items()
        if name == "sim.events_per_txn" or name.endswith(".calls_per_txn")
    }


def check_workload(name: str, spec: Dict) -> List[str]:
    e2e, _ = bench(name, 0, "0")
    errors = expect_metrics(f"{name} trace=0", e2e, spec["end_to_end"])
    first, first_digests = bench(name, 1, "0")
    errors += expect_metrics(f"{name} trace=1", first, spec["per_layer"])
    for label, hash_seed in (("same seed", "0"), ("PYTHONHASHSEED=1", "1")):
        again, digests = bench(name, 1, hash_seed)
        if counts(again) != counts(first):
            errors.append(f"{name}: counts differ on rerun ({label})")
        if digests != first_digests:
            errors.append(f"{name}: simulated statistics differ ({label})")
    return errors


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    errors = []
    if sorted(declared) != sorted(WORKLOADS):
        errors.append(f"BENCHMARK.json workloads {declared} != {sorted(WORKLOADS)}")
    for name in args.workload or declared:
        found = check_workload(name, spec)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
