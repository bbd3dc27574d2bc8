"""Smoke test for the end-to-end benchmark's contract and determinism.

For each workload it runs ``run.py`` twice with a short timed phase,
once under ``PYTHONHASHSEED=0`` and once under ``PYTHONHASHSEED=1``,
and requires: exit status 0, a last line with exactly the keys
``correct`` / ``attempted`` / ``failed`` / ``metrics``, a correct run,
every ``end_to_end`` metric of ``BENCHMARK.json`` with its unit, and
the same rows digest from both runs.  One traced ``paper`` run must
report every ``per_layer`` metric.  Last, a copy holding only
``BENCHMARK.json`` and the benchmark's files must fail without
printing a result.

Run from the repository root::

    python3 bench_e2e/smoke.py [--workloads paper,layered,rails3] [--seed 7]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 180


def run(args: list[str], cwd: Path, hashseed: str):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "bench_e2e/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )


def parse(proc, expected: dict[str, str]) -> str:
    """Check one run's output; return its rows digest."""
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2])["provenance"]
    if set(result) != RESULT_KEYS:
        raise SystemExit(f"result keys {sorted(result)} != {RESULT_KEYS}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"incorrect run: {provenance['problems']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise SystemExit(f"metrics {got} != {expected}")
    return provenance["rows_digest"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="paper,layered,rails3")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    common = ["--seed", str(args.seed), "--seconds", "1"]

    for workload in args.workloads.split(","):
        digests = {
            parse(
                run(["--workload", workload, *common, "--trace", "0"],
                    ROOT, hashseed),
                end_to_end,
            )
            for hashseed in ("0", "1")
        }
        if len(digests) != 1:
            raise SystemExit(f"{workload}: digests differ: {digests}")
        print(f"{workload}: deterministic, digest {digests.pop()[:16]}")

    parse(
        run(["--workload", "paper", *common, "--trace", "1"], ROOT, "0"),
        per_layer,
    )
    print("paper --trace 1: every per_layer metric reported")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(["--workload", "paper", *common, "--trace", "0"],
                   bare, "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("a bare copy must fail without printing a result")
    print("bare copy: fails without a result, as required")
    return 0


if __name__ == "__main__":
    sys.exit(main())
