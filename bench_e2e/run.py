"""End-to-end ``Flow`` benchmark with per-layer attribution.

One in-process client runs jobs back to back (a closed loop: each job
starts when the previous one has finished; no workers, no threads).  A
job is one circuit through ``cvs``, ``dscale`` and ``gscale`` via the
public ``Flow.prepare`` / ``Flow.execute(prepared=...)`` entry points,
which is what ``repro run <circuit>`` does by default.  Jobs run in
passes over the workload's circuits until the timed job seconds reach
``--seconds`` (at least two passes, so every row is compared with a
repeat of itself; the last pass may stop part-way).  Garbage is
collected before each job and each set-up, untimed, so one job's
garbage is not collected inside the next one's timing.  Each job's rows
are checked as soon as it returns, outside its timing (see
``checks.py``).

``--trace 0`` reports the end-to-end metrics with no instrumentation
installed.  ``--trace 1`` is a separate run that alternates untraced
and traced passes: the traced ones record spans around each layer's
entry points (``spans.py``) and yield the per-layer self times, and
the two kinds together give the tracing overhead.  Spans are written
to ``bench_e2e/out/`` when the run ends.

Run from the repository root::

    python3 bench_e2e/run.py --workload paper --seed 1 --seconds 20 --trace 0

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it is the run's provenance:
seed, circuits, mapped gate counts, interpreter, ``numpy_active()``,
the digest of the result rows, and every job and pass sample.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "dual_rail_mcnc.json"
OUT = HERE / "out"

METHODS = ("cvs", "dscale", "gscale")
SETUP_REPEATS = 15
MIN_PASSES = 2
WARMUP_CIRCUIT = "z4ml"
"""A tiny circuit run once, untimed, so lazy imports land before the
timed phase instead of inside its first job."""

SELF_TIME_METRICS = (
    "api.optimize", "api.map", "api.constrain", "api.scale",
    "bench.load", "library.build",
    "opt.eliminate", "opt.sweep", "opt.decompose", "opt.simplify",
    "netlist.adjacency", "netlist.flat",
    "mapping.subject", "mapping.cuts", "mapping.cover", "mapping.sizing",
    "power.activity", "power.estimate", "timing.query",
    "cvs.run", "dscale.run", "dscale.order_pairs",
    "gscale.run", "gscale.cpn",
    "moves.check", "moves.price", "moves.profile", "moves.apply",
    "moves.try",
    "graphalg.antichain", "graphalg.separator",
    "job",
)
"""Spans reported as ``<name>_s`` self time (``job`` -> the job's
unattributed remainder, ``job.unattributed_s``)."""

CALL_COUNT_METRICS = {
    "netlist.adjacency_builds": "netlist.adjacency",
    "netlist.flat_builds": "netlist.flat",
    "power.estimates": "power.estimate",
    "timing.queries": "timing.query",
    "moves.tries": "moves.try",
}
COUNTER_METRICS = {
    "dscale.rounds": "dscale.run.rounds",
    "gscale.iterations": "gscale.run.iterations",
}
PER_CALL_METRICS = {
    "graphalg.antichain_elements": ("graphalg.antichain", "elements"),
    "graphalg.antichain_pairs": ("graphalg.antichain", "pairs"),
    "graphalg.separator_nodes": ("graphalg.separator", "nodes"),
}


@dataclass
class Slot:
    """One job of a pass: its row label, flow and (warm) prepared circuit."""

    label: str
    circuit: str
    flow: object
    prepared: object | None


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0


def base_flow(config: dict):
    """A flow over a freshly built library and match table."""
    from repro.api import Flow, FlowConfig
    from repro.mapping.match import MatchTable

    config = FlowConfig(**config)
    library = config.build_library()
    return Flow(config, library=library, match_table=MatchTable(library))


def set_up(workload: Workload, tracer=None) -> tuple[list[float], list[Slot]]:
    """Build what the timed passes need, several times over.

    A cold workload builds its library and match table
    ``SETUP_REPEATS`` times and keeps the last.  A warm workload sets
    up once per job: library, match table, and that job's prepare (as
    on a ``PreparedCache`` hit).  Garbage is collected, untimed, before
    each set-up.  Returns each set-up's seconds and the pass's job
    slots.
    """
    times: list[float] = []
    slots: list[Slot] = []
    repeats = len(workload.jobs) if workload.warm else SETUP_REPEATS
    for i in range(repeats):
        gc.collect()
        frame = tracer.enter("setup") if tracer is not None else None
        started = time.perf_counter()
        if workload.warm:
            label, overrides = workload.jobs[i]
            flow = base_flow({**workload.config, **overrides})
            prepare_flow = flow if tracer is None else tracer.stage_flow(flow)
            prepared = prepare_flow.prepare()
            slots.append(Slot(label, overrides["circuit"], flow, prepared))
        else:
            base = base_flow(workload.config)
        times.append(time.perf_counter() - started)
        if frame is not None:
            tracer.leave(frame)
    if not workload.warm:
        slots = [
            Slot(label, overrides["circuit"], base.replace(**overrides), None)
            for label, overrides in workload.jobs
        ]
    return times, slots


def run_job(slot: Slot, flow, tracer=None) -> tuple[dict, dict]:
    """Run one job; return its timings and each method's flow context.

    The timings are ``wall``, ``prepare`` (cold jobs only) and one entry
    per method.
    """
    frame = tracer.enter("job") if tracer is not None else None
    try:
        started = time.perf_counter()
        prepared, seconds = slot.prepared, {}
        if prepared is None:
            prepared = flow.prepare()
            seconds["prepare"] = time.perf_counter() - started
        contexts = {}
        for method in METHODS:
            t = time.perf_counter()
            contexts[method] = flow.replace(method=method).execute(
                prepared=prepared
            )
            seconds[method] = time.perf_counter() - t
        seconds["wall"] = time.perf_counter() - started
    finally:
        if frame is not None:
            tracer.leave(frame)
    return seconds, contexts


def log_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if not sxx:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: Workload, seconds: float, traced: bool, seed: int):
    from checks import RowChecker
    from spans import Tracer

    golden_runs = {}
    if workload.name == "paper":
        with open(GOLDEN, encoding="utf-8") as handle:
            golden_runs = json.load(handle)["runs"]
    checker = RowChecker(golden_runs)
    tracer = Tracer() if traced else None
    problems: list[str] = []

    warmup = base_flow(workload.config).replace(circuit=WARMUP_CIRCUIT)
    try:
        run_job(Slot(WARMUP_CIRCUIT, WARMUP_CIRCUIT, warmup, None), warmup)
    except Exception as exc:  # the timed jobs will fail and report it
        problems.append(f"warm-up: {type(exc).__name__}: {exc}")

    with tracer.installed() if tracer else nullcontext():
        setup_s, slots = set_up(workload, tracer)
    budgets = {(s.prepared.tspec, s.prepared.min_delay)
               for s in slots if s.prepared is not None}
    if len(budgets) > 1:
        problems.append(f"set-up prepares disagree on the budget: {budgets}")

    # Untraced passes' timings per job label: "wall", "prepare" (cold
    # jobs), and one list per method.
    samples: dict[str, dict[str, list[float]]] = {}
    passes: list[Pass] = []
    attempted = failed = 0
    timed = 0.0
    min_passes = MIN_PASSES * (2 if traced else 1)

    def done() -> bool:
        return len(passes) >= min_passes and timed >= seconds

    while not done():
        record = Pass(traced=traced and len(passes) % 2 == 1)
        passed = 0
        if tracer is not None:
            tracer.phase = "pass"
        with tracer.installed() if record.traced else nullcontext():
            for slot in slots:
                # An untraced run may stop inside its last pass; a
                # traced run compares whole traced and untraced passes.
                if not traced and done():
                    break
                flow = tracer.stage_flow(slot.flow) if record.traced else slot.flow
                attempted += 1
                gc.collect()
                started = time.perf_counter()
                try:
                    job_s, contexts = run_job(
                        slot, flow, tracer if record.traced else None
                    )
                except Exception as exc:  # a failed job is counted, not fatal
                    failed += 1
                    problems.append(
                        f"{slot.label}: {type(exc).__name__}: {exc}"
                    )
                    elapsed = time.perf_counter() - started
                    timed += elapsed
                    record.wall_s += elapsed
                    continue
                timed += job_s["wall"]
                record.wall_s += job_s["wall"]
                with tracer.paused() if record.traced else nullcontext():
                    row_problems = check_job(checker, slot, contexts)
                del contexts
                if row_problems:
                    failed += 1
                    problems.extend(row_problems)
                    continue
                passed += 1
                if not record.traced:
                    job_samples = samples.setdefault(slot.label, {})
                    for name, value in job_s.items():
                        job_samples.setdefault(name, []).append(value)
        passes.append(record)
        if not passed and len(passes) >= (2 if traced else 1):
            break  # a whole pass failed: report it rather than loop on

    rows = checker.rows()
    gates = {label: row.get("gates", 0)
             for (label, _), row in checker.reference.items()}
    from repro.netlist.flat import numpy_active

    provenance = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(traced),
        "jobs": [label for label, _ in workload.jobs],
        "config": workload.config,
        "mapped_gates": gates,
        "python": platform.python_version(),
        "numpy_active": numpy_active(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "rows": len(rows),
        "rows_digest": checker.digest(),
        "passes": len(passes),
        "job_s_samples": sum(len(job["wall"]) for job in samples.values()),
        "setup_s": setup_s,
        "problems": problems[:20],
        "samples": {
            "pass_s": [{"traced": p.traced, "wall": p.wall_s} for p in passes],
            "jobs": samples,
        },
    }
    correct = not problems and failed == 0
    if traced:
        metrics, shares = layer_metrics(tracer, passes, rows, gates, samples)
        provenance["layer_shares"] = shares
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{workload.name}-{seed}.json")
    else:
        metrics = e2e_metrics(samples, timed, setup_s, rows)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, provenance


def check_job(checker, slot: Slot, contexts: dict) -> list[str]:
    """Every problem with a job's rows; a check that raises is one too."""
    problems = []
    for method in METHODS:
        try:
            problems += checker.check(
                slot.label, slot.circuit, method, contexts[method]
            )
        except Exception as exc:
            problems.append(
                f"{slot.label}:{method}: check raised "
                f"{type(exc).__name__}: {exc}"
            )
    return problems


def e2e_metrics(samples, timed, setup_s, rows) -> dict:
    walls = [wall for job in samples.values() for wall in job["wall"]]
    metrics = {
        # Mean over set-ups: a median flips with whichever host state
        # held most of them (see NOTES.md, Noise).
        "setup_s": metric(statistics.fmean(setup_s), "s"),
        "jobs_per_s": metric(len(walls) / timed if timed else 0.0, "1/s"),
        "job_s_p50": metric(statistics.median(walls) if walls else 0.0, "s"),
    }
    # One pass's seconds in a method: each job's mean over its repeats,
    # summed over the jobs (the last pass may stop part-way).
    for method in METHODS:
        metrics[f"{method}_s"] = metric(
            sum(statistics.fmean(job[method]) for job in samples.values()),
            "s",
        )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = metric(peak_kb / 1024.0, "MB")
    for method in METHODS:
        savings = [
            row["report"]["improvement_pct"]
            for row in rows
            if row["method"] == method
        ]
        metrics[f"saving_pct.{method}"] = metric(
            statistics.fmean(savings) if savings else 0.0, "%"
        )
    return metrics


def layer_metrics(tracer, passes, rows, gates, samples):
    """Per-layer numbers: one set-up plus one traced pass, self time."""
    n_setups = tracer.calls[("setup", "setup")]
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n_traced = len(traced)

    def per_run(table, key) -> float:
        return (
            table.get(("setup", key), 0) / n_setups
            + table.get(("pass", key), 0) / n_traced
        )

    metrics = {}
    for name in SELF_TIME_METRICS:
        label = "job.unattributed_s" if name == "job" else f"{name}_s"
        metrics[label] = metric(per_run(tracer.self_s, name), "s")
    metrics["moves.try_incl_s"] = metric(
        per_run(tracer.total_s, "moves.try"), "s"
    )
    for label, name in CALL_COUNT_METRICS.items():
        metrics[label] = metric(per_run(tracer.calls, name), "count")
    for label, name in COUNTER_METRICS.items():
        metrics[label] = metric(per_run(tracer.counters, name), "count")
    for label, (name, counter) in PER_CALL_METRICS.items():
        calls = sum(v for (_, n), v in tracer.calls.items() if n == name)
        total = sum(
            v
            for (_, n), v in tracer.counters.items()
            if n == f"{name}.{counter}"
        )
        metrics[label] = metric(total / calls if calls else 0.0, "count")

    attempted = committed = 0
    for row in rows:
        moves = row["report"].get("moves") or {}
        attempted += sum(moves.get("attempted", {}).values())
        committed += sum(moves.get("committed", {}).values())
    metrics["moves.try_commit_ratio"] = metric(
        committed / attempted if attempted else 0.0, "ratio"
    )

    points = []
    for label, count in gates.items():
        prepare_s = samples.get(label, {}).get("prepare")
        if prepare_s and count:
            points.append((count, statistics.median(prepare_s)))
    metrics["api.prepare_exponent"] = metric(
        log_slope(points) if len(points) > 1 else 0.0, "ratio"
    )
    traced_wall = statistics.median(p.wall_s for p in traced)
    plain_wall = statistics.median(p.wall_s for p in plain)
    metrics["trace.overhead_pct"] = metric(
        100.0 * (traced_wall / plain_wall - 1.0), "%"
    )

    pass_wall = sum(p.wall_s for p in traced) / n_traced
    shares = [
        [name, round(seconds / n_traced / pass_wall, 4)]
        for (phase, name), seconds in sorted(
            tracer.self_s.items(), key=lambda item: -item[1]
        )
        if phase == "pass"
    ]
    return metrics, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end Flow benchmark (see module docstring)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "repro" / "__init__.py", GOLDEN)
               if not p.is_file()]
    if missing:
        print(
            f"error: run from a repository checkout; missing {missing[0]}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))

    workload = make_workload(args.workload, args.seed)
    result, provenance = measure(
        workload, args.seconds, bool(args.trace), args.seed
    )
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
