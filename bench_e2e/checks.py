"""Correctness checks every result row passes, run outside timed regions.

Each (circuit, method) row of a job must:

* leave a legal multi-rail state (``ScalingState.validate``);
* meet the timing budget under an independent from-scratch re-time
  (``ScalingState.full_timing``), to within 1e-9 ns;
* never raise power (``power_after_uw <= power_before_uw``);
* equal, modulo volatile fields, the row the same circuit and method
  gave on the run's first pass (``repro.flow.store.rows_equal``);
* on a golden circuit of the ``paper`` workload, equal the committed
  dual-rail golden field for field.
"""

from __future__ import annotations

import hashlib
import json

from repro.flow.store import normalize_row, rows_equal

GOLDEN_FIELDS = (
    "power_before_uw",
    "power_after_uw",
    "improvement_pct",
    "n_low",
    "worst_delay_ns",
    "n_converters",
)
TIMING_TOLERANCE_NS = 1e-9


def golden_fields(ctx) -> dict:
    """The golden file's comparable fields for one flow context."""
    report = ctx.report
    fields = {name: getattr(report, name) for name in GOLDEN_FIELDS}
    fields["low_nodes"] = sorted(ctx.state.low_nodes())
    fields["lc_edges"] = sorted(map(list, ctx.state.lc_edges))
    return fields


class RowChecker:
    """Checks rows against the first pass's rows and the golden runs."""

    def __init__(self, golden_runs: dict | None = None):
        self.golden_runs = golden_runs or {}
        self.reference: dict[tuple[str, str], dict] = {}

    def check(self, label: str, circuit: str, method: str, ctx) -> list[str]:
        """Every problem with one row (empty when it passes).

        ``label`` keys the first-pass reference row; ``circuit`` keys
        the golden runs.
        """
        where = f"{label}:{method}"
        problems = []
        state, report = ctx.state, ctx.report
        try:
            state.validate()
        except AssertionError as exc:
            problems.append(f"{where}: validate: {exc}")
        worst = state.full_timing().worst_delay
        if not worst <= ctx.tspec + TIMING_TOLERANCE_NS:
            problems.append(
                f"{where}: re-timed worst delay {worst!r} > tspec "
                f"{ctx.tspec!r}"
            )
        if not report.power_after_uw <= report.power_before_uw:
            problems.append(
                f"{where}: power rose {report.power_before_uw!r} -> "
                f"{report.power_after_uw!r}"
            )
        row = ctx.artifact.to_row()
        first = self.reference.setdefault((label, method), row)
        if not rows_equal([first], [row]):
            problems.append(f"{where}: row differs from the first pass")
        want = self.golden_runs.get(f"{circuit}:{method}")
        if want is not None:
            got = golden_fields(ctx)
            for name, value in got.items():
                if value != want[name]:
                    problems.append(
                        f"{where}: {name} {value!r} != golden {want[name]!r}"
                    )
        return problems

    def rows(self) -> list[dict]:
        return list(self.reference.values())

    def digest(self) -> str:
        """SHA-256 over the first-pass rows, volatile fields removed."""
        lines = sorted(
            json.dumps(normalize_row(row), sort_keys=True)
            for row in self.rows()
        )
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()
