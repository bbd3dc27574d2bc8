"""The benchmark's three workloads and how a seed picks their inputs.

* ``paper`` -- the seven circuits of the dual-rail golden (at the
  golden's activity vectors, so their rows must match it exactly) plus
  the six mid-size MCNC circuits of :data:`PAPER_EXTRA`; every job is
  cold (fresh ``Flow.prepare``), as in the paper's Table 1/2 runs.
* ``layered`` -- a generated layered circuit, prepared in set-up and
  then scaled warm: Dscale there is bound by the antichain solver.
* ``rails3`` -- a layered circuit on three rails with non-adjacent
  demotion and shifter retargeting, prepared in set-up and scaled
  warm: Dscale there is bound by transactional ``MoveEngine.try_move``
  attempts and the power measurements they make.

The seed picks the primary-input switching vectors
(``ScalingOptions.activity_seed``) of every non-golden job: the
``paper`` extras and :data:`WARM_INSTANCES` instances of each warm
circuit.  Circuits themselves are fixed.  Drawing them by seed made the
metrics a matter of the draw: over five seeds, a stratified draw of
ten further MCNC names spread ``paper``'s ``dscale_s`` by 34% and its
mean savings by 13-16%, and across ``gen:`` seeds 1-8 the width-25
depth-12 three-rail circuit's Dscale time alone ranged 4.6-16.7 s.
"""

from __future__ import annotations

from dataclasses import dataclass

GOLDEN_CIRCUITS = ("z4ml", "x2", "pm1", "i1", "b9", "sct", "f51m")
"""The circuits of ``tests/golden/dual_rail_mcnc.json``, in its order."""

PAPER_EXTRA = ("C432", "apex6", "i6", "vda", "x3", "k2")
"""Mid-size MCNC circuits (160-620 mapped gates) whose cold prepare is
dominated by adjacency rebuilds (44-61% of prepare)."""

LAYERED_SPEC = "gen:layered:width=24:depth=12:seed=1"
RAILS3_SPEC = "gen:layered:width=20:depth=10:seed=1"
RAILS3 = (5.0, 4.3, 3.6)
WARM_INSTANCES = 3
"""Activity-vector instances of a warm workload's circuit; each is one
set-up (library build plus prepare) and one job per pass."""


@dataclass(frozen=True)
class Workload:
    """One workload: its jobs, shared flow configuration and job style.

    ``jobs`` pairs a label (the row key the checks use) with the
    ``FlowConfig`` fields that job sets on top of ``config``.
    """

    name: str
    jobs: tuple[tuple[str, dict], ...]
    warm: bool
    config: dict


def _activity_job(circuit: str, activity_seed: int) -> tuple[str, dict]:
    return (
        f"{circuit}@activity={activity_seed}",
        {"circuit": circuit, "options": {"activity_seed": activity_seed}},
    )


def _warm_jobs(spec: str, seed: int) -> tuple[tuple[str, dict], ...]:
    return tuple(
        _activity_job(spec, seed * WARM_INSTANCES + i)
        for i in range(WARM_INSTANCES)
    )


def make_workload(name: str, seed: int) -> Workload:
    if name == "paper":
        golden = tuple((c, {"circuit": c}) for c in GOLDEN_CIRCUITS)
        extra = tuple(_activity_job(c, seed) for c in PAPER_EXTRA)
        return Workload(name, golden + extra, warm=False, config={})
    if name == "layered":
        return Workload(
            name, _warm_jobs(LAYERED_SPEC, seed), warm=True, config={}
        )
    if name == "rails3":
        return Workload(
            name,
            _warm_jobs(RAILS3_SPEC, seed),
            warm=True,
            config={
                "rails": RAILS3,
                "non_adjacent": True,
                "retarget_shifters": True,
            },
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("paper", "layered", "rails3")
