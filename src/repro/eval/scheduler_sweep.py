"""Scheduler portfolio evaluation: optimality gap x solve-time sweep.

The portfolio promise is quantitative: at fleet scale (256+ nodes) the
seeded heuristics must land within 5 % of the exact ILP objective while
solving at least 10x faster, and incremental failover repair must beat a
from-scratch ILP re-solve by at least 5x.  This module measures all
three claims across representative workloads up to 1024 nodes, books
``scheduler.optimality_gap`` gauges (labelled by workload / solver /
node count) so the gates are assertable from a metrics CSV, and feeds
both the ``python -m repro sched`` command and the scheduler benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import SchedulingError
from repro.scheduler.flowsched import MinCostFlowScheduler
from repro.scheduler.ilp import (
    AUTO_ILP_MAX_NODES,
    Flow,
    Schedule,
    SchedulerProblem,
)
from repro.scheduler.model import (
    dtw_similarity_task,
    hash_similarity_task,
    mi_kf_task,
    mi_svm_task,
    seizure_detection_task,
    spike_sorting_task,
)
from repro.telemetry import NULL_TELEMETRY, TelemetryLike
from repro.units import ELECTRODES_PER_NODE, NODE_POWER_CAP_MW

#: Node counts on the sweep x-axis — fleet scale, past the paper's 64.
SWEEP_NODE_COUNTS = (16, 64, 256, 1024)

#: Portfolio members the sweep compares against the exact ILP.
SWEEP_SOLVERS = ("greedy", "flow", "auto")

#: Gates: gap <= 5 % with >= 10x speedup at 256+ nodes; repair >= 5x.
GATE_MAX_GAP = 0.05
GATE_MIN_SPEEDUP = 10.0
GATE_NODE_FLOOR = 256
REPAIR_GATE_MIN_SPEEDUP = 5.0


def sweep_flows(workload: str) -> list[Flow]:
    """The flow mix for one named sweep workload.

    ``seizure`` is the Fig. 9a propagation triple; ``mixed`` adds local
    analytics so power and NVM rows bind alongside the medium; and
    ``movement`` exercises the latency-exempt all-one aggregation path.
    """
    if workload == "seizure":
        return [
            Flow(seizure_detection_task(), weight=3.0,
                 electrode_cap=ELECTRODES_PER_NODE),
            Flow(hash_similarity_task("all_all", net_budget_ms=1.0),
                 weight=1.0, electrode_cap=ELECTRODES_PER_NODE),
            Flow(dtw_similarity_task("one_all", net_budget_ms=4.0),
                 weight=1.0, electrode_cap=ELECTRODES_PER_NODE),
        ]
    if workload == "mixed":
        return [
            Flow(seizure_detection_task(), weight=4.0,
                 electrode_cap=ELECTRODES_PER_NODE),
            Flow(spike_sorting_task(), weight=2.0,
                 electrode_cap=ELECTRODES_PER_NODE),
            Flow(hash_similarity_task("all_all", net_budget_ms=1.0),
                 weight=2.0, electrode_cap=ELECTRODES_PER_NODE),
            Flow(hash_similarity_task("one_all", net_budget_ms=2.0),
                 weight=1.0, electrode_cap=ELECTRODES_PER_NODE),
            Flow(dtw_similarity_task("one_all", net_budget_ms=4.0),
                 weight=1.0, electrode_cap=ELECTRODES_PER_NODE),
        ]
    if workload == "movement":
        return [
            Flow(mi_svm_task(), weight=2.0,
                 electrode_cap=ELECTRODES_PER_NODE),
            Flow(spike_sorting_task(), weight=1.0,
                 electrode_cap=ELECTRODES_PER_NODE),
            Flow(hash_similarity_task("one_all", net_budget_ms=2.0),
                 weight=1.0, electrode_cap=ELECTRODES_PER_NODE),
        ]
    if workload == "uncapped":
        # No electrode caps, so the power / medium / NVM budgets bind —
        # the cell where heuristic gaps are actually non-trivial.
        return [
            Flow(seizure_detection_task(), weight=2.0),
            Flow(hash_similarity_task("all_all", net_budget_ms=1.0),
                 weight=1.0),
            Flow(mi_kf_task(), weight=1.0),
        ]
    raise SchedulingError(f"unknown sweep workload {workload!r}; "
                          f"expected one of {SWEEP_WORKLOADS}")


#: Workload names accepted by :func:`sweep_flows`.
SWEEP_WORKLOADS = ("seizure", "mixed", "movement", "uncapped")


@dataclass(frozen=True)
class GapPoint:
    """One (workload, node count, solver) cell of the sweep."""

    workload: str
    n_nodes: int
    solver: str
    #: relative objective shortfall vs the exact ILP (0.0 = optimal)
    gap: float
    solve_ms: float
    ilp_ms: float
    feasible: bool

    @property
    def speedup(self) -> float:
        return self.ilp_ms / self.solve_ms if self.solve_ms > 0 else 0.0

    def meets_gates(self) -> bool:
        """The BENCH gates for this cell (vacuous below the node floor)."""
        if not self.feasible or self.gap > GATE_MAX_GAP:
            return False
        if self.n_nodes >= GATE_NODE_FLOOR:
            return self.speedup >= GATE_MIN_SPEEDUP
        return True


@dataclass(frozen=True)
class RepairPoint:
    """Incremental failover repair vs a from-scratch ILP re-solve."""

    n_nodes: int
    repair_ms: float
    ilp_ms: float
    feasible: bool

    @property
    def speedup(self) -> float:
        return self.ilp_ms / self.repair_ms if self.repair_ms > 0 else 0.0

    def meets_gates(self) -> bool:
        return self.feasible and self.speedup >= REPAIR_GATE_MIN_SPEEDUP


def _objective(schedule: Schedule) -> float:
    """The ILP objective at a solved schedule (weighted electrodes)."""
    return sum(a.flow.weight * a.aggregate_electrodes
               for a in schedule.allocations)


def _best_ms(fn, repeats: int) -> tuple[object, float]:
    """(result, best wall-clock ms) over ``repeats`` timed calls."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, (time.perf_counter() - start) * 1e3)
    return result, best


def gap_sweep(
    node_counts=SWEEP_NODE_COUNTS,
    solvers=SWEEP_SOLVERS,
    workloads=SWEEP_WORKLOADS,
    power_mw: float = NODE_POWER_CAP_MW,
    seed: int = 0,
    repeats: int = 3,
    telemetry: TelemetryLike = NULL_TELEMETRY,
) -> list[GapPoint]:
    """Measure gap and solve time for every (workload, nodes, solver).

    Both sides time the full :meth:`SchedulerProblem.solve` path
    (constraint build included) so the comparison is end to end.  The
    timed solves run untelemetered — a live handle books spans and
    solve-time samples inside the solver, a fixed cost that would penalise a
    150 us heuristic ~20x harder than the 2 ms LP — and the measured
    values are booked into ``telemetry`` afterwards: one
    ``scheduler.optimality_gap`` gauge per cell plus
    ``scheduler.heuristic_solve_ms`` / ``scheduler.ilp_solve_ms``
    observations.  Every heuristic solution is re-checked against the
    exact constraint rows; an infeasible cell reports
    ``feasible=False`` rather than a gap.
    """
    points: list[GapPoint] = []
    for workload in workloads:
        for n in node_counts:
            # Flows are built once per cell, outside the timed region:
            # every production caller (reschedule, failover) already
            # holds its flow list when it asks for a solve.
            flows = sweep_flows(workload)

            def _solve(solver: str) -> Schedule:
                return SchedulerProblem(
                    n_nodes=n, flows=flows,
                    power_budget_mw=power_mw, solver=solver, seed=seed,
                ).solve()

            ilp_schedule, ilp_ms = _best_ms(lambda: _solve("ilp"), repeats)
            ilp_obj = _objective(ilp_schedule)
            telemetry.observe("scheduler.ilp_solve_ms", ilp_ms)
            for solver in solvers:
                try:
                    schedule, solve_ms = _best_ms(
                        lambda s=solver: _solve(s), repeats
                    )
                except SchedulingError:
                    points.append(GapPoint(workload, n, solver, float("inf"),
                                           float("inf"), ilp_ms, False))
                    continue
                gap = (max(0.0, ilp_obj - _objective(schedule)) / ilp_obj
                       if ilp_obj > 0 else 0.0)
                telemetry.set_gauge("scheduler.optimality_gap", gap,
                                    workload=workload, solver=solver,
                                    nodes=n)
                if solver != "auto" or n >= AUTO_ILP_MAX_NODES:
                    telemetry.observe("scheduler.heuristic_solve_ms",
                                      solve_ms)
                points.append(GapPoint(workload, n, solver, gap, solve_ms,
                                       ilp_ms, True))
    return points


def repair_speedup(
    n_nodes: int = 64,
    workload: str = "seizure",
    power_mw: float = NODE_POWER_CAP_MW,
    seed: int = 0,
    repeats: int = 3,
    telemetry: TelemetryLike = NULL_TELEMETRY,
) -> RepairPoint:
    """Time one-node-crash repair against a from-scratch ILP re-solve.

    Warms a :class:`MinCostFlowScheduler` on the pre-crash fleet, then
    times :meth:`~MinCostFlowScheduler.repair` against the shrunken
    constraint system — exactly what :class:`~repro.recovery.failover.
    FailoverManager` runs at failover — and compares with a cold
    ``solver="ilp"`` solve of the same post-crash instance.
    """
    def _problem(n: int, solver: str) -> SchedulerProblem:
        return SchedulerProblem(
            n_nodes=n, flows=sweep_flows(workload),
            power_budget_mw=power_mw, solver=solver, seed=seed,
        )

    def _repair() -> tuple[bool, float]:
        repairer = MinCostFlowScheduler(
            _problem(n_nodes, "flow").constraints(), seed=seed
        )
        repairer.solve()
        after = _problem(n_nodes - 1, "flow").constraints()
        start = time.perf_counter()
        electrodes = repairer.repair(after)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        return not after.verify(electrodes), elapsed_ms

    best_repair = float("inf")
    feasible = True
    for _ in range(max(1, repeats)):
        ok, elapsed_ms = _repair()
        feasible = feasible and ok
        best_repair = min(best_repair, elapsed_ms)
    _, ilp_ms = _best_ms(lambda: _problem(n_nodes - 1, "ilp").solve(),
                         repeats)
    telemetry.observe("scheduler.repair_solve_ms", best_repair)
    return RepairPoint(n_nodes, best_repair, ilp_ms, feasible)
