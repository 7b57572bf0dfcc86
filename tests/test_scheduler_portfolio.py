"""Scheduler portfolio: heuristics, incremental repair, reporting fixes."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.system import ScaloSystem
from repro.errors import SchedulingError
from repro.network.tdma import TDMAConfig
from repro.scheduler.constraints import (
    NETWORK_UTILISATION_CAP,
    build_constraints,
)
from repro.scheduler.flowsched import MinCostFlowScheduler
from repro.scheduler.heuristics import solve_greedy
from repro.scheduler.ilp import (
    AUTO_ILP_MAX_NODES,
    SOLVERS,
    Flow,
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
from repro.telemetry import Telemetry
from repro.units import ELECTRODES_PER_NODE


def _fig9_flows():
    return [
        Flow(seizure_detection_task(), weight=3.0,
             electrode_cap=ELECTRODES_PER_NODE),
        Flow(hash_similarity_task("all_all", net_budget_ms=1.0),
             weight=1.0, electrode_cap=ELECTRODES_PER_NODE),
        Flow(dtw_similarity_task("one_all", net_budget_ms=4.0),
             weight=1.0, electrode_cap=ELECTRODES_PER_NODE),
    ]


def _electrodes(schedule):
    """Recover the decision vector from a materialised schedule."""
    return np.array(
        [
            a.aggregate_electrodes / (1.0 if a.flow.task.centralised
                                      else schedule.n_nodes)
            for a in schedule.allocations
        ]
    )


class TestSolverDispatch:
    def test_unknown_solver_rejected(self):
        with pytest.raises(SchedulingError, match="unknown solver"):
            SchedulerProblem(n_nodes=4, flows=_fig9_flows(), solver="anneal")

    def test_default_solver_is_the_exact_ilp(self):
        problem = SchedulerProblem(n_nodes=11, flows=_fig9_flows())
        assert problem.solver == "ilp"
        explicit = SchedulerProblem(n_nodes=11, flows=_fig9_flows(),
                                    solver="ilp").solve()
        assert problem.solve().weighted_mbps() == explicit.weighted_mbps()

    def test_auto_small_fleet_runs_the_ilp(self):
        telemetry = Telemetry()
        n = AUTO_ILP_MAX_NODES - 1
        SchedulerProblem(n_nodes=n, flows=_fig9_flows(), solver="auto",
                         telemetry=telemetry).solve()
        reg = telemetry.registry
        assert reg.sketch("scheduler.ilp_solve_ms") is not None
        assert reg.sketch("scheduler.heuristic_solve_ms") is None

    def test_auto_fleet_scale_runs_a_heuristic(self):
        telemetry = Telemetry()
        SchedulerProblem(n_nodes=64, flows=_fig9_flows(), solver="auto",
                         telemetry=telemetry).solve()
        reg = telemetry.registry
        assert reg.sketch("scheduler.heuristic_solve_ms") is not None
        assert reg.sketch("scheduler.ilp_solve_ms") is None
        assert reg.counter("scheduler.auto_ilp_fallbacks") == 0
        assert reg.counter("scheduler.solves") == 1

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_every_solver_ships_a_feasible_schedule(self, solver):
        problem = SchedulerProblem(n_nodes=64, flows=_fig9_flows(),
                                   solver=solver)
        schedule = problem.solve()
        cs = problem.constraints()
        assert cs.verify(_electrodes(schedule)) == ()
        assert (schedule.network_utilisation
                <= NETWORK_UTILISATION_CAP + 1e-9)

    @pytest.mark.parametrize("solver", ("greedy", "flow", "auto"))
    def test_heuristics_land_close_to_the_ilp(self, solver):
        ilp = SchedulerProblem(n_nodes=256, flows=_fig9_flows(),
                               solver="ilp").solve()
        fast = SchedulerProblem(n_nodes=256, flows=_fig9_flows(),
                                solver=solver).solve()
        assert fast.weighted_mbps() >= 0.95 * ilp.weighted_mbps()


# --- post-hoc feasibility is a property, not an anecdote -----------------------

_TASK_MENU = (
    lambda: seizure_detection_task(),
    lambda: spike_sorting_task(),
    lambda: hash_similarity_task("all_all", net_budget_ms=1.0),
    lambda: hash_similarity_task("one_all", net_budget_ms=2.0),
    lambda: dtw_similarity_task("one_all", net_budget_ms=4.0),
    lambda: mi_svm_task(),
    lambda: mi_kf_task(),
)


@settings(max_examples=30, deadline=None)
@given(
    picks=st.lists(
        st.tuples(st.integers(0, len(_TASK_MENU) - 1),
                  st.integers(1, 5),
                  st.booleans()),
        min_size=1, max_size=4,
    ),
    n_nodes=st.integers(1, 200),
    power_mw=st.floats(10.0, 20.0),
    seed=st.integers(0, 3),
)
def test_portfolio_solutions_satisfy_exact_rows(picks, n_nodes, power_mw,
                                                seed):
    flows = [
        Flow(_TASK_MENU[i](), weight=float(w),
             electrode_cap=ELECTRODES_PER_NODE if capped else None)
        for i, w, capped in picks
    ]
    try:
        cs = build_constraints(n_nodes=n_nodes, flows=flows,
                               power_budget_mw=power_mw, tdma=TDMAConfig())
    except SchedulingError:  # static power alone over budget
        assume(False)
    for label, electrodes in (
        ("greedy", solve_greedy(cs, seed=seed)),
        ("flow", MinCostFlowScheduler(cs, seed=seed).solve()),
    ):
        violations = cs.verify(electrodes)
        assert violations == (), f"{label}: {violations}"
    for solver in SOLVERS:
        schedule = SchedulerProblem(
            n_nodes=n_nodes, flows=flows, power_budget_mw=power_mw,
            solver=solver, seed=seed,
        ).solve()
        assert (schedule.network_utilisation
                <= NETWORK_UTILISATION_CAP + 1e-9)
        # the exact power row (binding-node share for centralised flows;
        # the *reported* node_power_mw keeps the legacy full-linear
        # convention and is not the constraint LHS)
        electrodes = [
            a.aggregate_electrodes / (1.0 if a.flow.task.centralised
                                      else n_nodes)
            for a in schedule.allocations
        ]
        power = cs.node_power_mw(electrodes)
        assert power <= power_mw * (1 + 1e-6) + 1e-6


class TestDeterminism:
    @pytest.mark.parametrize("solver", ("greedy", "flow", "auto"))
    @pytest.mark.parametrize("n_nodes", (8, 64))
    def test_equal_seeds_are_byte_identical(self, solver, n_nodes):
        def run():
            schedule = SchedulerProblem(
                n_nodes=n_nodes, flows=_fig9_flows(), solver=solver, seed=7
            ).solve()
            return _electrodes(schedule).tobytes()

        assert run() == run() == run()

    def test_seed_changes_stay_feasible(self):
        problem = SchedulerProblem(n_nodes=48, flows=_fig9_flows())
        cs = problem.constraints()
        for seed in range(5):
            assert cs.verify(solve_greedy(cs, seed=seed)) == ()


class TestUtilisationReporting:
    """The report must be the constraint's LHS (reporting bugfix #1)."""

    def test_zero_cap_flow_books_no_phantom_airtime(self):
        # dtw all_all at 64 nodes: 64 fixed bursts alone overrun a 1 ms
        # latency budget, so the flow's cap collapses to zero.  The old
        # report still charged mult * fixed airtime for it and printed
        # utilisation >> the 0.95 cap.
        flows = [
            Flow(seizure_detection_task(), weight=1.0,
                 electrode_cap=ELECTRODES_PER_NODE),
            Flow(dtw_similarity_task("all_all", net_budget_ms=1.0),
                 weight=1.0, electrode_cap=ELECTRODES_PER_NODE),
        ]
        problem = SchedulerProblem(n_nodes=64, flows=flows)
        cs = problem.constraints()
        dtw_row = cs.rows[1]
        assert dtw_row.cap == 0.0
        schedule = problem.solve()
        dtw_alloc = schedule.allocations[1]
        assert dtw_alloc.aggregate_electrodes == pytest.approx(0.0, abs=1e-9)
        assert dtw_alloc.airtime_ms_per_period == 0.0
        assert (schedule.network_utilisation
                <= NETWORK_UTILISATION_CAP + 1e-9)

    def test_report_equals_constraint_lhs(self):
        problem = SchedulerProblem(n_nodes=64, flows=_fig9_flows())
        schedule = problem.solve()
        cs = problem.constraints()
        assert schedule.network_utilisation == pytest.approx(
            cs.utilisation(_electrodes(schedule))
        )

    def test_capped_sharing_flow_still_charges_fixed_burst(self):
        # The conservative charge is intentional: a sharing flow that
        # *can* run occupies its fixed burst even at zero electrodes.
        flows = [Flow(hash_similarity_task("one_all", net_budget_ms=2.0),
                      weight=1.0, electrode_cap=ELECTRODES_PER_NODE)]
        cs = SchedulerProblem(n_nodes=8, flows=flows).constraints()
        row = cs.rows[0]
        assert row.cap > 0
        assert row.utilisation(0.0) > 0.0


class TestMediumSaturation:
    """Explicit degrade instead of a silent RHS clamp (bugfix #2)."""

    def _flows(self):
        return [
            Flow(seizure_detection_task(), weight=1.0,
                 electrode_cap=ELECTRODES_PER_NODE),
            Flow(hash_similarity_task("one_all", net_budget_ms=1e6),
                 weight=1.0, electrode_cap=ELECTRODES_PER_NODE),
        ]

    def test_saturated_medium_degrades_explicitly(self):
        telemetry = Telemetry()
        # A 1000 ms per-round beacon overhead makes the fixed burst
        # alone overrun the utilisation cap while the (huge) latency
        # budget keeps the flow capped in — the silent-clamp cell.
        problem = SchedulerProblem(n_nodes=4, flows=self._flows(),
                                   round_overhead_ms=1000.0,
                                   telemetry=telemetry)
        cs = problem.constraints()
        assert cs.medium_saturated
        assert cs.rows[1].cap == 0.0  # sharing flow degraded to zero
        assert cs.rows[0].cap > 0.0  # local analytics unaffected
        assert cs.fixed_util == 0.0
        schedule = problem.solve()
        assert telemetry.registry.counter("scheduler.medium_saturated") >= 1
        assert schedule.allocations[1].aggregate_electrodes == pytest.approx(
            0.0, abs=1e-9
        )
        assert schedule.allocations[0].aggregate_electrodes > 0
        assert (schedule.network_utilisation
                <= NETWORK_UTILISATION_CAP + 1e-9)

    def test_unsaturated_medium_books_nothing(self):
        telemetry = Telemetry()
        problem = SchedulerProblem(n_nodes=4, flows=self._flows(),
                                   telemetry=telemetry)
        cs = problem.constraints()
        assert not cs.medium_saturated
        assert cs.fixed_util > 0.0
        schedule = problem.solve()
        assert telemetry.registry.counter("scheduler.medium_saturated") == 0
        assert schedule.allocations[1].aggregate_electrodes > 0


class TestFailoverRepair:
    """Failover repairs the warm flow solution; it never re-runs the LP."""

    def _system(self):
        telemetry = Telemetry()
        system = ScaloSystem(n_nodes=8, electrodes_per_node=2, seed=0,
                             telemetry=telemetry)
        manager = system.attach_failover(flows=_fig9_flows())
        return system, manager, telemetry.registry

    def test_failover_repairs_incrementally(self):
        system, manager, reg = self._system()
        # the initial election seats a coordinator without a handover,
        # so the warm flow state is seeded on the first real failover
        assert manager.last_schedule is None
        system.fail_node(manager.coordinator)
        event = manager.step()
        assert event is not None
        assert reg.counter("scheduler.repairs") >= 1
        assert reg.sketch("scheduler.repair_solve_ms") is not None
        # the incremental path never touches the LP
        assert reg.sketch("scheduler.ilp_solve_ms") is None
        assert reg.counter("scheduler.repair_fallbacks") == 0

    def test_repaired_schedule_is_feasible_at_reduced_size(self):
        system, manager, _ = self._system()
        for _ in range(3):  # three consecutive crashes, three repairs
            system.fail_node(manager.coordinator)
            assert manager.step() is not None
            schedule = manager.last_schedule
            assert schedule is not None
            assert schedule.n_nodes == len(system.alive_node_ids)
            cs = system.scheduler_problem(manager.flows).constraints()
            assert cs.verify(_electrodes(schedule)) == ()

    def test_reschedule_honours_solver_override(self):
        telemetry = Telemetry()
        system = ScaloSystem(n_nodes=48, electrodes_per_node=2, seed=0,
                             telemetry=telemetry)
        system.reschedule(_fig9_flows(), solver="greedy")
        reg = telemetry.registry
        assert reg.sketch("scheduler.heuristic_solve_ms") is not None
        assert reg.sketch("scheduler.ilp_solve_ms") is None

    def test_system_solver_policy_is_the_default(self):
        telemetry = Telemetry()
        system = ScaloSystem(n_nodes=48, electrodes_per_node=2, seed=0,
                             scheduler_solver="auto", telemetry=telemetry)
        system.reschedule(_fig9_flows())
        assert (telemetry.registry.sketch("scheduler.heuristic_solve_ms")
                is not None)


class TestFacadeAndCli:
    def test_solve_schedule_facade(self):
        from repro.api import solve_schedule

        schedule = solve_schedule(_fig9_flows(), n_nodes=64)
        assert schedule.n_nodes == 64
        assert schedule.weighted_mbps() > 0

    def test_sched_command_passes_gates_at_smoke_scale(self, capsys):
        from repro.__main__ import main

        assert main(["sched", "--nodes", "64", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "portfolio gates" in out

    def test_sched_solver_flag_filters_the_sweep(self, capsys):
        from repro.__main__ import main

        assert main(["sched", "--solver", "flow", "--nodes", "16",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert " greedy " not in out
