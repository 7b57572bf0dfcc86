"""The high-level facade: the entry points and the types they take and return.

Examples, notebooks, and the README quick-start import from here instead
of reaching five modules deep::

    from repro.api import build_system, run_query

    system = build_system(n_nodes=4, electrodes_per_node=8)
    system.ingest(windows)
    result = run_query(system, "q3", (0, 1))

Many concurrent callers go through the serving layer instead:
:func:`serve_session` builds a seeded fleet and multiplexes one
open-loop load onto the same query path with admission control and
coalescing; :func:`chaos_sweep`, :func:`run_storm` and
:func:`run_partition_storm` replay fault storms against it.

Multi-tenant deployments go one level up: :func:`build_fabric` runs
many independent fleets behind one tenant-aware serving plane,
:func:`run_fleet_query` routes a tenant's query to its owning fleet,
:func:`run_population_query` scatter-gathers one query across every
fleet with partial-coverage merge, :func:`fabric_session` drives a
seeded multi-tenant load, and :func:`run_isolation_gate` runs the
noisy-neighbour gate.  :func:`solve_schedule` solves one
electrode-allocation instance and :func:`run_scenario` runs a canned
telemetry scenario.

A name is exported here only if it is one of those entry points, a type
an entry point's signature takes or returns, or an error an entry point
raises.  Everything else (token buckets, breakers, shard maps, the
open-loop driver, health-engine parts, ...) is imported from its own
module, e.g. :mod:`repro.serving`, :mod:`repro.fabric` or
:mod:`repro.telemetry.health`.
"""

from __future__ import annotations

import numpy as np

from repro.apps.queries import DistributedQueryResult, QuerySpec
from repro.core.system import ScaloSystem
from repro.errors import QueryRejected, ScaloError
from repro.eval.chaos import (
    ChaosConfig,
    ChaosReport,
    PartitionStormReport,
    StormLevel,
    StormResult,
    chaos_sweep,
    run_partition_storm,
    run_storm,
)
from repro.fabric import (
    FabricConfig,
    FabricLoadConfig,
    FabricReport,
    FleetFabric,
    IsolationConfig,
    IsolationResult,
    PopulationResult,
    fabric_session,
    run_isolation_gate,
)
from repro.faults import FaultPlan
from repro.scheduler.ilp import Flow, Schedule
from repro.serving import (
    LoadGenConfig,
    QueryResponse,
    QueryServer,
    RetryPolicy,
    ServeReport,
    ServerConfig,
    serve_session,
)
from repro.telemetry import NULL_TELEMETRY as _NULL_TELEMETRY
from repro.telemetry import Telemetry, TelemetryLike
from repro.telemetry.health import HealthEngine
from repro.telemetry.scenarios import run_scenario
from repro.units import WINDOW_MS as _WINDOW_MS

__all__ = [
    # entry points
    "build_system",
    "run_query",
    "run_scenario",
    "serve_session",
    "chaos_sweep",
    "run_storm",
    "run_partition_storm",
    "build_fabric",
    "run_fleet_query",
    "run_population_query",
    "fabric_session",
    "run_isolation_gate",
    "solve_schedule",
    # types the entry points take
    "ChaosConfig",
    "FabricConfig",
    "FabricLoadConfig",
    "FaultPlan",
    "Flow",
    "HealthEngine",
    "IsolationConfig",
    "LoadGenConfig",
    "QuerySpec",
    "RetryPolicy",
    "ServerConfig",
    "StormLevel",
    "TelemetryLike",
    # types the entry points return
    "ChaosReport",
    "DistributedQueryResult",
    "FabricReport",
    "FleetFabric",
    "IsolationResult",
    "PartitionStormReport",
    "PopulationResult",
    "QueryResponse",
    "QueryServer",
    "ScaloSystem",
    "Schedule",
    "ServeReport",
    "StormResult",
    "Telemetry",
    # errors the entry points raise
    "QueryRejected",
    "ScaloError",
]


def build_system(
    n_nodes: int = 4,
    electrodes_per_node: int = 8,
    *,
    measure: str = "dtw",
    seed: int = 0,
    telemetry: TelemetryLike = _NULL_TELEMETRY,
    **overrides,
) -> ScaloSystem:
    """Assemble a :class:`~repro.core.system.ScaloSystem` fleet.

    Args:
        n_nodes: implant count.
        electrodes_per_node: electrodes per implant.
        measure: similarity measure the shared LSH approximates
            (``dtw`` | ``euclidean`` | ``xcor`` | ``emd``).
        seed: fleet-wide seed (network jitter, clock offsets).
        telemetry: optional live :class:`~repro.telemetry.Telemetry`
            handle; metrics and spans from every layer land on it.
        **overrides: any further :class:`ScaloSystem` field (``tdma``,
            ``arq``, ``power_cap_mw``, ...).
    """
    return ScaloSystem(
        n_nodes=n_nodes,
        electrodes_per_node=electrodes_per_node,
        lsh_measure=measure,
        seed=seed,
        telemetry=telemetry,
        **overrides,
    )


def solve_schedule(
    flows: list[Flow],
    n_nodes: int,
    *,
    power_budget_mw: float | None = None,
    solver: str = "auto",
    seed: int = 0,
    telemetry: TelemetryLike = _NULL_TELEMETRY,
) -> Schedule:
    """Solve one electrode-allocation instance with the solver portfolio.

    Args:
        flows: the schedulable flows (task model + priority weight each).
        n_nodes: fleet size the schedule spans.
        power_budget_mw: per-node power budget; defaults to the paper's
            node cap.
        solver: ``"ilp"`` (exact LP), ``"greedy"`` (seeded
            water-filling), ``"flow"`` (min-cost-flow), or ``"auto"``
            (exact below :data:`~repro.scheduler.ilp.AUTO_ILP_MAX_NODES`
            nodes, first verified heuristic at fleet scale).  Heuristic
            solutions are always post-hoc verified against the exact
            constraint rows.
        seed: heuristic ordering seed (byte-identical per seed).
        telemetry: books ``scheduler.solves`` and the
            ``scheduler.ilp_solve_ms`` / ``scheduler.heuristic_solve_ms``
            wall-clock series.

    Returns:
        The :class:`~repro.scheduler.ilp.Schedule`.
    """
    from repro.scheduler.ilp import SchedulerProblem
    from repro.units import NODE_POWER_CAP_MW

    return SchedulerProblem(
        n_nodes=n_nodes,
        flows=flows,
        power_budget_mw=(
            NODE_POWER_CAP_MW if power_budget_mw is None else power_budget_mw
        ),
        solver=solver,
        seed=seed,
        telemetry=telemetry,
    ).solve()


def run_query(
    system: ScaloSystem,
    kind: str,
    window_range: tuple[int, int],
    *,
    template: np.ndarray | None = None,
    use_hash: bool = True,
    time_range_ms: float | None = None,
    seizure_flags: dict[int, set[int]] | None = None,
    distributed: bool = False,
) -> DistributedQueryResult:
    """Run one interactive query (Q1/Q2/Q3) over the fleet.

    Args:
        system: the fleet to query.
        kind: ``"q1"`` (seizure-flagged windows), ``"q2"`` (windows
            matching ``template``), or ``"q3"`` (everything in range).
        window_range: half-open ``[start, stop)`` window-index range.
        template: the probe window (required for Q2).
        use_hash: Q2 only — hash filter (default) vs exact DTW.
        time_range_ms: time span the query covers; derived from
            ``window_range`` when omitted.
        seizure_flags: per-node window indexes the local detector
            flagged (what Q1 filters on).
        distributed: disseminate the query over the radio network and
            collect per-node responses instead of scanning storage
            coordinator-side.

    Returns:
        A :class:`~repro.apps.queries.DistributedQueryResult` — matched
        rows plus degraded/coverage accounting for dead nodes.
    """
    if time_range_ms is None:
        start, stop = window_range
        time_range_ms = max(stop - start, 1) * _WINDOW_MS
    spec = QuerySpec(kind=kind, time_range_ms=time_range_ms, use_hash=use_hash)
    run = system.query_distributed if distributed else system.query
    return run(
        spec, window_range, template=template, seizure_flags=seizure_flags
    )


def build_fabric(
    n_fleets: int = 4,
    nodes_per_fleet: int = 4,
    seed: int = 0,
    *,
    electrodes: int = 8,
    n_windows: int = 4,
    telemetry: TelemetryLike = _NULL_TELEMETRY,
    **overrides,
) -> FleetFabric:
    """Assemble a multi-tenant :class:`~repro.fabric.FleetFabric`.

    Each of the ``n_fleets`` fleets is an independent, pre-ingested
    :class:`ScaloSystem` seeded ``seed + fleet_id`` behind its own
    tenant-isolated :class:`~repro.serving.QueryServer`; tenants route
    to fleets via a consistent-hash shard map.

    Args:
        n_fleets: fleets (patient sites) in the fabric.
        nodes_per_fleet: implant count per fleet.
        seed: fabric seed; fleet ``i`` runs at ``seed + i``.
        electrodes: electrodes per implant.
        n_windows: pre-ingested windows per fleet.
        telemetry: optional shared :class:`~repro.telemetry.Telemetry`
            handle (per-tenant ``fabric.*`` counters land on it).
        **overrides: any further :class:`~repro.fabric.FabricConfig`
            field (``tenant_queue_quota``, ``gather_base_ms``, ...).
    """
    config = FabricConfig(
        n_fleets=n_fleets,
        nodes_per_fleet=nodes_per_fleet,
        electrodes=electrodes,
        n_windows=n_windows,
        seed=seed,
        **overrides,
    )
    return FleetFabric(config=config, telemetry=telemetry)


def _resolve_spec(
    kind: str | QuerySpec,
    window_range: tuple[int, int] | None,
    time_range_ms: float | None,
) -> QuerySpec:
    if isinstance(kind, QuerySpec):
        return kind
    if time_range_ms is None:
        if window_range is not None:
            start, stop = window_range
            time_range_ms = max(stop - start, 1) * _WINDOW_MS
        else:
            time_range_ms = _WINDOW_MS
    return QuerySpec(kind=kind, time_range_ms=time_range_ms)


def run_fleet_query(
    fabric: FleetFabric,
    tenant: str,
    kind: str | QuerySpec,
    window_range: tuple[int, int] | None = None,
    *,
    template: np.ndarray | None = None,
    deadline_ms: float | None = None,
    min_coverage: float | None = None,
    time_range_ms: float | None = None,
) -> QueryResponse:
    """Run one tenant query through its owning fleet's serving plane.

    Routes via the shard map, submits through admission control (a shed
    raises :class:`~repro.errors.QueryRejected` with the fleet's
    reason), dispatches, and returns the tenant's
    :class:`~repro.serving.QueryResponse`.  ``kind`` is a query kind
    string or a pre-built :class:`QuerySpec`; ``window_range`` defaults
    to the fleet's full ingested range.
    """
    spec = _resolve_spec(kind, window_range, time_range_ms)
    fleet_id, request_id = fabric.submit(
        tenant,
        spec,
        window_range=window_range,
        template=template,
        deadline_ms=deadline_ms,
        min_coverage=min_coverage,
    )
    shard = fabric.shards[fleet_id]
    shard.server.drain()
    return next(
        r
        for r in reversed(shard.server.responses)
        if r.request_id == request_id
    )


def run_population_query(
    fabric: FleetFabric,
    kind: str | QuerySpec,
    window_range: tuple[int, int] | None = None,
    *,
    template: np.ndarray | None = None,
    min_coverage: float = 0.0,
    fleets: tuple[int, ...] | None = None,
    time_range_ms: float | None = None,
) -> PopulationResult:
    """Scatter one query across fleets, gather with coverage merge.

    The cross-fleet entry point: submits through every targeted fleet's
    serving plane concurrently and merges with node-weighted partial
    coverage (a shed or degraded fleet lowers ``coverage`` instead of
    failing the query — gate on ``result.sla_met``).
    """
    spec = _resolve_spec(kind, window_range, time_range_ms)
    return fabric.population_query(
        spec,
        template=template,
        min_coverage=min_coverage,
        fleets=fleets,
    )
