"""Seeded open-loop load generation for the query server.

An *open-loop* generator emits arrivals on its own schedule regardless
of how the server is doing (the honest way to measure shedding: a
closed loop would self-throttle and hide overload).  Arrivals are drawn
from one seeded RNG — exponential inter-arrival gaps at the offered
QPS, clients and query kinds sampled from fixed mixes, Q2 templates
drawn from a small pool so compatible queries actually coalesce — and
the whole timeline is a pure function of the config, so two runs with
the same seed offer byte-identical load.

Clients can carry a :class:`~repro.serving.reliability.RetryPolicy`:
a shed request is then re-offered after the larger of the server's
``retry_after_ms`` hint and the policy's seeded backoff, keeping the
retried timeline a pure function of the seed.  *Availability* —
``completed / offered`` over unique requests — is the headline chaos
metric.

:func:`serve_session` is the everything-wired entry point used by the
``serve``/``chaos`` CLIs, the telemetry scenarios, and the benchmarks:
build a seeded fleet and ingest (:func:`build_fleet`, the one fleet build
the fabric shares), optionally replay a
:class:`~repro.faults.plan.FaultPlan` against it while the load runs
(the health monitor's belief feeds the server), and return the server
plus a :class:`ServeReport`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.apps.queries import QueryCostModel, QueryEngine, QuerySpec
from repro.errors import ConfigurationError, QueryRejected
from repro.serving.reliability import RetryPolicy
from repro.serving.server import QueryResponse, QueryServer, ServerConfig
from repro.telemetry import NULL_TELEMETRY, TelemetryLike

if TYPE_CHECKING:
    from repro.core.system import ScaloSystem
    from repro.faults.plan import FaultPlan
    from repro.telemetry.health import HealthEngine


@dataclass(frozen=True)
class LoadGenConfig:
    """One open-loop load description."""

    n_requests: int = 64
    offered_qps: float = 20.0
    #: anything ``np.random.default_rng`` accepts (the fabric draws each
    #: tenant's stream at ``(seed, tenant_index)``)
    seed: int | tuple[int, ...] = 0
    n_clients: int = 4
    #: relative deadline stamped on every request (ms after arrival)
    deadline_ms: float = 250.0
    #: q1/q2/q3 mix (normalised at draw time)
    kind_weights: tuple[float, float, float] = (0.25, 0.5, 0.25)
    #: Q2 probes are drawn from a pool this large, so repeats coalesce
    n_templates: int = 3
    #: time span each query covers (the Fig. 10 cost-model input)
    time_range_ms: float = 110.0
    #: fraction of data matching Q1/Q2 predicates (Q3 ships everything)
    match_fraction: float = 0.05
    #: coverage SLA stamped on every request (0 = answers always satisfy)
    min_coverage: float = 0.0

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ConfigurationError("need at least one request")
        if self.offered_qps <= 0:
            raise ConfigurationError("offered load must be positive")
        if self.n_clients < 1:
            raise ConfigurationError("need at least one client")
        if self.deadline_ms <= 0:
            raise ConfigurationError("deadline must be positive")
        if (
            len(self.kind_weights) != 3
            or not all(math.isfinite(w) and w >= 0 for w in self.kind_weights)
            or sum(self.kind_weights) <= 0
        ):
            raise ConfigurationError(
                "kind weights must be three finite, non-negative numbers "
                "with a positive sum"
            )
        if self.n_templates < 1:
            raise ConfigurationError("need at least one template")
        if self.time_range_ms <= 0:
            raise ConfigurationError("time range must be positive")
        if not 0 <= self.match_fraction <= 1:
            raise ConfigurationError("match fraction must be in [0, 1]")
        if not 0 <= self.min_coverage <= 1:
            raise ConfigurationError("coverage SLA must be in [0, 1]")


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when, who, and what to ask."""

    at_ms: float
    client: str
    spec: QuerySpec
    template_index: int | None


def generate_arrivals(config: LoadGenConfig) -> list[Arrival]:
    """Draw the deterministic arrival timeline for one load config."""
    rng = np.random.default_rng(config.seed)
    weights = np.asarray(config.kind_weights, dtype=float)
    weights = weights / weights.sum()
    arrivals: list[Arrival] = []
    t = 0.0
    for _ in range(config.n_requests):
        t += float(rng.exponential(1e3 / config.offered_qps))
        client = f"c{int(rng.integers(config.n_clients)):02d}"
        kind = ("q1", "q2", "q3")[int(rng.choice(3, p=weights))]
        template_index = (
            int(rng.integers(config.n_templates)) if kind == "q2" else None
        )
        spec = QuerySpec(
            kind=kind,
            time_range_ms=config.time_range_ms,
            match_fraction=1.0 if kind == "q3" else config.match_fraction,
        )
        arrivals.append(Arrival(t, client, spec, template_index))
    return arrivals


@dataclass
class ServeReport:
    """What one open-loop run did, summarised for tables and gates.

    ``completed`` counts *unique* answered requests; a server-side
    coverage-SLA re-execution replaces its earlier answer rather than
    counting twice, and latency/miss statistics are taken over each
    request's final answer.
    """

    offered_qps: float
    n_offered: int
    completed: int
    shed: int
    deadline_misses: int
    waves: int
    coalesced_requests: int
    mean_latency_ms: float
    p50_latency_ms: float
    p99_latency_ms: float
    max_queue_depth: int
    degraded_responses: int
    response_log: str = field(repr=False, default="")
    #: shed offers the client retried (and which later completed or
    #: exhausted the policy)
    client_retries: int = 0
    #: server-side coverage-SLA re-executions
    server_retries: int = 0
    #: responses below their coverage SLA, before/after re-execution
    sla_violations_initial: int = 0
    sla_violations_final: int = 0
    breaker_opened: int = 0
    breaker_half_open: int = 0
    breaker_closed: int = 0
    #: waves served per brownout tier (tier → count)
    brownout_waves: dict[int, int] = field(default_factory=dict)
    brownout_rejections: int = 0
    timeouts_charged: int = 0
    results_evicted: int = 0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.n_offered if self.n_offered else 0.0

    @property
    def miss_rate(self) -> float:
        return self.deadline_misses / self.completed if self.completed else 0.0

    @property
    def availability(self) -> float:
        """Unique requests answered / unique requests offered."""
        return self.completed / self.n_offered if self.n_offered else 1.0


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(np.ceil(q / 100.0 * len(sorted_values))))
    return sorted_values[rank - 1]


def percentile(values, q: float) -> float:
    """Deterministic nearest-rank percentile over unsorted ``values``.

    The one percentile definition every serving/fabric report uses, so
    per-tenant and per-fleet numbers are always comparable.
    """
    return _percentile(sorted(float(v) for v in values), q)


def final_responses(server: QueryServer) -> list[QueryResponse]:
    """Each request's latest answer (re-executions supersede), id-ordered."""
    final: dict[int, QueryResponse] = {}
    for response in server.responses:
        current = final.get(response.request_id)
        if current is None or response.attempt > current.attempt:
            final[response.request_id] = response
    return [final[rid] for rid in sorted(final)]


def summarise(
    server: QueryServer,
    offered_qps: float,
    n_offered: int,
    shed: int,
    client_retries: int = 0,
) -> ServeReport:
    """Fold a finished server's responses into a :class:`ServeReport`."""
    finals = final_responses(server)
    latencies = sorted(r.latency_ms for r in finals)
    wave_ids = {r.wave_id for r in server.responses}
    coalesced = sum(1 for r in finals if r.wave_size > 1)
    stats = server.stats
    return ServeReport(
        offered_qps=offered_qps,
        n_offered=n_offered,
        completed=len(finals),
        shed=shed,
        deadline_misses=sum(r.deadline_missed for r in finals),
        waves=len(wave_ids),
        coalesced_requests=coalesced,
        mean_latency_ms=float(np.mean(latencies)) if latencies else 0.0,
        p50_latency_ms=_percentile(latencies, 50.0),
        p99_latency_ms=_percentile(latencies, 99.0),
        max_queue_depth=server.max_queue_depth,
        degraded_responses=sum(r.degraded for r in finals),
        response_log=server.response_log(),
        client_retries=client_retries,
        server_retries=stats.retries,
        sla_violations_initial=stats.sla_violations,
        sla_violations_final=sum(not r.sla_met for r in finals),
        breaker_opened=stats.breaker_opened,
        breaker_half_open=stats.breaker_half_open,
        breaker_closed=stats.breaker_closed,
        brownout_waves=dict(sorted(stats.brownout_waves.items())),
        brownout_rejections=stats.brownout_rejections,
        timeouts_charged=stats.timeouts_charged,
        results_evicted=stats.results_evicted,
    )


def run_open_loop(
    server: QueryServer,
    arrivals: list[Arrival],
    window_range: tuple[int, int],
    templates: list[np.ndarray],
    *,
    deadline_ms: float = 250.0,
    min_coverage: float = 0.0,
    client_retry: RetryPolicy | None = None,
    on_advance=None,
    finalize=None,
) -> tuple[int, int, int]:
    """Drive one arrival timeline through a server.

    Between offers the server dispatches whatever waves can start
    (``run_until``); ``on_advance(t_ms)`` — called before each offer and
    once after the last — lets a caller interleave external timelines
    (the fault injector's TDMA rounds).  ``finalize(t_ms)`` runs after
    the last offer but *before* the final drain, so a chaos driver can
    play out the rest of its fault plan (letting crashed nodes reboot
    and parked SLA re-executions reschedule) while requests are still
    in flight.

    With a ``client_retry`` policy, a shed offer is re-enqueued at the
    larger of the server's ``retry_after_ms`` hint and the policy's
    seeded backoff; only offers that exhaust the policy count as shed.
    Offers pop in global time order, so per-client admission timestamps
    stay monotonic.  Returns ``(n_offered, n_shed, n_client_retries)``
    over *unique* arrivals; responses accumulate on the server.
    """
    heap: list[tuple[float, int, int]] = [
        (arrival.at_ms, seq, 0) for seq, arrival in enumerate(arrivals)
    ]
    heapq.heapify(heap)
    shed = 0
    client_retries = 0
    last_t = 0.0
    while heap:
        at, seq, attempt = heapq.heappop(heap)
        last_t = at
        arrival = arrivals[seq]
        if on_advance is not None:
            on_advance(at)
        server.run_until(at)
        template = (
            templates[arrival.template_index % len(templates)]
            if arrival.template_index is not None
            else None
        )
        try:
            server.submit(
                arrival.client,
                arrival.spec,
                window_range,
                template=template,
                deadline_ms=deadline_ms,
                arrival_ms=at,
                min_coverage=min_coverage,
            )
        except QueryRejected as exc:
            if client_retry is not None and client_retry.allows(attempt):
                backoff = max(
                    float(exc.retry_after_ms),
                    client_retry.backoff_ms(seq, attempt),
                )
                heapq.heappush(heap, (at + backoff, seq, attempt + 1))
                client_retries += 1
            else:
                shed += 1
    if on_advance is not None and arrivals:
        on_advance(last_t)
    if finalize is not None:
        finalize(last_t)
    server.drain()
    return len(arrivals), shed, client_retries


def build_fleet(
    *,
    n_nodes: int,
    electrodes: int,
    n_windows: int,
    seed: int,
    n_templates: int,
    server_config: ServerConfig,
    telemetry: TelemetryLike,
) -> tuple[ScaloSystem, QueryServer, list[np.ndarray]]:
    """Build one seeded, pre-ingested fleet behind its own query server.

    ``n_windows`` random-walk windows per electrode are ingested from
    ``default_rng(seed)``; the first ``n_templates`` windows' node-0,
    electrode-0 traces become the Q2 probe pool (padded by repeating
    the last), and the first and last windows are flagged for Q1.
    :func:`serve_session` and every fabric fleet build through here, so
    fleet 0 of a fabric is the same fleet as a direct session.
    Returns ``(system, server, templates)``; the engine is
    ``server.engine``.
    """
    from repro.core.system import ScaloSystem
    from repro.units import WINDOW_SAMPLES

    system = ScaloSystem(
        n_nodes=n_nodes,
        electrodes_per_node=electrodes,
        seed=seed,
        telemetry=telemetry,
    )
    rng = np.random.default_rng(seed)
    templates: list[np.ndarray] = []
    for _ in range(n_windows):
        windows = (
            rng.standard_normal((n_nodes, electrodes, WINDOW_SAMPLES)).cumsum(
                axis=2
            )
            * 300
        ).round()
        system.ingest(windows)
        if len(templates) < n_templates:
            templates.append(windows[0, 0].astype(float))
    while len(templates) < n_templates:
        templates.append(templates[-1])
    flags = {node: {0, n_windows - 1} for node in range(n_nodes)}

    engine = QueryEngine(
        controllers=[node.storage for node in system.nodes],
        lsh=system.lsh,
        seizure_flags=flags,
        telemetry=telemetry,
    )
    server = QueryServer(
        engine,
        config=server_config,
        cost_model=QueryCostModel(
            n_nodes=n_nodes, electrodes_per_node=electrodes
        ),
        telemetry=telemetry,
    )
    return system, server, templates


def serve_session(
    *,
    n_nodes: int = 4,
    electrodes: int = 8,
    n_windows: int = 4,
    seed: int = 0,
    load: LoadGenConfig | None = None,
    server_config: ServerConfig | None = None,
    telemetry: TelemetryLike = NULL_TELEMETRY,
    fault_plan: FaultPlan | None = None,
    round_ms: float = 50.0,
    client_retry: RetryPolicy | None = None,
    health: HealthEngine | None = None,
) -> tuple[QueryServer, ServeReport]:
    """Build a fleet, offer one seeded load, return server + report.

    ``health`` accepts a
    :class:`~repro.telemetry.health.HealthEngine`: its flight recorder
    is attached to the server (breaker/brownout/shed evidence) and the
    engine samples the registry at every TDMA round of the load, so SLO
    burn rates, anomalies, and incident bundles accumulate as the run
    progresses.  The engine is observational — attaching one never
    changes the response log.

    With a ``fault_plan``, a :class:`~repro.faults.injector.FaultInjector`
    replays it against the system while the load runs — one TDMA round
    per ``round_ms`` of simulated serving time — and the health
    monitor's belief (unioned with ground-truth dead nodes) steers the
    server's degraded answers.  After the last offer the remaining plan
    rounds play out before the final drain, so reboots scheduled past
    the load's end still trigger coverage-SLA re-execution.  Same seed +
    same plan ⇒ byte-identical response log, with or without telemetry
    attached.

    A plan that schedules partitions additionally activates the quorum
    stack: per-node liveness views, an epoch-fenced
    :class:`~repro.recovery.failover.FailoverManager` elected by strict
    majority, and quorum-aware serving — while no side holds quorum the
    server answers cache-only, and regaining quorum (heal) reschedules
    parked below-SLA requests.
    """
    load = load if load is not None else LoadGenConfig(seed=seed)
    system, server, templates = build_fleet(
        n_nodes=n_nodes,
        electrodes=electrodes,
        n_windows=n_windows,
        seed=seed,
        n_templates=load.n_templates,
        server_config=(
            server_config if server_config is not None else ServerConfig()
        ),
        telemetry=telemetry,
    )

    on_advance = None
    finalize = None
    if fault_plan is not None:
        from repro.faults.health import HealthMonitor
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            system, fault_plan, health=HealthMonitor(n_nodes)
        )
        # Partition plans switch on the quorum stack: per-node views
        # (the injector auto-created them), an epoch-fenced failover
        # manager over those views, and quorum-aware serving.  Plans
        # without partitions keep the legacy shared-belief path
        # byte-for-byte, so existing storm logs never shift.
        manager = None
        if fault_plan.has_partitions:
            manager = system.attach_failover(views=injector.belief)
            injector.failover = manager
            server.failover = manager

        def _sync_dead() -> None:
            if manager is not None:
                # Serve from the coordinator's vantage: its view decides
                # which nodes waves route around.  With no coordinator
                # seated (no majority side), the lowest ground-truth
                # alive node fronts read-only traffic and the server is
                # pinned cache-only via the quorum signal.
                alive = system.alive_node_ids
                vantage = manager.coordinator
                if vantage is None:
                    vantage = alive[0] if alive else 0
                server.set_quorum(manager.coordinator is not None)
                server.set_dead_nodes(
                    set(injector.belief.view(vantage).dead_nodes)
                    | set(system.dead_node_ids)
                )
            else:
                server.set_dead_nodes(
                    set(injector.health.dead_nodes) | set(system.dead_node_ids)
                )

        def on_advance(t_ms: float) -> None:
            target_round = int(t_ms // round_ms)
            while (
                injector.round_index <= target_round
                and injector.round_index < fault_plan.n_rounds
            ):
                injector.step()
            _sync_dead()

        def finalize(t_ms: float) -> None:
            while injector.round_index < fault_plan.n_rounds:
                injector.step()
            _sync_dead()

    if health is not None and health.enabled:
        health.attach_server(server)
        inner_advance, inner_finalize = on_advance, finalize

        def on_advance(t_ms: float) -> None:
            if inner_advance is not None:
                inner_advance(t_ms)
            health.observe_to(t_ms)

        def finalize(t_ms: float) -> None:
            if inner_finalize is not None:
                inner_finalize(t_ms)
            health.observe_to(t_ms)

    arrivals = generate_arrivals(load)
    n_offered, shed, client_retries = run_open_loop(
        server,
        arrivals,
        (0, n_windows),
        templates,
        deadline_ms=load.deadline_ms,
        min_coverage=load.min_coverage,
        client_retry=client_retry,
        on_advance=on_advance,
        finalize=finalize,
    )
    if health is not None:
        health.finalize(server.now_ms)
    return server, summarise(
        server, load.offered_qps, n_offered, shed, client_retries
    )
