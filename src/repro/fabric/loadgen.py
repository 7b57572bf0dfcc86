"""Seeded multi-tenant load for the fleet fabric.

Each tenant gets its **own** open-loop arrival stream, drawn from its
own RNG stream ``default_rng((seed, tenant_index))``.  That per-tenant
seeding is the isolation harness's measuring instrument: scaling one
tenant's rate multiplier regenerates only *that* tenant's timeline —
every other tenant offers byte-identical arrivals — so any change in a
victim's latency distribution between a baseline run and a noisy-
neighbour run is attributable to the noisy tenant alone, not to RNG
coupling.

Per-tenant streams merge into one global time-ordered offer sequence
(ties break on tenant name then sequence number, so the merge is total
and deterministic), drive the fabric open-loop, and fold into a
:class:`FabricReport` with per-tenant latency/shed/eviction accounting.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, QueryRejected
from repro.fabric.fabric import FabricConfig, FleetFabric
from repro.serving.loadgen import (
    Arrival,
    LoadGenConfig,
    generate_arrivals,
    percentile,
)
from repro.telemetry import NULL_TELEMETRY, TelemetryLike

if TYPE_CHECKING:
    from repro.telemetry.health import HealthEngine


def tenant_name(index: int) -> str:
    """The canonical tenant naming scheme (``t00``, ``t01``, ...)."""
    return f"t{index:02d}"


@dataclass(frozen=True)
class FabricLoadConfig:
    """One multi-tenant open-loop load description."""

    n_tenants: int = 8
    requests_per_tenant: int = 16
    #: per-tenant offered rate (each tenant's own open loop)
    offered_qps: float = 4.0
    seed: int = 0
    deadline_ms: float = 250.0
    kind_weights: tuple[float, float, float] = (0.25, 0.5, 0.25)
    n_templates: int = 3
    time_range_ms: float = 110.0
    match_fraction: float = 0.05
    min_coverage: float = 0.0
    #: tenant → rate multiplier (requests *and* rate scale together, so
    #: a 10× tenant floods 10× the offers over the same wall span)
    rate_multipliers: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_tenants < 1:
            raise ConfigurationError("need at least one tenant")
        # scaled loads clamp to one request, so check the unscaled count
        if self.requests_per_tenant < 1:
            raise ConfigurationError("need at least one request per tenant")
        unknown = sorted(set(self.rate_multipliers) - set(self.tenants))
        if unknown:
            raise ConfigurationError(
                f"rate multipliers name unknown tenants {unknown}; "
                f"tenants are {self.tenants[0]}..{self.tenants[-1]}"
            )
        for tenant, multiplier in self.rate_multipliers.items():
            if not (math.isfinite(multiplier) and multiplier > 0):
                raise ConfigurationError(
                    f"rate multiplier for {tenant!r} must be positive "
                    "and finite"
                )
        # the shared load-shape fields are checked once, by LoadGenConfig
        self.tenant_load(0)

    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(tenant_name(i) for i in range(self.n_tenants))

    def tenant_load(self, index: int) -> LoadGenConfig:
        """Tenant ``index``'s own one-client open loop.

        Seeded ``(seed, index)``; requests and rate both scale with the
        tenant's multiplier.
        """
        multiplier = self.rate_multipliers.get(tenant_name(index), 1.0)
        return LoadGenConfig(
            n_requests=max(1, round(self.requests_per_tenant * multiplier)),
            offered_qps=self.offered_qps * multiplier,
            seed=(self.seed, index),
            n_clients=1,
            deadline_ms=self.deadline_ms,
            kind_weights=self.kind_weights,
            n_templates=self.n_templates,
            time_range_ms=self.time_range_ms,
            match_fraction=self.match_fraction,
            min_coverage=self.min_coverage,
        )


def generate_tenant_arrivals(
    config: FabricLoadConfig,
) -> dict[str, list[Arrival]]:
    """Draw every tenant's arrival timeline from its own RNG stream.

    Each stream is one serving-layer :func:`generate_arrivals` draw over
    :meth:`FabricLoadConfig.tenant_load`, relabelled to the tenant.  A
    one-client draw consumes no randomness for the client pick, so the
    stream is the same one a tenant-only loop would draw.
    """
    return {
        tenant: [
            replace(arrival, client=tenant)
            for arrival in generate_arrivals(config.tenant_load(index))
        ]
        for index, tenant in enumerate(config.tenants)
    }


@dataclass
class TenantStats:
    """One tenant's view of a fabric run."""

    tenant: str
    fleet_id: int
    offered: int
    completed: int
    shed: int
    shed_by_reason: dict[str, int]
    deadline_misses: int
    mean_latency_ms: float
    p50_latency_ms: float
    p99_latency_ms: float
    #: retained results this tenant's own churn evicted (partitioned
    #: LRU: a neighbour's churn can never show up here)
    results_evicted: int

    @property
    def availability(self) -> float:
        return self.completed / self.offered if self.offered else 1.0


@dataclass
class FabricReport:
    """What one multi-tenant fabric run did, per tenant and overall."""

    n_fleets: int
    n_tenants: int
    offered: int
    completed: int
    shed: int
    deadline_misses: int
    mean_latency_ms: float
    p99_latency_ms: float
    tenants: dict[str, TenantStats]
    #: tenant → owning fleet (the shard-map routing actually used)
    routing: dict[str, int]
    #: per-fleet canonical response logs (the determinism contract)
    fleet_logs: dict[int, str] = field(repr=False, default_factory=dict)

    @property
    def availability(self) -> float:
        return self.completed / self.offered if self.offered else 1.0

    def combined_log(self) -> str:
        """All fleet logs, fleet-id-ordered — the byte-identity artifact."""
        return "\n".join(
            f"fleet={fleet_id:03d}\n{log}"
            for fleet_id, log in sorted(self.fleet_logs.items())
        )


def run_fabric_load(
    fabric: FleetFabric,
    arrivals_by_tenant: dict[str, list[Arrival]],
    *,
    deadline_ms: float = 250.0,
    min_coverage: float = 0.0,
    on_advance=None,
) -> FabricReport:
    """Drive merged tenant timelines through a fabric, open-loop.

    Offers pop in global ``(time, tenant, sequence)`` order, so each
    fleet server sees monotonic per-client arrival stamps no matter how
    tenants interleave.  ``on_advance(t_ms)`` runs before every offer
    (the health engine's sampling hook).  Shed offers are counted, not
    retried — the fabric's availability numbers are honest open-loop
    measurements.
    """
    heap: list[tuple[float, str, int]] = []
    for tenant, stream in arrivals_by_tenant.items():
        for seq, arrival in enumerate(stream):
            heapq.heappush(heap, (arrival.at_ms, tenant, seq))

    offered: dict[str, int] = {t: 0 for t in arrivals_by_tenant}
    shed: dict[str, int] = {t: 0 for t in arrivals_by_tenant}
    shed_reasons: dict[str, dict[str, int]] = {
        t: {} for t in arrivals_by_tenant
    }
    last_t = 0.0
    while heap:
        at, tenant, seq = heapq.heappop(heap)
        last_t = at
        if on_advance is not None:
            on_advance(at)
        fabric.run_until(at)
        arrival = arrivals_by_tenant[tenant][seq]
        shard = fabric.shard_for(tenant)
        template = (
            shard.templates[arrival.template_index % len(shard.templates)]
            if arrival.template_index is not None
            else None
        )
        offered[tenant] += 1
        try:
            fabric.submit(
                tenant,
                arrival.spec,
                template=template,
                deadline_ms=deadline_ms,
                arrival_ms=at,
                min_coverage=min_coverage,
            )
        except QueryRejected as exc:
            shed[tenant] += 1
            reasons = shed_reasons[tenant]
            reasons[exc.reason] = reasons.get(exc.reason, 0) + 1
    if on_advance is not None and offered:
        on_advance(last_t)
    fabric.drain()

    tenants: dict[str, TenantStats] = {}
    all_latencies: list[float] = []
    for tenant in sorted(arrivals_by_tenant):
        fleet_id = fabric.fleet_for(tenant)
        responses = fabric.tenant_responses(tenant)
        latencies = [r.latency_ms for r in responses]
        all_latencies.extend(latencies)
        evicted = fabric.shards[fleet_id].server.stats.results_evicted_by_client
        tenants[tenant] = TenantStats(
            tenant=tenant,
            fleet_id=fleet_id,
            offered=offered[tenant],
            completed=len(responses),
            shed=shed[tenant],
            shed_by_reason=dict(sorted(shed_reasons[tenant].items())),
            deadline_misses=sum(r.deadline_missed for r in responses),
            mean_latency_ms=float(np.mean(latencies)) if latencies else 0.0,
            p50_latency_ms=percentile(latencies, 50.0),
            p99_latency_ms=percentile(latencies, 99.0),
            results_evicted=evicted.get(tenant, 0),
        )
    return FabricReport(
        n_fleets=len(fabric.fleet_ids),
        n_tenants=len(tenants),
        offered=sum(offered.values()),
        completed=sum(s.completed for s in tenants.values()),
        shed=sum(shed.values()),
        deadline_misses=sum(s.deadline_misses for s in tenants.values()),
        mean_latency_ms=(
            float(np.mean(all_latencies)) if all_latencies else 0.0
        ),
        p99_latency_ms=percentile(all_latencies, 99.0),
        tenants=tenants,
        routing={t: s.fleet_id for t, s in tenants.items()},
        fleet_logs=fabric.response_logs(),
    )


def fabric_session(
    *,
    config: FabricConfig | None = None,
    load: FabricLoadConfig | None = None,
    telemetry: TelemetryLike = NULL_TELEMETRY,
    health: HealthEngine | None = None,
) -> tuple[FleetFabric, FabricReport]:
    """Build a fabric, offer one seeded multi-tenant load, report.

    ``health`` accepts a
    :class:`~repro.telemetry.health.HealthEngine`: its flight recorder
    attaches to every fleet server and the engine samples the shared
    registry at each offer, so the per-tenant ``fabric.{tenant}.*``
    SLOs (see :func:`repro.fabric.slos.tenant_slos`) burn as the run
    progresses.  Observational only — fleet response logs are
    byte-identical with or without it.
    """
    config = config if config is not None else FabricConfig()
    load = load if load is not None else FabricLoadConfig(seed=config.seed)
    fabric = FleetFabric(config=config, telemetry=telemetry)

    on_advance = None
    if health is not None and health.enabled:
        for shard in fabric.shards.values():
            health.attach_server(shard.server)

        def on_advance(t_ms: float) -> None:
            health.observe_to(t_ms)

    arrivals = generate_tenant_arrivals(load)
    report = run_fabric_load(
        fabric,
        arrivals,
        deadline_ms=load.deadline_ms,
        min_coverage=load.min_coverage,
        on_advance=on_advance,
    )
    if health is not None:
        health.finalize(fabric.now_ms)
    return fabric, report
