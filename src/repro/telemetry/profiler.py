"""Wall-clock profiling hooks (the one place real time is allowed).

Everything else in :mod:`repro.telemetry` runs on simulated time; this
module measures how long the *host* Python actually spends in a hot loop
(`perf_counter` around the block), so a report can put simulated cost and
real cost side by side — e.g. the ILP solve is free in simulated time but
dominates the wall clock.  Observations land in the shared registry as
ordinary observed series (``scheduler.ilp_solve_ms`` and friends), so
the exporters need no special casing.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator

from repro.telemetry.registry import MetricsRegistry


@dataclass
class WallClockProfiler:
    """Times named blocks into a registry, in milliseconds."""

    registry: MetricsRegistry

    @contextmanager
    def time(self, name: str, **labels: object) -> Iterator[None]:
        """Record one wall-clock sample of the wrapped block as ``name``."""
        start = perf_counter()
        try:
            yield
        finally:
            self.registry.observe(
                name, (perf_counter() - start) * 1e3, **labels
            )
