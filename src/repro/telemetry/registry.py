"""Label-aware metrics registry: counters, gauges, quantile sketches.

All values are keyed by ``(metric name, sorted label tuple)`` so that two
call sites reporting ``pe.busy_us{pe=DTW}`` land in the same cell no
matter the keyword ordering.  The registry is pure bookkeeping — nothing
here touches wall clocks or random state, so attaching a registry to a
seeded scenario cannot perturb it (the PR-1 determinism guarantee).

Metric naming scheme (see DESIGN.md "Telemetry & tracing"):

* dotted, ``subsystem.quantity[_unit]`` — ``network.packets_sent``,
  ``arq.retries``, ``storage.nvm_reads``, ``scheduler.ilp_solve_ms``;
* labels for dimensions, not new names — ``pe.busy_us{pe=DTW}``;
* ``*_ms`` / ``*_us`` suffixes mark time quantities; bare names count
  events.  Simulated-time metrics come from the scenario's
  :class:`~repro.telemetry.clock.SimClock`; the only wall-clock metrics
  are the profiler's ``scheduler.*_solve_ms`` observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ConfigurationError
from repro.telemetry.health.sketch import QuantileSketch

#: Label set canonicalised to a hashable, deterministically-ordered key.
LabelKey = tuple[tuple[str, str], ...]


def label_key(labels: dict[str, object]) -> LabelKey:
    """Canonicalise a label dict: sorted, stringified.

    The zero- and one-label cases — the overwhelming majority of calls
    on the serving hot path — skip the sort entirely.
    """
    if not labels:
        return ()
    if len(labels) == 1:
        ((k, v),) = labels.items()
        return ((k, str(v)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_metric(name: str, labels: LabelKey) -> str:
    """Render ``name{k=v,...}`` (no braces when unlabelled)."""
    if not labels:
        return name
    body = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{body}}}"


@dataclass
class MetricsRegistry:
    """Counters, gauges, and quantile sketches for one run.

    ``observe()`` records every sample in one mergeable
    :class:`~repro.telemetry.health.sketch.QuantileSketch` per series.
    The sketch carries count/sum/min/max for the exporters, and its
    quantiles are within ±1 % relative error at any magnitude;
    sketches from different nodes/labels merge exactly.
    """

    _counters: dict[tuple[str, LabelKey], float] = field(default_factory=dict)
    _gauges: dict[tuple[str, LabelKey], float] = field(default_factory=dict)
    _sketches: dict[tuple[str, LabelKey], QuantileSketch] = field(
        default_factory=dict
    )

    # -- writes -------------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` to a monotonic counter (negative deltas rejected)."""
        if value < 0:
            raise ConfigurationError(f"counter {name} cannot decrease")
        key = (name, label_key(labels))
        self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        self._gauges[(name, label_key(labels))] = float(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        key = (name, label_key(labels))
        sketch = self._sketches.get(key)
        if sketch is None:
            sketch = self._sketches[key] = QuantileSketch()
        sketch.observe(value)

    # -- reads --------------------------------------------------------------------

    def counter(self, name: str, **labels: object) -> float:
        return self._counters.get((name, label_key(labels)), 0.0)

    def gauge(self, name: str, **labels: object) -> float:
        return self._gauges.get((name, label_key(labels)), 0.0)

    def sketch(self, name: str, **labels: object) -> QuantileSketch | None:
        return self._sketches.get((name, label_key(labels)))

    def counters(self) -> Iterator[tuple[str, LabelKey, float]]:
        for (name, labels), value in sorted(self._counters.items()):
            yield name, labels, value

    def counter_items(self) -> Iterator[tuple[str, LabelKey, float]]:
        """Counters in insertion order — for aggregating readers (the
        health engine sums these every round) that don't need the
        sorted view and shouldn't pay for one."""
        for (name, labels), value in self._counters.items():
            yield name, labels, value

    def gauges(self) -> Iterator[tuple[str, LabelKey, float]]:
        for (name, labels), value in sorted(self._gauges.items()):
            yield name, labels, value

    def sketches(self) -> Iterator[tuple[str, LabelKey, QuantileSketch]]:
        for (name, labels), sketch in sorted(self._sketches.items()):
            yield name, labels, sketch

    def series(self, name: str) -> dict[LabelKey, float]:
        """All labelled cells of one counter/gauge name, deterministic order."""
        out: dict[LabelKey, float] = {}
        for store in (self._counters, self._gauges):
            for (metric, labels), value in sorted(store.items()):
                if metric == name:
                    out[labels] = value
        return out

    def snapshot(self) -> dict:
        """A JSON-able copy of everything, deterministically ordered."""
        return {
            "counters": {
                format_metric(name, labels): value
                for name, labels, value in self.counters()
            },
            "gauges": {
                format_metric(name, labels): value
                for name, labels, value in self.gauges()
            },
            "sketches": {
                format_metric(name, labels): sketch.as_dict()
                for name, labels, sketch in self.sketches()
            },
        }
