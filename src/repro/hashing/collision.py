"""Hash collision checking (the CCHECK PE) and the recent-hash store.

When hashes arrive from a remote node, CCHECK sorts them in its SRAM
registers and checks them against the local hashes of a configurable past
horizon (e.g. the last 100 ms) with binary search (paper §3.2).

The sort-and-search is the PE being modelled; its latency and power
come from the ``CCHECK`` entry of the PE catalog
(:mod:`repro.hardware.catalog`) and do not change with how the host
computes the answer.  On the host, :meth:`CollisionChecker.check`
indexes each signature component in a dict once per call instead of
re-deriving the sorted keys per local record.  The index yields the
same pairs in the same order as the sort-and-bisect walk (held equal
to it by ``tests/test_hashing_lsh.py`` against ``tests/oracles.py``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import attrgetter

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class HashRecord:
    """One stored hash: which electrode produced it and when."""

    time_ms: float
    electrode: int
    signature: tuple[int, ...]


_time_ms = attrgetter("time_ms")


@dataclass
class RecentHashStore:
    """A bounded time-ordered store of local hashes (SRAM + NVM backed).

    Records are kept in insertion (time) order; lookups retrieve the window
    ``[now - horizon, now]``, which is exactly the access pattern CCHECK
    performs against the on-chip storage.
    """

    horizon_ms: float = 100.0
    _records: list[HashRecord] = field(default_factory=list)

    def add(self, record: HashRecord) -> None:
        if self._records and record.time_ms < self._records[-1].time_ms:
            raise ConfigurationError("hash records must be appended in time order")
        self._records.append(record)

    def add_batch(
        self, time_ms: float, signatures: list[tuple[int, ...]]
    ) -> None:
        """Store one hash per electrode for a single window time."""
        for electrode, signature in enumerate(signatures):
            self.add(HashRecord(time_ms, electrode, signature))

    def recent(self, now_ms: float) -> list[HashRecord]:
        """Records within the horizon ending at ``now_ms``."""
        records = self._records
        lo = bisect.bisect_left(records, now_ms - self.horizon_ms, key=_time_ms)
        hi = bisect.bisect_right(records, now_ms, key=_time_ms)
        return records[lo:hi]

    def evict_before(self, cutoff_ms: float) -> int:
        """Drop records older than ``cutoff_ms``; returns the count dropped."""
        lo = bisect.bisect_left(self._records, cutoff_ms, key=_time_ms)
        self._records = self._records[lo:]
        return lo

    def __len__(self) -> int:
        return len(self._records)


class CollisionChecker:
    """The CCHECK PE: match received hashes against local recent hashes.

    The PE sorts the received batch in place in SRAM and binary-searches
    local hashes against it.  The OR-construction of multi-component
    signatures is honoured by indexing each component separately; the
    host implementation keeps that per-component index as a dict.
    """

    def __init__(self, min_matching: int = 1):
        if min_matching < 1:
            raise ConfigurationError("min_matching must be >= 1")
        self.min_matching = min_matching

    def check(
        self,
        received: list[tuple[int, ...]],
        local: list[HashRecord],
    ) -> list[tuple[int, HashRecord]]:
        """All (received-index, local-record) pairs that collide.

        A pair collides when at least ``min_matching`` signature components
        are equal component-wise.
        """
        if not received or not local:
            return []
        n_components = len(received[0])
        if any(len(sig) != n_components for sig in received):
            raise ConfigurationError("received signatures have mixed widths")

        # Host-side index: per component, value -> received indices in
        # ascending order.  Counting through it visits indices in the
        # order the PE's sort-and-bisect walk does (component order,
        # then ascending index), so matches come out in the same order.
        index: list[dict[int, list[int]]] = [{} for _ in range(n_components)]
        for i, sig in enumerate(received):
            for component, value in zip(index, sig):
                component.setdefault(value, []).append(i)

        matches: list[tuple[int, HashRecord]] = []
        for record in local:
            signature = record.signature
            if len(signature) != n_components:
                raise ConfigurationError("local signature width mismatch")
            agree_counts: dict[int, int] = {}
            for component, value in zip(index, signature):
                for idx in component.get(value, ()):
                    agree_counts[idx] = agree_counts.get(idx, 0) + 1
            for idx, agreeing in agree_counts.items():
                if agreeing >= self.min_matching:
                    matches.append((idx, record))
        return matches
