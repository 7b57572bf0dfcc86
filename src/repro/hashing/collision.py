"""Hash collision checking (the CCHECK PE) and the recent-hash store.

When hashes arrive from a remote node, CCHECK sorts them in its SRAM
registers and checks them against the local hashes of a configurable past
horizon (e.g. the last 100 ms) with binary search (paper §3.2).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class HashRecord:
    """One stored hash: which electrode produced it and when."""

    time_ms: float
    electrode: int
    signature: tuple[int, ...]


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
        cutoff = now_ms - self.horizon_ms
        times = [r.time_ms for r in self._records]
        lo = bisect.bisect_left(times, cutoff)
        hi = bisect.bisect_right(times, now_ms)
        return self._records[lo:hi]

    def evict_before(self, cutoff_ms: float) -> int:
        """Drop records older than ``cutoff_ms``; returns the count dropped."""
        times = [r.time_ms for r in self._records]
        lo = bisect.bisect_left(times, cutoff_ms)
        dropped = lo
        self._records = self._records[lo:]
        return dropped

    def __len__(self) -> int:
        return len(self._records)


class CollisionChecker:
    """The CCHECK PE: match received hashes against local recent hashes.

    The PE sorts the received batch in place in SRAM and binary-searches
    local hashes against it.  The OR-construction of multi-component
    signatures is honoured by indexing each component separately.
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

        # Sort received signatures per component (the in-SRAM sort).
        sorted_components: list[list[tuple[int, int]]] = []
        for c in range(n_components):
            component = sorted((sig[c], i) for i, sig in enumerate(received))
            sorted_components.append(component)

        matches: list[tuple[int, HashRecord]] = []
        for record in local:
            if len(record.signature) != n_components:
                raise ConfigurationError("local signature width mismatch")
            agree_counts: dict[int, int] = {}
            for c in range(n_components):
                component = sorted_components[c]
                value = record.signature[c]
                keys = [entry[0] for entry in component]
                lo = bisect.bisect_left(keys, value)
                while lo < len(component) and component[lo][0] == value:
                    idx = component[lo][1]
                    agree_counts[idx] = agree_counts.get(idx, 0) + 1
                    lo += 1
            for idx, agreeing in agree_counts.items():
                if agreeing >= self.min_matching:
                    matches.append((idx, record))
        return matches
