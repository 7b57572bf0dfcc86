"""TDMA medium access for the intra-SCALO network.

SCALO's implant radios share one frequency to save power, so all access is
serial: the ILP emits a fixed slot schedule and every node transmits only
in its slots (paper §3.4).  This module provides both the schedule object
and the airtime arithmetic for the three communication patterns in the
evaluation: one-to-all, all-to-all, and all-to-one.

A slot carries one maximum-size packet plus a guard/turnaround interval —
the per-slot overhead is what makes all-to-all exchanges degrade with node
count in Fig. 8b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, NetworkError
from repro.network.packet import MAX_PAYLOAD_BYTES, PACKET_OVERHEAD_BITS
from repro.network.radio import LOW_POWER, RadioSpec

#: Guard + turnaround time between slots (ms).  SCALO's pausable clock
#: generators keep nodes synchronised to microseconds (paper §3.6), so the
#: fixed TDMA schedule needs only a ~2 us guard.
DEFAULT_GUARD_MS = 0.002


@dataclass
class TDMAConfig:
    """Medium parameters shared by every node."""

    radio: RadioSpec = field(default_factory=lambda: LOW_POWER)
    guard_ms: float = DEFAULT_GUARD_MS

    def packet_airtime_ms(self, payload_bytes: int) -> float:
        """On-air time of one packet (no guard)."""
        if not 0 <= payload_bytes <= MAX_PAYLOAD_BYTES:
            raise NetworkError(f"invalid payload size {payload_bytes}")
        bits = PACKET_OVERHEAD_BITS + 8 * payload_bytes
        return self.radio.airtime_ms(bits)

    def slot_ms(self, payload_bytes: int = MAX_PAYLOAD_BYTES) -> float:
        """One TDMA slot: packet airtime plus the guard interval."""
        return self.packet_airtime_ms(payload_bytes) + self.guard_ms

    # -- pattern airtimes --------------------------------------------------------

    def burst_ms(self, payload_bytes: int) -> float:
        """Time for one node to send ``payload_bytes`` (packetised)."""
        if payload_bytes <= 0:
            return 0.0
        n_full = payload_bytes // MAX_PAYLOAD_BYTES
        tail = payload_bytes % MAX_PAYLOAD_BYTES
        total = n_full * self.slot_ms(MAX_PAYLOAD_BYTES)
        if tail:
            total += self.slot_ms(tail)
        return total

    def one_to_all_ms(self, payload_bytes: int) -> float:
        """Broadcast from one node: cost independent of receiver count."""
        return self.burst_ms(payload_bytes)

    def all_to_all_ms(self, payload_bytes_per_node: int, n_nodes: int) -> float:
        """Every node broadcasts its payload, serially."""
        if n_nodes < 1:
            raise ConfigurationError("need at least one node")
        return n_nodes * self.burst_ms(payload_bytes_per_node)

    # -- bandwidth views ------------------------------------------------------------

    def effective_rate_mbps(self, payload_bytes: int = MAX_PAYLOAD_BYTES) -> float:
        """Goodput after header/CRC/guard overheads at a given packet size."""
        if payload_bytes <= 0:
            return 0.0
        return 8 * payload_bytes / (self.slot_ms(payload_bytes) * 1e3)


@dataclass
class TDMASchedule:
    """A fixed, repeating slot assignment emitted by the ILP scheduler."""

    config: TDMAConfig
    slot_owners: list[int]  # node id per slot, in frame order

    def __post_init__(self) -> None:
        if not self.slot_owners:
            raise ConfigurationError("schedule needs at least one slot")

    @property
    def frame_ms(self) -> float:
        """Duration of one full frame."""
        return len(self.slot_owners) * self.config.slot_ms()

    def slots_for(self, node_id: int) -> list[int]:
        return [i for i, owner in enumerate(self.slot_owners) if owner == node_id]

    def node_share_mbps(self, node_id: int) -> float:
        """Long-run goodput available to ``node_id`` under this schedule."""
        n_slots = len(self.slots_for(node_id))
        per_slot_bits = 8 * MAX_PAYLOAD_BYTES
        return n_slots * per_slot_bits / (self.frame_ms * 1e3)

    def wait_ms(self, node_id: int, from_slot: int = 0) -> float:
        """Worst-case wait until the node's next slot starts."""
        slots = self.slots_for(node_id)
        if not slots:
            raise NetworkError(f"node {node_id} owns no slots")
        n = len(self.slot_owners)
        deltas = [((s - from_slot) % n) for s in slots]
        return min(deltas) * self.config.slot_ms()

    @classmethod
    def round_robin(cls, config: TDMAConfig, n_nodes: int,
                    slots_per_node: int = 1) -> "TDMASchedule":
        """The default fair schedule: each node in turn."""
        if n_nodes < 1 or slots_per_node < 1:
            raise ConfigurationError("need positive node and slot counts")
        owners = [node for node in range(n_nodes) for _ in range(slots_per_node)]
        return cls(config, owners)


def hash_payload_bytes(n_electrodes: int, hash_bytes: int = 1,
                       compression_ratio: float = 1.0) -> int:
    """Wire bytes for one window's worth of hashes from one node.

    All of a node's per-electrode hashes travel together (one packet for
    typical electrode counts), optionally compressed by HCOMP.
    """
    if n_electrodes < 0:
        raise ConfigurationError("electrode count cannot be negative")
    raw = n_electrodes * hash_bytes
    return max(1, int(round(raw / max(compression_ratio, 1e-9)))) if raw else 0
