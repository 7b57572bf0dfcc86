"""The per-implant NVM device model (SLC NAND, NVSim-calibrated).

Geometry and timing follow the paper's §5: 4 KB pages, 1 MB blocks, an
operation reads 8 bytes, writes a page, or erases a block; SLC NAND erase
takes 1.5 ms, page program 350 us; NVSim estimates 0.26 mW leakage and
918.809 / 1374 nJ dynamic energy per page read / write.

The device is functional (bytes in, bytes out) *and* metered (latency and
energy accounting), because both the applications and the scheduler need
it: applications store and retrieve real signals; the scheduler needs the
bandwidth numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StorageError, UncorrectableError
from repro.recovery.ecc import PageECC, compute_ecc, decode_page

#: Device geometry (paper §5).
PAGE_BYTES = 4 * 1024
BLOCK_BYTES = 1024 * 1024
PAGES_PER_BLOCK = BLOCK_BYTES // PAGE_BYTES
READ_UNIT_BYTES = 8

#: Timing (paper §5 / industrial SLC NAND datasheets).
ERASE_MS = 1.5
PROGRAM_MS = 0.350
#: SLC NAND page read-to-register time (tR).
READ_PAGE_MS = 0.025

#: NVSim energy estimates (paper §5).
LEAKAGE_MW = 0.26
READ_NJ_PER_PAGE = 918.809
WRITE_NJ_PER_PAGE = 1374.0

#: Default capacity: the paper integrates 128 GB per node.  The functional
#: model allocates lazily, so the configured capacity costs no memory.
DEFAULT_CAPACITY_BYTES = 128 * 1024**3


@dataclass
class NVMStats:
    """Operation counters and accounting for one device."""

    page_reads: int = 0
    page_writes: int = 0
    block_erases: int = 0
    busy_ms: float = 0.0
    dynamic_energy_nj: float = 0.0
    #: single-bit errors the SECDED engine corrected on access/scrub
    ecc_corrected: int = 0
    #: pages found damaged beyond SECDED (multi-bit rot)
    ecc_uncorrectable: int = 0


@dataclass
class NVMDevice:
    """A functional, metered NAND flash device.

    Pages must be erased (block-wise) before programming; reads address
    any 8-byte-aligned range within a programmed page.  Contents of
    unprogrammed pages read as 0xFF, like real NAND.

    With ``ecc_enabled`` (the default) every programmed page carries
    SECDED Hamming ECC + CRC in a modelled spare area: reads verify and
    transparently correct single-bit rot, and multi-bit damage raises a
    typed :class:`~repro.errors.UncorrectableError` instead of silently
    returning garbage.  A page found uncorrectable stays *poisoned*
    (reads keep raising) until its block is erased or the page is
    rewritten in full, like a real device's grown-bad-page handling.
    """

    capacity_bytes: int = DEFAULT_CAPACITY_BYTES
    ecc_enabled: bool = True
    stats: NVMStats = field(default_factory=NVMStats)
    _pages: dict[int, bytes] = field(default_factory=dict)
    _programmed: set[int] = field(default_factory=set)
    _ecc: dict[int, PageECC] = field(default_factory=dict, repr=False)
    _poisoned: set[int] = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes < BLOCK_BYTES:
            raise StorageError("capacity must be at least one block")
        if self.capacity_bytes % BLOCK_BYTES:
            raise StorageError("capacity must be a whole number of blocks")

    # -- geometry helpers ---------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return self.capacity_bytes // PAGE_BYTES

    @property
    def n_blocks(self) -> int:
        return self.capacity_bytes // BLOCK_BYTES

    def _check_page(self, page_index: int) -> None:
        if not 0 <= page_index < self.n_pages:
            raise StorageError(f"page {page_index} out of range")

    # -- operations -----------------------------------------------------------------

    def erase_block(self, block_index: int) -> None:
        """Erase one block; its pages become programmable again."""
        if not 0 <= block_index < self.n_blocks:
            raise StorageError(f"block {block_index} out of range")
        first = block_index * PAGES_PER_BLOCK
        for page in range(first, first + PAGES_PER_BLOCK):
            self._pages.pop(page, None)
            self._programmed.discard(page)
            self._ecc.pop(page, None)
            self._poisoned.discard(page)
        self.stats.block_erases += 1
        self.stats.busy_ms += ERASE_MS
        # erase energy folded into the write figure, as NVSim reports

    def program_page(self, page_index: int, data: bytes) -> None:
        """Program one full page (must be erased)."""
        self._check_page(page_index)
        if page_index in self._programmed:
            raise StorageError(
                f"page {page_index} already programmed; erase its block first"
            )
        if len(data) > PAGE_BYTES:
            raise StorageError(f"page data {len(data)} B exceeds {PAGE_BYTES} B")
        padded = data.ljust(PAGE_BYTES, b"\xff")
        self._pages[page_index] = padded
        self._programmed.add(page_index)
        if self.ecc_enabled:
            self._ecc[page_index] = compute_ecc(padded)
        self.stats.page_writes += 1
        self.stats.busy_ms += PROGRAM_MS
        self.stats.dynamic_energy_nj += WRITE_NJ_PER_PAGE

    def rewrite_range(self, page_index: int, offset: int, chunk: bytes) -> None:
        """In-place partial-page update through the SC's SRAM buffer.

        Models the controller's read-merge-write of an already-programmed
        page (erase-free, as the buffered append path does).  The merge
        runs through the ECC engine: existing content is verified first,
        single-bit rot corrected before it is re-committed, and damage
        beyond SECDED marks the page poisoned (the write itself still
        lands — the surrounding old bytes are what was lost).  A rewrite
        covering the whole page replaces everything and clears the poison.
        """
        self._check_page(page_index)
        if page_index not in self._programmed:
            raise StorageError(f"page {page_index} not programmed")
        if offset < 0 or not chunk or offset + len(chunk) > PAGE_BYTES:
            raise StorageError("rewrite range outside the page")
        existing = self._pages[page_index]
        whole_page = offset == 0 and len(chunk) == PAGE_BYTES
        if self.ecc_enabled and not whole_page:
            result = decode_page(existing, self._ecc[page_index])
            if result.corrected_bits:
                self.stats.ecc_corrected += result.corrected_bits
                existing = result.data
            elif not result.ok and page_index not in self._poisoned:
                self.stats.ecc_uncorrectable += 1
                self._poisoned.add(page_index)
        merged = bytearray(existing)
        merged[offset : offset + len(chunk)] = chunk
        merged = bytes(merged)
        self._pages[page_index] = merged
        if self.ecc_enabled:
            self._ecc[page_index] = compute_ecc(merged)
        if whole_page:
            self._poisoned.discard(page_index)
        self.stats.page_writes += 1
        self.stats.busy_ms += PROGRAM_MS
        self.stats.dynamic_energy_nj += WRITE_NJ_PER_PAGE

    def read(self, page_index: int, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` within one page.

        Offset and length must respect the 8-byte read unit.
        """
        self._check_page(page_index)
        if offset % READ_UNIT_BYTES or length % READ_UNIT_BYTES:
            raise StorageError(
                f"reads are {READ_UNIT_BYTES}-byte aligned "
                f"(offset={offset}, length={length})"
            )
        if offset < 0 or length <= 0 or offset + length > PAGE_BYTES:
            raise StorageError("read range outside the page")
        page = self._pages.get(page_index, b"\xff" * PAGE_BYTES)
        self.stats.page_reads += 1
        self.stats.busy_ms += READ_PAGE_MS
        self.stats.dynamic_energy_nj += (
            READ_NJ_PER_PAGE * length / PAGE_BYTES
        )
        page = self._verify_on_access(page_index, page)
        return page[offset : offset + length]

    def _verify_on_access(self, page_index: int, page: bytes) -> bytes:
        """Run the SECDED engine on a page transfer; raise on bad pages."""
        if not self.ecc_enabled or page_index not in self._ecc:
            return page
        if page_index in self._poisoned:
            raise UncorrectableError(page_index, "page poisoned")
        result = decode_page(page, self._ecc[page_index])
        if result.corrected_bits:
            # scrub-on-read: commit the corrected content back
            self.stats.ecc_corrected += result.corrected_bits
            self._pages[page_index] = result.data
            return result.data
        if not result.ok:
            self.stats.ecc_uncorrectable += 1
            self._poisoned.add(page_index)
            raise UncorrectableError(page_index, result.detail)
        return page

    def check_page(self, page_index: int) -> tuple[int, bool]:
        """One scrubber visit: verify and repair a page in place.

        Books one page read.  Returns ``(bits_corrected, uncorrectable)``;
        an uncorrectable page is poisoned (counted once, at the
        transition) and subsequent reads raise.
        """
        self._check_page(page_index)
        if not self.ecc_enabled or page_index not in self._ecc:
            return 0, False
        if page_index in self._poisoned:
            return 0, True
        self.stats.page_reads += 1
        self.stats.busy_ms += READ_PAGE_MS
        self.stats.dynamic_energy_nj += READ_NJ_PER_PAGE
        result = decode_page(self._pages[page_index], self._ecc[page_index])
        if result.corrected_bits:
            self.stats.ecc_corrected += result.corrected_bits
            self._pages[page_index] = result.data
            return result.corrected_bits, False
        if not result.ok:
            self.stats.ecc_uncorrectable += 1
            self._poisoned.add(page_index)
            return 0, True
        return 0, False

    @property
    def poisoned_pages(self) -> list[int]:
        """Pages known damaged beyond SECDED (sorted)."""
        return sorted(self._poisoned)

    def read_page(self, page_index: int) -> bytes:
        """Read one full page."""
        return self.read(page_index, 0, PAGE_BYTES)

    # -- fault injection ----------------------------------------------------------

    @property
    def programmed_pages(self) -> list[int]:
        """Indices of currently-programmed pages (sorted)."""
        return sorted(self._programmed)

    def inject_bit_rot(self, page_index: int, bit_indices) -> int:
        """Flip stored bits in place — NAND retention/disturb errors.

        Only programmed pages rot (erased cells hold no charge to lose);
        injecting into an unprogrammed page is a no-op.  No latency or
        energy is booked: rot is physics, not an operation.

        Returns:
            The number of bits flipped.  A position listed twice flips
            back, so only positions listed an odd number of times count.
        """
        from repro.network.channel import flip_bits

        self._check_page(page_index)
        if page_index not in self._programmed:
            return 0
        import numpy as np

        idx = np.atleast_1d(np.asarray(bit_indices, dtype=np.int64))
        if idx.size == 0:
            return 0
        self._pages[page_index] = flip_bits(self._pages[page_index], idx)
        _, counts = np.unique(idx, return_counts=True)
        return int(np.count_nonzero(counts & 1))

    # -- derived rates ------------------------------------------------------------

    @staticmethod
    def read_bandwidth_mbps() -> float:
        """Sequential read bandwidth of the device (Mbps)."""
        return 8 * PAGE_BYTES / (READ_PAGE_MS * 1e3)

    @staticmethod
    def write_bandwidth_mbps() -> float:
        """Sustained program bandwidth, amortising one erase per block."""
        ms_per_page = PROGRAM_MS + ERASE_MS / PAGES_PER_BLOCK
        return 8 * PAGE_BYTES / (ms_per_page * 1e3)
