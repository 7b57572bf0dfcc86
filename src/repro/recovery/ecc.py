"""SECDED Hamming ECC + CRC for NVM pages.

Real SLC NAND stores per-page ECC in a spare ("out-of-band") area and
runs a hardware SECDED engine on every transfer; NVSim's access costs
already include it.  This module is the functional half: a Hamming
syndrome plus an overall parity bit over the page's bits, and a CRC32
over the page's bytes as an end-to-end integrity check.

The syndrome is the XOR of the 1-based indices of all set bits — the
classic construction in which a single flipped bit at index ``p``
perturbs the syndrome by exactly ``p``:

* syndrome delta 0, parity delta 0 → clean (CRC re-checked anyway);
* parity delta 1, syndrome delta in range → single-bit error at
  ``delta - 1``; corrected, then verified against the CRC (which
  catches the odd-weight ≥3-flip patterns SECDED miscorrects);
* parity delta 0, syndrome delta ≠ 0 → double-bit error, uncorrectable.

Bit indexing is MSB-first (bit 0 is the top bit of byte 0), matching
:func:`repro.network.channel.flip_bits` so injected rot and correction
agree on positions.

The kernel is a fold-and-popcount over packed words, exact for every
input.  Bit ``k`` of the syndrome is the parity of the set bits whose
1-based index has bit ``k`` set, so with one packed mask per syndrome
bit (the positions whose index has that bit set) plus one all-ones mask
for the overall parity, each output bit is ``popcount(mask & page) & 1``.
The page is viewed as 64-bit words, ANDed with every mask at once and
XOR-folded to one word per mask; XOR preserves the parity of the set
bits, so that word's ``bit_count() & 1`` is the output bit.  A page of
``n`` bytes needs ``(8 n).bit_length()`` syndrome masks (16 for 4 KB,
17 rows in all, 68 KB), built once per length.

Decoding always recomputes the syndrome, even when the CRC matches.  A
CRC-first shortcut (syndrome only on a CRC mismatch) would return a
>= 4-bit flip pattern whose CRC collides as clean, where the Hamming
code flags it as double-bit damage or vetoes it as a miscorrection; it
would weaken detection, so it is not used.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass

import numpy as np

#: ECC geometry: a 4 KB page has 32768 bit positions, so 1-based indices
#: fit 16 bits — the spare-area cost is 16 syndrome bits + 1 parity bit
#: + 32 CRC bits per page (49 bits, well under a real NAND's 64-224 B OOB).
SYNDROME_BITS = 16


@dataclass(frozen=True)
class PageECC:
    """The spare-area words stored alongside one page."""

    syndrome: int
    parity: int
    crc: int


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one page verification."""

    data: bytes
    corrected_bits: int  # 0 or 1
    ok: bool  # False → uncorrectable damage
    detail: str = ""


@functools.cache
def _fold_masks(n_bytes: int) -> np.ndarray:
    """Packed masks for an ``n_bytes`` page, as 64-bit words.

    Row ``k`` covers the bit positions whose 1-based index has bit ``k``
    set; the last row covers every position (overall parity).  Rows are
    zero-padded to a whole number of words.
    """
    n_bits = 8 * n_bytes
    rows = n_bits.bit_length()
    index = np.arange(1, n_bits + 1, dtype=np.int64)
    selects = (index >> np.arange(rows, dtype=np.int64)[:, None]) & 1
    packed = np.zeros((rows + 1, -(-n_bytes // 8) * 8), dtype=np.uint8)
    packed[:rows, :n_bytes] = np.packbits(selects.astype(np.uint8), axis=1)
    packed[rows, :n_bytes] = 0xFF
    masks = packed.view(np.uint64)
    masks.flags.writeable = False
    return masks


def _syndrome_parity(data: bytes) -> tuple[int, int]:
    masks = _fold_masks(len(data))
    words = np.frombuffer(bytes(data).ljust(8 * masks.shape[1], b"\0"), np.uint64)
    *folded, parity = np.bitwise_xor.reduce(masks & words, axis=1).tolist()
    syndrome = 0
    for k, word in enumerate(folded):
        syndrome |= (word.bit_count() & 1) << k
    return syndrome, parity.bit_count() & 1


def compute_ecc(data: bytes) -> PageECC:
    """Encode one page's spare-area ECC words."""
    syndrome, parity = _syndrome_parity(data)
    return PageECC(syndrome, parity, zlib.crc32(data))


def decode_page(data: bytes, ecc: PageECC) -> DecodeResult:
    """Verify one page against its spare area; correct a single flip."""
    syndrome, parity = _syndrome_parity(data)
    ds = ecc.syndrome ^ syndrome
    dp = ecc.parity ^ parity
    if ds == 0 and dp == 0:
        if zlib.crc32(data) != ecc.crc:
            # an even-weight flip pattern whose indices XOR to zero —
            # invisible to the Hamming code, caught end-to-end
            return DecodeResult(data, 0, False, "crc mismatch, syndrome clean")
        return DecodeResult(data, 0, True)
    if dp == 1:
        index = ds - 1
        if 0 <= index < 8 * len(data):
            fixed = bytearray(data)
            fixed[index // 8] ^= 0x80 >> (index % 8)
            fixed = bytes(fixed)
            if zlib.crc32(fixed) == ecc.crc:
                return DecodeResult(fixed, 1, True)
            return DecodeResult(data, 0, False, "miscorrection (>=3 flips)")
        return DecodeResult(data, 0, False, "syndrome out of range")
    return DecodeResult(data, 0, False, "double-bit error")
