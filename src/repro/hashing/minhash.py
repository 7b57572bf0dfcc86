"""Deterministic weighted min-hash (the NGRAM PE, part 2).

The original SSH scheme uses randomised weighted min-hash whose rejection
sampling has variable latency.  SCALO replaces it with a constant-time
alternative (the paper cites consistent hashing): for each n-gram ``g``
with weight ``w_g``, draw a deterministic pseudo-uniform ``u_g = h(g,
seed)`` in (0, 1) and score it ``u_g ** (1 / w_g)``; the arg-max n-gram is
the sample.  This is the classic one-pass weighted min-wise sampler: the
probability that two profiles select the same n-gram equals their weighted
Jaccard similarity, and the compute per n-gram is constant.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.errors import ConfigurationError


def _uniform01(value: int, seed: int) -> float:
    """Deterministic hash of ``(value, seed)`` to a float in (0, 1)."""
    digest = hashlib.blake2b(
        struct.pack("<qq", value, seed), digest_size=8
    ).digest()
    as_int = int.from_bytes(digest, "little")
    # avoid exactly 0 so the 1/w power is well defined
    return (as_int + 1) / (2**64 + 2)


def finalize_hash(sample: int, seed: int, bits: int) -> int:
    """Map a min-hash sample to a ``bits``-wide hash value.

    The paper's hashes are 8 bits per window (1-2 bytes total across
    components); this is the final quantisation step.
    """
    if not 1 <= bits <= 32:
        raise ConfigurationError("hash width must be 1..32 bits")
    digest = hashlib.blake2b(
        struct.pack("<qq", sample, ~seed & 0xFFFFFFFF), digest_size=4
    ).digest()
    return int.from_bytes(digest, "little") & ((1 << bits) - 1)


def minhash_tables(
    seeds: list[int], bits: int, n_values: int
) -> tuple[np.ndarray, np.ndarray]:
    """Precompute the per-seed score and finalisation lookup tables.

    :func:`_uniform01` and :func:`finalize_hash` depend only on
    ``(value, seed)``, so over the bounded shingle alphabet
    (``n_values == 2**ngram``) they tabulate once per hash family instead
    of costing a blake2b digest per n-gram per seed per window:
    ``U[s, v]`` is the pseudo-uniform draw and ``F[s, v]`` the finalised
    ``bits``-wide component for value ``v`` under seed ``seeds[s]``.
    These tables are the only place the sampler's values are defined.
    """
    if n_values < 1:
        raise ConfigurationError("need a positive shingle alphabet size")
    uniforms = np.empty((len(seeds), n_values), dtype=np.float64)
    finals = np.empty((len(seeds), n_values), dtype=np.int64)
    for s, seed in enumerate(seeds):
        for value in range(n_values):
            uniforms[s, value] = _uniform01(value, seed)
            finals[s, value] = finalize_hash(value, seed, bits)
    return uniforms, finals


def minhash_signature_batch(
    values: np.ndarray,
    seeds: list[int],
    bits: int,
    n_values: int,
    tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """One weighted min-hash signature per row of shingle values.

    Args:
        values: ``(n_windows, n_shingles)`` packed shingle values in
            ``[0, n_values)`` (see
            :func:`~repro.hashing.ngram.ngram_value_matrix`).
        tables: optional precomputed :func:`minhash_tables` output.

    Returns:
        ``(n_windows, len(seeds))`` int64 signature components; row ``i``
        equals what the scalar reference ``tests.oracles.minhash_signature``
        computes from that row's n-gram counts.

    Each present shingle value ``v`` with weight ``w`` scores
    ``U[s, v] ** (1 / w)``; the arg-max is the sample, and ties break
    toward the smallest shingle value (``argmax`` returns the first
    maximum over the ascending value axis).
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ConfigurationError("expected (n_windows, n_shingles) values")
    n_rows, n_shingles = values.shape
    if n_shingles == 0:
        raise ConfigurationError("cannot min-hash an empty n-gram profile")
    uniforms, finals = tables if tables is not None else minhash_tables(
        seeds, bits, n_values
    )
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), n_shingles)
    counts = np.bincount(
        rows * n_values + values.ravel().astype(np.int64),
        minlength=n_rows * n_values,
    ).reshape(n_rows, n_values).astype(np.float64)
    present = counts > 0
    inv_weight = np.zeros_like(counts)
    inv_weight[present] = 1.0 / counts[present]
    out = np.empty((n_rows, len(seeds)), dtype=np.int64)
    for s in range(len(seeds)):
        scores = np.where(present, uniforms[s][None, :] ** inv_weight, -1.0)
        out[:, s] = finals[s][np.argmax(scores, axis=1)]
    return out
