"""N-gram (shingle) profiles of bit sketches (the NGRAM PE, part 1).

The sketch bit string is shingled into overlapping n-grams; the histogram
of n-gram occurrences is the weighted set that the min-hash step samples
from.  N-grams tolerate the local insertions/deletions that time warping
introduces, which is why the scheme hashes consistently under DTW.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def ngram_value_matrix(bits: np.ndarray, n: int) -> np.ndarray:
    """Packed shingle values for a whole batch of sketches at once.

    ``bits`` is ``(n_windows, sketch_bits)``; the result is
    ``(n_windows, sketch_bits - n + 1)`` of integer shingle values, each
    packed MSB first.  Row ``i`` spans exactly the keys of the scalar
    reference ``tests.oracles.ngram_counts(bits[i], n)``; occurrence
    counts fall out of a single ``bincount`` downstream (see
    :func:`repro.hashing.minhash.minhash_signature_batch`).
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ConfigurationError("expected a (n_windows, bits) array")
    if n < 1:
        raise ConfigurationError("n-gram size must be >= 1")
    if np.any((bits != 0) & (bits != 1)):
        raise ConfigurationError("sketch must contain only 0/1 bits")
    if bits.shape[1] < n:
        return np.empty((bits.shape[0], 0), dtype=np.int64)
    weights = 1 << np.arange(n - 1, -1, -1)
    shingles = np.lib.stride_tricks.sliding_window_view(
        bits.astype(np.int64), n, axis=1
    )
    return shingles @ weights
