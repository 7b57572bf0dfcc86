"""Dynamic time warping with a Sakoe-Chiba band (the DTW PE).

The DTW PE runs the standard dynamic-programming recurrence with a
configurable band parameter for speed; setting the band to 1 degenerates
DTW into the (scaled) Euclidean distance, which is how the same PE serves
both measures in the paper (§3.2, "Signal comparison").

Unlike the hash kernels, DTW keeps two production kernels on purpose.
:func:`dtw_distance` walks the DP one row at a time for a single pair;
:func:`dtw_distance_batch` runs the wavefront over many windows against
one template.  The batch kernel only pays off across many rows: one pair
of 120-sample windows at band 10 takes about 3.0 ms through
:func:`dtw_distance` and 11.2 ms through a one-row
:func:`dtw_distance_batch` (2-vCPU Xeon VM, CPython 3.11).  The seizure
propagation protocol compares single pairs, the query scan compares
whole stores, so each uses the kernel that fits.  The two are
element-identical (property-tested in ``tests/test_query_batching.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def dtw_distance(
    series_a: np.ndarray, series_b: np.ndarray, band: int | None = None
) -> float:
    """Banded DTW distance between two 1-D series.

    Args:
        series_a, series_b: sample arrays (need not be equal length).
        band: Sakoe-Chiba band half-width; ``None`` means unconstrained.
            ``band == 1`` with equal-length inputs reduces to the Manhattan
            (L1) alignment along the diagonal, i.e. a Euclidean-style
            lockstep comparison.

    Returns:
        The accumulated L1 alignment cost.
    """
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ConfigurationError("dtw_distance expects 1-D series")
    if a.size == 0 or b.size == 0:
        raise ConfigurationError("dtw_distance expects non-empty series")
    n, m = a.shape[0], b.shape[0]
    if band is not None:
        if band < 1:
            raise ConfigurationError("band must be >= 1")
        if abs(n - m) > band - 1 and band != 1:
            # The band must at least cover the length difference.
            band = abs(n - m) + band
    effective_band = band if band is not None else max(n, m)

    if band == 1:
        if n != m:
            raise ConfigurationError("band=1 (lockstep) needs equal lengths")
        return float(np.sum(np.abs(a - b)))

    inf = np.inf
    prev = np.full(m + 1, inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        current = np.full(m + 1, inf)
        j_low = max(1, i - effective_band)
        j_high = min(m, i + effective_band)
        for j in range(j_low, j_high + 1):
            cost = abs(a[i - 1] - b[j - 1])
            current[j] = cost + min(prev[j], current[j - 1], prev[j - 1])
        prev = current
    result = prev[m]
    if not np.isfinite(result):
        raise ConfigurationError("band too narrow for the length difference")
    return float(result)


def dtw_distance_batch(
    windows: np.ndarray, template: np.ndarray, band: int | None = None
) -> np.ndarray:
    """Banded DTW of many equal-length windows against one template.

    The hot-path form of :func:`dtw_distance` for query scans: the DP
    wavefront is carried for the whole batch at once, so the serial
    ``current[j - 1]`` dependency costs one inner loop over the template
    rather than one per window.  Element ``i`` of the result is
    identical to ``dtw_distance(windows[i], template, band)`` — the
    per-cell ``cost + min(...)`` arithmetic evaluates in the same order
    (property-tested in ``tests/test_query_batching.py``).

    Args:
        windows: ``(n_windows, n_samples)`` batch; rows share a length.
        template: 1-D reference series.
        band: Sakoe-Chiba band half-width, as in :func:`dtw_distance`.

    Returns:
        ``(n_windows,)`` float64 alignment costs.
    """
    w = np.asarray(windows, dtype=float)
    b = np.asarray(template, dtype=float)
    if w.ndim != 2 or b.ndim != 1:
        raise ConfigurationError(
            "dtw_distance_batch expects (n_windows, samples) and a 1-D "
            "template"
        )
    if w.shape[0] == 0:
        return np.empty(0, dtype=float)
    if w.shape[1] == 0 or b.size == 0:
        raise ConfigurationError("dtw_distance expects non-empty series")
    n, m = w.shape[1], b.shape[0]
    if band is not None:
        if band < 1:
            raise ConfigurationError("band must be >= 1")
        if abs(n - m) > band - 1 and band != 1:
            band = abs(n - m) + band
    effective_band = band if band is not None else max(n, m)

    if band == 1:
        if n != m:
            raise ConfigurationError("band=1 (lockstep) needs equal lengths")
        return np.sum(np.abs(w - b[None, :]), axis=1)

    k = w.shape[0]
    inf = np.inf
    prev = np.full((k, m + 1), inf)
    prev[:, 0] = 0.0
    for i in range(1, n + 1):
        current = np.full((k, m + 1), inf)
        j_low = max(1, i - effective_band)
        j_high = min(m, i + effective_band)
        column = w[:, i - 1]
        for j in range(j_low, j_high + 1):
            cost = np.abs(column - b[j - 1])
            current[:, j] = cost + np.minimum(
                np.minimum(prev[:, j], current[:, j - 1]), prev[:, j - 1]
            )
        prev = current
    result = prev[:, m]
    if not np.all(np.isfinite(result)):
        raise ConfigurationError("band too narrow for the length difference")
    return result


def dtw_distance_matrix(
    queries: np.ndarray, references: np.ndarray, band: int | None = None
) -> np.ndarray:
    """All-pairs banded DTW: shape ``(len(queries), len(references))``."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    references = np.atleast_2d(np.asarray(references, dtype=float))
    out = np.empty((queries.shape[0], references.shape[0]))
    for i, q in enumerate(queries):
        for j, r in enumerate(references):
            out[i, j] = dtw_distance(q, r, band)
    return out


def dtw_cell_count(n: int, m: int, band: int | None = None) -> int:
    """Number of DP cells evaluated — the PE's work/latency proxy."""
    if band is None or band >= max(n, m):
        return n * m
    cells = 0
    for i in range(1, n + 1):
        j_low = max(1, i - band)
        j_high = min(m, i + band)
        cells += max(0, j_high - j_low + 1)
    return cells
