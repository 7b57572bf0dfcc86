"""Dynamic time warping with a Sakoe-Chiba band (the DTW PE).

The DTW PE runs the standard dynamic-programming recurrence with a
configurable band parameter for speed; setting the band to 1 degenerates
DTW into the (scaled) Euclidean distance, which is how the same PE serves
both measures in the paper (§3.2, "Signal comparison").

Unlike the hash kernels, DTW keeps two production kernels on purpose.
:func:`dtw_distance` runs the DP for a single pair on Python floats and
lists, one row at a time; :func:`dtw_distance_batch` runs the wavefront
over many windows against one template in numpy.  The batch kernel pays
numpy call overhead for every banded DP cell whatever the batch size, so
it only wins across many rows.  At 120 samples and band 10 (2-vCPU Xeon VM,
CPython 3.11, numpy 2.4): one pair takes about 0.6 ms through
:func:`dtw_distance` and 12 ms through a one-row batch; 8 windows take
about 4 ms as a loop of single-pair calls against 13 ms batched; the
two cross at roughly 20-30 windows, and at 32 windows the batch is
ahead (about 13 ms against 17 ms).  The seizure propagation protocol
compares single pairs, the query scan compares whole stores, so each
uses the kernel that fits.

:func:`dtw_distance` is exact: every DP cell is the same IEEE-754
subtraction, absolute value, builtin three-way ``min`` and addition, in
the same order, as the numpy-scalar reference
``tests.oracles.dtw_distance``, so results are bit-identical to it for
every input, NaN and infinities included (property-tested in
``tests/test_similarity.py``).  :func:`dtw_distance_batch` is
element-identical to the same reference on finite inputs
(``tests/test_query_batching.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError


def _effective_band(n: int, m: int, band: int | None) -> int | None:
    """The half-width the DP walks for an ``n`` x ``m`` pair.

    ``None`` selects the lockstep path (``band == 1``).  A band narrower
    than the length difference is widened to ``|n - m| + band`` so the
    path from ``(0, 0)`` to ``(n, m)`` stays inside it; ``band=None``
    means unconstrained (``max(n, m)``).
    """
    if band is None:
        return max(n, m)
    if band < 1:
        raise ConfigurationError("band must be >= 1")
    if band == 1:
        if n != m:
            raise ConfigurationError("band=1 (lockstep) needs equal lengths")
        return None
    if abs(n - m) > band - 1:
        return abs(n - m) + band
    return band


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
    effective_band = _effective_band(n, m, band)
    if effective_band is None:
        return float(np.sum(np.abs(a - b)))

    # The recurrence on Python floats: each cell is the same IEEE-754
    # subtraction, abs, comparisons and addition, in the same order, as
    # ``cost + min(prev[j], current[j - 1], prev[j - 1])`` on numpy
    # scalars, so the result is bit-identical.  ``left`` is
    # ``current[j - 1]`` and ``diag`` is ``prev[j - 1]``; the two
    # comparisons are builtin ``min``'s, first operand kept on ties/NaN.
    al = a.tolist()
    bl = b.tolist()
    inf = math.inf
    prev = [inf] * (m + 1)
    prev[0] = 0.0
    for i in range(1, n + 1):
        ai = al[i - 1]
        current = [inf] * (m + 1)
        j_low = max(1, i - effective_band)
        j_high = min(m, i + effective_band)
        left = inf
        diag = prev[j_low - 1]
        for j in range(j_low, j_high + 1):
            up = prev[j]
            best = up
            if left < best:
                best = left
            if diag < best:
                best = diag
            left = abs(ai - bl[j - 1]) + best
            current[j] = left
            diag = up
        prev = current
    result = prev[m]
    if not math.isfinite(result):
        raise ConfigurationError("band too narrow for the length difference")
    return result


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
    effective_band = _effective_band(n, m, band)
    if effective_band is None:
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
    """DP cells :func:`dtw_distance` evaluates — the PE's work/latency proxy.

    Follows the kernel's band rules: the lockstep path (``band == 1``)
    touches ``n`` cells, and a band narrower than the length difference
    is widened first.
    """
    effective_band = _effective_band(n, m, band)
    if effective_band is None:
        return n
    if effective_band >= max(n, m):
        return n * m
    cells = 0
    for i in range(1, n + 1):
        j_low = max(1, i - effective_band)
        j_high = min(m, i + effective_band)
        cells += max(0, j_high - j_low + 1)
    return cells
