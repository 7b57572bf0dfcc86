"""Scalar reference implementations that the production kernels are tested against.

Production code has one path per concern: LSH hashing runs through the
batched kernels (``sign_sketch_batch`` -> ``ngram_value_matrix`` ->
``minhash_signature_batch``) and the query scan through one batched pass
per node.  The functions here are the plain one-window-at-a-time
versions of the same computations — one blake2b digest per shingle per
seed, one read and one hash or DTW per stored window.  They are slow on
purpose and live only in the test tree; tests hold production output
equal to theirs, element for element.

Only :func:`~repro.hashing.minhash._uniform01` and
:func:`~repro.hashing.minhash.finalize_hash` are shared with production:
they define the values the production lookup tables hold.

The SECDED page code works the same way: production folds packed masks
and popcounts the result; :func:`ecc_syndrome_parity` unpacks every bit
and XORs the 1-based indices of the set ones, and
:func:`ecc_decode_page` applies the documented decision table to it.

So do the seizure protocol's two host kernels.  Production DTW runs the
recurrence on Python floats and lists; :func:`dtw_distance` walks numpy
arrays cell by cell.  Production CCHECK indexes each signature component
in a dict; :func:`collision_check` sorts the received batch and
binary-searches it per component, as the PE does.

The fabric's per-tenant arrival streams are one-client draws of the
serving layer's generator; :func:`generate_tenant_arrivals` is the
tenant-only loop they replaced, drawing each stream directly.
"""

from __future__ import annotations

import bisect
import zlib

import numpy as np

from repro.apps.queries import (
    DistributedQueryResult,
    QueryEngine,
    QueryResultRow,
    QuerySpec,
)
from repro.errors import ConfigurationError, ScaloError
from repro.fabric.loadgen import FabricLoadConfig, tenant_name
from repro.hashing.collision import HashRecord
from repro.hashing.emd_hash import EMDHash
from repro.hashing.lsh import LSHFamily
from repro.hashing.minhash import _uniform01, finalize_hash
from repro.recovery.ecc import DecodeResult, PageECC
from repro.serving.loadgen import Arrival
from repro.similarity.emd import signal_to_histogram

# --- the hash pipeline: HCONV -> NGRAM -> weighted min-hash ---------------------


def sign_sketch(
    window: np.ndarray,
    projection: np.ndarray,
    stride: int = 1,
    normalise: bool = False,
    difference: bool = True,
) -> np.ndarray:
    """Bit sketch of one window: signs of sliding dot products."""
    x = np.asarray(window, dtype=float)
    r = np.asarray(projection, dtype=float)
    if x.ndim != 1 or r.ndim != 1:
        raise ConfigurationError("window and projection must be 1-D")
    if r.shape[0] > x.shape[0]:
        raise ConfigurationError(
            f"projection ({r.shape[0]}) longer than window ({x.shape[0]})"
        )
    if stride < 1:
        raise ConfigurationError("stride must be >= 1")
    if normalise:
        std = x.std()
        x = (x - x.mean()) / std if std > 0 else x - x.mean()
    positions = np.lib.stride_tricks.sliding_window_view(x, r.shape[0])[::stride]
    dots = positions @ r
    if difference:
        return (np.diff(dots) > 0).astype(np.uint8)
    return (dots > 0).astype(np.uint8)


def ngram_counts(bits: np.ndarray, n: int) -> dict[int, int]:
    """Histogram of the n-bit shingles (packed MSB first), keys ascending."""
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ConfigurationError("expected a 1-D bit array")
    if n < 1:
        raise ConfigurationError("n-gram size must be >= 1")
    if np.any((bits != 0) & (bits != 1)):
        raise ConfigurationError("sketch must contain only 0/1 bits")
    if bits.shape[0] < n:
        return {}
    weights = 1 << np.arange(n - 1, -1, -1)
    shingles = np.lib.stride_tricks.sliding_window_view(bits.astype(np.int64), n)
    uniques, counts = np.unique(shingles @ weights, return_counts=True)
    return {int(v): int(c) for v, c in zip(uniques, counts)}


def profile_similarity(counts_a: dict[int, int], counts_b: dict[int, int]) -> float:
    """Weighted Jaccard similarity: what min-hash collisions estimate."""
    keys = set(counts_a) | set(counts_b)
    min_sum = sum(min(counts_a.get(k, 0), counts_b.get(k, 0)) for k in keys)
    max_sum = sum(max(counts_a.get(k, 0), counts_b.get(k, 0)) for k in keys)
    return min_sum / max_sum if max_sum else 1.0


def weighted_minhash_sample(counts: dict[int, int], seed: int) -> int:
    """Select one n-gram: the arg-max of ``u ** (1 / w)``.

    Ties keep the first key in iteration order, which for an
    :func:`ngram_counts` profile is the smallest shingle value.
    """
    if not counts:
        raise ConfigurationError("cannot min-hash an empty n-gram profile")
    best_key = -1
    best_score = -1.0
    for key, weight in counts.items():
        if weight <= 0:
            continue
        score = _uniform01(key, seed) ** (1.0 / weight)
        if score > best_score:
            best_score = score
            best_key = key
    if best_key < 0:
        raise ConfigurationError("profile has no positive weights")
    return best_key


def minhash_signature(
    counts: dict[int, int], seeds: list[int], bits: int
) -> tuple[int, ...]:
    """One finalised component per seed — the OR-construction signature."""
    return tuple(
        finalize_hash(weighted_minhash_sample(counts, seed), seed, bits)
        for seed in seeds
    )


def emd_hash_window(emd: EMDHash, window: np.ndarray) -> tuple[int, ...]:
    """EMD hash of one window: histogram, projection, sqrt, quantise."""
    window = np.asarray(window, dtype=float)
    if emd.normalise:
        std = window.std()
        window = (window - window.mean()) / std if std > 0 else window
    histogram = signal_to_histogram(window, emd.n_bins, emd.value_range)
    total = histogram.sum()
    if total > 0:
        histogram = histogram / total
    components = []
    for projection, offset in zip(emd._projections, emd._offsets):
        value = np.sqrt(max(float(histogram @ projection), 0.0))
        components.append(int(np.floor((value + offset) / emd.bucket_width)))
    return tuple(components)


def lsh_hash_window(family: LSHFamily, window: np.ndarray) -> tuple[int, ...]:
    """The reference for ``family.hash_window`` and each ``hash_windows`` row."""
    window = np.asarray(window, dtype=float)
    if window.ndim != 1:
        raise ConfigurationError("hash_window expects a single 1-D window")
    if family._emd is not None:
        return emd_hash_window(family._emd, window)
    config = family.config
    bits = sign_sketch(
        window, family._projection, stride=config.stride,
        normalise=config.normalise,
    )
    counts = ngram_counts(bits, config.ngram)
    if not counts:
        # window shorter than the sketch geometry: an empty profile
        return tuple(0 for _ in family._seeds)
    return minhash_signature(counts, family._seeds, config.bits)


class OracleLSH(LSHFamily):
    """An :class:`LSHFamily` whose every hash goes through :func:`lsh_hash_window`.

    Drop it in where production code takes an ``lsh`` to run that code
    on the reference hash.
    """

    def hash_window(self, window: np.ndarray) -> tuple[int, ...]:
        return lsh_hash_window(self, window)

    def hash_windows(self, windows: np.ndarray) -> np.ndarray:
        batch = np.asarray(windows, dtype=float)
        if batch.ndim != 2:
            raise ConfigurationError("hash_windows expects (n_windows, samples)")
        out = np.zeros((batch.shape[0], self.config.n_components), dtype=np.int64)
        for i, row in enumerate(batch):
            out[i] = lsh_hash_window(self, row)
        return out

    def hash_channels(self, windows: np.ndarray) -> list[tuple[int, ...]]:
        return [lsh_hash_window(self, row) for row in np.asarray(windows, float)]


# --- the seizure protocol: DTW and CCHECK ------------------------------------------


def dtw_distance(
    series_a: np.ndarray, series_b: np.ndarray, band: int | None = None
) -> float:
    """The reference for ``repro.similarity.dtw.dtw_distance``."""
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


def collision_check(
    received: list[tuple[int, ...]],
    local: list[HashRecord],
    min_matching: int,
) -> list[tuple[int, HashRecord]]:
    """The reference for ``CollisionChecker(min_matching).check``."""
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
            if agreeing >= min_matching:
                matches.append((idx, record))
    return matches


# --- the query scan ----------------------------------------------------------------


def _scan_node(
    engine: QueryEngine,
    node: int,
    spec: QuerySpec,
    window_range: tuple[int, int],
    template: np.ndarray | None,
    template_sig: tuple[int, ...] | None,
) -> list[QueryResultRow]:
    start, stop = window_range
    controller = engine.controllers[node]
    flags = engine.seizure_flags.get(node, set())
    rows: list[QueryResultRow] = []
    for electrode, window_index in controller.stored_windows():
        if not start <= window_index < stop:
            continue
        if spec.kind == "q1" and window_index not in flags:
            continue
        samples = controller.read_window(electrode, window_index)
        if spec.kind == "q2":
            if spec.use_hash:
                sig = lsh_hash_window(engine.lsh, samples.astype(float))
                if not engine.lsh.matches(sig, template_sig):
                    continue
            elif dtw_distance(
                samples.astype(float), template, engine.dtw_band
            ) > engine.dtw_threshold:
                continue
        rows.append(QueryResultRow(node, electrode, window_index, samples))
    return rows


def query_run(
    engine: QueryEngine,
    spec: QuerySpec,
    window_range: tuple[int, int],
    *,
    template: np.ndarray | None = None,
    dead_nodes: set[int] | None = None,
) -> DistributedQueryResult:
    """The reference for ``engine.run``: one read plus one hash or DTW per window.

    Never consults the signature cache; dead or erroring nodes land in
    ``failed_nodes`` exactly as in :meth:`QueryEngine.run`.
    """
    if spec.kind == "q2" and template is None:
        raise ConfigurationError("q2 needs a template window")
    template_sig = (
        lsh_hash_window(engine.lsh, template)
        if spec.kind == "q2" and spec.use_hash
        else None
    )
    dead = dead_nodes or set()
    rows: list[QueryResultRow] = []
    queried: list[int] = []
    failed: list[int] = []
    for node in range(len(engine.controllers)):
        if node in dead:
            failed.append(node)
            continue
        try:
            node_rows = _scan_node(
                engine, node, spec, window_range, template, template_sig
            )
        except ScaloError:
            failed.append(node)
        else:
            rows.extend(node_rows)
            queried.append(node)
    return DistributedQueryResult(rows, queried, failed)


# --- the SECDED page code ------------------------------------------------------------


def ecc_syndrome_parity(data: bytes) -> tuple[int, int]:
    """XOR of the 1-based indices of the set bits (MSB first), and their parity."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    positions = np.flatnonzero(bits).astype(np.int64) + 1
    if positions.size == 0:
        return 0, 0
    return int(np.bitwise_xor.reduce(positions)), int(positions.size & 1)


def ecc_decode_page(data: bytes, ecc: PageECC) -> DecodeResult:
    """The reference for ``decode_page``, on :func:`ecc_syndrome_parity`."""
    syndrome, parity = ecc_syndrome_parity(data)
    ds = ecc.syndrome ^ syndrome
    dp = ecc.parity ^ parity
    crc_ok = zlib.crc32(data) == ecc.crc
    if ds == 0 and dp == 0:
        if crc_ok:
            return DecodeResult(data, 0, True)
        return DecodeResult(data, 0, False, "crc mismatch, syndrome clean")
    if dp == 0:
        return DecodeResult(data, 0, False, "double-bit error")
    if not 1 <= ds <= 8 * len(data):
        return DecodeResult(data, 0, False, "syndrome out of range")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    bits[ds - 1] ^= 1
    fixed = np.packbits(bits).tobytes()
    if zlib.crc32(fixed) == ecc.crc:
        return DecodeResult(fixed, 1, True)
    return DecodeResult(data, 0, False, "miscorrection (>=3 flips)")


# --- the fabric's per-tenant arrival streams ------------------------------------------


def generate_tenant_arrivals(
    config: FabricLoadConfig,
) -> dict[str, list[Arrival]]:
    """Draw every tenant's arrival timeline from its own RNG stream."""
    weights = np.asarray(config.kind_weights, dtype=float)
    weights = weights / weights.sum()
    arrivals: dict[str, list[Arrival]] = {}
    for index in range(config.n_tenants):
        tenant = tenant_name(index)
        multiplier = config.rate_multipliers.get(tenant, 1.0)
        rng = np.random.default_rng((config.seed, index))
        n_requests = max(1, round(config.requests_per_tenant * multiplier))
        qps = config.offered_qps * multiplier
        stream: list[Arrival] = []
        t = 0.0
        for _ in range(n_requests):
            t += float(rng.exponential(1e3 / qps))
            kind = ("q1", "q2", "q3")[int(rng.choice(3, p=weights))]
            template_index = (
                int(rng.integers(config.n_templates)) if kind == "q2" else None
            )
            spec = QuerySpec(
                kind=kind,
                time_range_ms=config.time_range_ms,
                match_fraction=(
                    1.0 if kind == "q3" else config.match_fraction
                ),
            )
            stream.append(Arrival(t, tenant, spec, template_index))
        arrivals[tenant] = stream
    return arrivals
