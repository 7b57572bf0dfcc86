"""Tests for sign sketches, n-gram profiles, and weighted min-hash.

Each production kernel is checked against its scalar reference in
`tests/oracles.py`.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hashing.minhash import finalize_hash, minhash_signature_batch
from repro.hashing.ngram import ngram_value_matrix
from repro.hashing.sketch import (
    random_projection_vector,
    sign_sketch_batch,
    sketch_length,
)
from tests.oracles import (
    minhash_signature,
    ngram_counts,
    profile_similarity,
    sign_sketch,
    weighted_minhash_sample,
)


def _profile_values(counts: dict[int, int]) -> np.ndarray:
    """One row of shingle values whose histogram is ``counts``."""
    keys = sorted(counts)
    return np.repeat(keys, [counts[k] for k in keys])[None, :]


def _batch_signature(counts: dict[int, int], seeds: list[int], bits: int,
                     n_values: int = 64) -> tuple[int, ...]:
    row = minhash_signature_batch(_profile_values(counts), seeds, bits, n_values)
    return tuple(int(c) for c in row[0])


class TestProjection:
    def test_deterministic_for_seed(self):
        a = random_projection_vector(16, seed=7)
        b = random_projection_vector(16, seed=7)
        assert (a == b).all()

    def test_different_salts_differ(self):
        a = random_projection_vector(16, 7, rng_salt=0)
        b = random_projection_vector(16, 7, rng_salt=1)
        assert not (a == b).all()

    def test_bad_length_rejected(self):
        with pytest.raises(ConfigurationError):
            random_projection_vector(0, 7)


class TestSignSketch:
    def test_output_is_bits(self, rng):
        proj = random_projection_vector(8, 7)
        bits = sign_sketch_batch(rng.normal(size=(3, 64)), proj)
        assert set(np.unique(bits)) <= {0, 1}

    def test_length_matches_helper(self, rng):
        proj = random_projection_vector(8, 7)
        for stride in (1, 2, 4):
            for diff in (True, False):
                batch = rng.normal(size=(3, 64))
                bits = sign_sketch_batch(batch, proj, stride, difference=diff)
                assert bits.shape == (3, sketch_length(64, 8, stride, diff))
                for row, expected in zip(bits, batch):
                    assert (row == sign_sketch(expected, proj, stride,
                                               difference=diff)).all()

    def test_gain_invariant(self, rng):
        proj = random_projection_vector(8, 7)
        x = rng.normal(size=(2, 64))
        assert (sign_sketch_batch(x, proj)
                == sign_sketch_batch(3.5 * x, proj)).all()

    def test_normalise_makes_offset_invariant(self, rng):
        proj = random_projection_vector(8, 7)
        x = rng.normal(size=(2, 64))
        x[1] = 4.0  # zero variance
        a = sign_sketch_batch(x, proj, normalise=True)
        b = sign_sketch_batch(x + 100.0, proj, normalise=True)
        assert (a == b).all()
        for row, window in zip(a, x):
            assert (row == sign_sketch(window, proj, normalise=True)).all()

    def test_projection_longer_than_window_rejected(self):
        proj = random_projection_vector(32, 7)
        with pytest.raises(ConfigurationError):
            sign_sketch(np.zeros(16), proj)
        with pytest.raises(ConfigurationError):
            sign_sketch_batch(np.zeros((1, 16)), proj)

    def test_bad_stride_rejected(self, rng):
        proj = random_projection_vector(8, 7)
        with pytest.raises(ConfigurationError):
            sign_sketch(rng.normal(size=64), proj, stride=0)
        with pytest.raises(ConfigurationError):
            sign_sketch_batch(rng.normal(size=(1, 64)), proj, stride=0)


class TestNgrams:
    def test_counts(self):
        bits = np.array([1, 0, 1, 0, 1])
        counts = ngram_counts(bits, 2)
        # shingles: 10, 01, 10, 01 -> {0b10: 2, 0b01: 2}
        assert counts == {2: 2, 1: 2}
        values = ngram_value_matrix(bits[None, :], 2)
        assert values.tolist() == [[2, 1, 2, 1]]

    def test_matrix_rows_match_counts(self, rng):
        bits = rng.integers(0, 2, (4, 40))
        for row, values in zip(bits, ngram_value_matrix(bits, 5)):
            keys, counts = np.unique(values, return_counts=True)
            assert dict(zip(keys.tolist(), counts.tolist())) == ngram_counts(
                row, 5
            )

    def test_short_input_empty(self):
        assert ngram_counts(np.array([1]), 3) == {}
        assert ngram_value_matrix(np.array([[1]]), 3).shape == (1, 0)

    def test_non_binary_rejected(self):
        with pytest.raises(ConfigurationError):
            ngram_counts(np.array([0, 2, 1]), 2)
        with pytest.raises(ConfigurationError):
            ngram_value_matrix(np.array([[0, 2, 1]]), 2)

    def test_profile_similarity_bounds(self, rng):
        a = ngram_counts(rng.integers(0, 2, 64), 4)
        b = ngram_counts(rng.integers(0, 2, 64), 4)
        similarity = profile_similarity(a, b)
        assert 0.0 <= similarity <= 1.0
        assert profile_similarity(a, a) == 1.0

    def test_disjoint_profiles_zero(self):
        assert profile_similarity({1: 3}, {2: 5}) == 0.0


class TestMinhash:
    def test_deterministic(self):
        counts = {1: 3, 2: 1, 5: 7}
        assert _batch_signature(counts, [42], 8) == _batch_signature(
            counts, [42], 8
        )
        assert _batch_signature(counts, [42], 8) == minhash_signature(
            counts, [42], 8
        )

    def test_collision_probability_tracks_jaccard(self, rng):
        """The production min-hash collision rate estimates weighted Jaccard."""
        a = {i: int(w) for i, w in enumerate(rng.integers(1, 10, 20))}
        b = dict(a)
        # perturb a few weights
        for key in list(b)[:5]:
            b[key] = max(1, b[key] + 3)
        true_j = profile_similarity(a, b)
        seeds = list(range(400))
        # 32-bit components: a collision is a shared sample, not a
        # finalisation coincidence
        sig_a = _batch_signature(a, seeds, 32)
        sig_b = _batch_signature(b, seeds, 32)
        hits = sum(x == y for x, y in zip(sig_a, sig_b))
        assert hits / len(seeds) == pytest.approx(true_j, abs=0.1)

    def test_empty_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_minhash_sample({}, 1)
        with pytest.raises(ConfigurationError):
            minhash_signature_batch(np.empty((1, 0), dtype=int), [1], 8, 64)

    def test_zero_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_minhash_sample({1: 0}, 1)

    def test_finalize_width(self):
        for bits in (1, 4, 8, 16):
            value = finalize_hash(12345, 7, bits)
            assert 0 <= value < (1 << bits)

    def test_finalize_bad_width_rejected(self):
        with pytest.raises(ConfigurationError):
            finalize_hash(1, 7, 0)

    def test_signature_length(self):
        values = _profile_values({1: 2, 3: 4})
        sig = minhash_signature_batch(values, seeds=[1, 2, 3], bits=8,
                                      n_values=4)
        assert sig.shape == (1, 3)
        assert tuple(sig[0]) == minhash_signature({1: 2, 3: 4}, [1, 2, 3], 8)
