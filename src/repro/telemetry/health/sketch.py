"""A deterministic, mergeable quantile sketch (DDSketch-style).

This is the metrics registry's one store for observed values.  A
fixed-bucket histogram's quantiles are only as good as its bucket grid,
and two nodes' histograms only merge if they share identical edges.  A
*relative-error* sketch instead buckets values on a geometric
ladder ``gamma**k`` with ``gamma = (1 + alpha) / (1 - alpha)``: any
quantile estimate is then within a factor ``(1 ± alpha)`` of the true
value, regardless of scale, and two sketches with the same ``alpha``
merge by adding bucket counts — an operation that is exactly
associative and commutative (integer addition per key), so per-node
sketches fold into per-fleet sketches in any order and the result is
byte-identical.  This is the DDSketch construction (Masson et al.,
VLDB 2019) in pure python.

Guarantees (property-tested in ``tests/test_health.py``):

* ``quantile(q)`` is within relative error ``alpha`` of the exact
  nearest-rank quantile of every value ever observed (values below
  ``min_indexable`` collapse into an exact zero bucket);
* ``a.merge(b)`` equals observing the concatenation of both value
  streams, in any order and association;
* the bucket state is integer counts keyed by integer bucket indices,
  so merge order cannot perturb any quantile, count, or extreme.  The
  convenience ``sum`` is a float accumulator and is order-sensitive in
  the final ulp — replays are still byte-identical per seed because a
  seeded run observes and merges in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Default relative accuracy: quantiles within ±1 %.
DEFAULT_RELATIVE_ACCURACY = 0.01

#: Values with magnitude at or below this collapse into the zero bucket;
#: everything the simulator observes (latencies in ms, coverages) is
#: either exactly zero or far above it.
MIN_INDEXABLE = 1e-9


@dataclass
class QuantileSketch:
    """Mergeable relative-error quantile sketch over arbitrary floats.

    Positive and negative values live in mirrored geometric stores;
    zeros (and magnitudes below :data:`MIN_INDEXABLE`) are counted
    exactly.  ``total``/``min_value``/``max_value`` ride along so means
    and extremes survive export; the extremes keep the observed value's
    type, so an integer series exports ``3``, not ``3.0``.
    """

    relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY
    _positive: dict[int, int] = field(default_factory=dict)
    _negative: dict[int, int] = field(default_factory=dict)
    zero_count: int = 0
    count: int = 0
    total: float = 0.0
    min_value: float = float("inf")
    max_value: float = float("-inf")

    def __post_init__(self) -> None:
        if not 0 < self.relative_accuracy < 1:
            raise ConfigurationError(
                "relative accuracy must be in (0, 1), got "
                f"{self.relative_accuracy}"
            )
        self._gamma = (1 + self.relative_accuracy) / (
            1 - self.relative_accuracy
        )
        self._log_gamma = math.log(self._gamma)

    # -- indexing ------------------------------------------------------------------

    def _key(self, magnitude: float) -> int:
        """The geometric bucket of one positive magnitude.

        Bucket ``k`` covers ``(gamma**(k-1), gamma**k]``; any value in
        it is represented by the bucket midpoint
        ``2 * gamma**k / (gamma + 1)``, which is within relative error
        ``alpha`` of every member.
        """
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def _value(self, key: int) -> float:
        return 2.0 * self._gamma**key / (self._gamma + 1.0)

    # -- writes --------------------------------------------------------------------

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``value`` (``n`` times)."""
        if n < 1:
            raise ConfigurationError("observation count must be positive")
        if value != value:  # NaN
            raise ConfigurationError("cannot observe NaN")
        if abs(value) <= MIN_INDEXABLE:
            self.zero_count += n
        elif value > 0:
            key = self._key(value)
            self._positive[key] = self._positive.get(key, 0) + n
        else:
            key = self._key(-value)
            self._negative[key] = self._negative.get(key, 0) + n
        self.count += n
        self.total += value * n
        self.min_value = min(self.min_value, value)
        self.max_value = max(self.max_value, value)

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (associative, commutative).

        Both sketches must share the same ``relative_accuracy`` — the
        bucket ladders must line up for counts to be addable.
        """
        if other.relative_accuracy != self.relative_accuracy:
            raise ConfigurationError(
                "cannot merge sketches with different relative accuracies "
                f"({self.relative_accuracy} vs {other.relative_accuracy})"
            )
        for key, n in other._positive.items():
            self._positive[key] = self._positive.get(key, 0) + n
        for key, n in other._negative.items():
            self._negative[key] = self._negative.get(key, 0) + n
        self.zero_count += other.zero_count
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)

    def copy(self) -> "QuantileSketch":
        clone = QuantileSketch(relative_accuracy=self.relative_accuracy)
        clone._positive = dict(self._positive)
        clone._negative = dict(self._negative)
        clone.zero_count = self.zero_count
        clone.count = self.count
        clone.total = self.total
        clone.min_value = self.min_value
        clone.max_value = self.max_value
        return clone

    def delta_since(self, earlier: "QuantileSketch") -> "QuantileSketch":
        """The sketch of observations made since ``earlier`` was copied.

        ``earlier`` must be a prefix of this sketch (a snapshot taken by
        :meth:`copy` at some past point); bucket subtraction then yields
        exactly the sketch of the interim observations — the per-round
        windows the SLO engine evaluates.
        """
        delta = QuantileSketch(relative_accuracy=self.relative_accuracy)
        for key, n in self._positive.items():
            d = n - earlier._positive.get(key, 0)
            if d > 0:
                delta._positive[key] = d
        for key, n in self._negative.items():
            d = n - earlier._negative.get(key, 0)
            if d > 0:
                delta._negative[key] = d
        delta.zero_count = self.zero_count - earlier.zero_count
        delta.count = self.count - earlier.count
        delta.total = self.total - earlier.total
        # extremes are not subtractable; report the superset's, which
        # stays a valid bound for the interim observations
        delta.min_value = self.min_value
        delta.max_value = self.max_value
        return delta

    # -- reads ---------------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The nearest-rank ``q``-quantile estimate, ``q`` in [0, 1].

        Within relative error ``relative_accuracy`` of the exact
        nearest-rank quantile (rank ``max(1, ceil(q * n))``) of the
        observed values.  Returns 0.0 on an empty sketch.
        """
        if not 0 <= q <= 1:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        # negatives first (most negative = largest magnitude first)
        for key in sorted(self._negative, reverse=True):
            seen += self._negative[key]
            if seen >= rank:
                return -self._value(key)
        seen += self.zero_count
        if seen >= rank:
            return 0.0
        for key in sorted(self._positive):
            seen += self._positive[key]
            if seen >= rank:
                return self._value(key)
        return self.max_value  # unreachable unless counts drifted

    def as_dict(self) -> dict:
        """A JSON-able, deterministically-ordered view."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "count": self.count,
            "sum": self.total,
            "min": self.min_value if self.count else None,
            "max": self.max_value if self.count else None,
            "zero_count": self.zero_count,
            "positive": {
                str(k): self._positive[k] for k in sorted(self._positive)
            },
            "negative": {
                str(k): self._negative[k] for k in sorted(self._negative)
            },
            "quantiles": {
                "p50": self.quantile(0.50),
                "p90": self.quantile(0.90),
                "p99": self.quantile(0.99),
            },
        }
