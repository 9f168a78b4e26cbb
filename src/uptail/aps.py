"""Exact arithmetic-progression counting over subsets of {1,...,N}.

Progressions are enumerated by (first element, common difference b > 0),
so degenerate b = 0 runs are excluded and each progression is counted once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class IntegerSet:
    """Subset of {1,...,N} stored as a bitmask (bit i-1 <-> element i)."""

    mask: int = 0

    @classmethod
    def from_elements(cls, elements):
        mask = 0
        for e in elements:
            if e < 1:
                raise ValueError("elements must be >= 1")
            mask |= 1 << (e - 1)
        return cls(mask)

    def elements(self):
        return [i + 1 for i in range(self.mask.bit_length()) if self.mask >> i & 1]

    def __len__(self):
        return bin(self.mask).count("1")

    def __contains__(self, element):
        return element >= 1 and self.mask >> (element - 1) & 1 == 1


@dataclass(frozen=True)
class ApModel:
    """k-term progressions in the p-random subset of {1,...,N}.

    Coordinate i-1 is element i.  The model protocol is that of the graph
    models (see ``graphs._EdgeModel``); conditioning sets are ``IntegerSet``s.
    """

    N: int
    k: int
    p: Fraction

    monotone = True
    witness_kind = "subset"

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.N < 0:
            raise ValueError("N must be nonnegative")
        if not 0 < self.p < 1:
            raise ValueError("p must lie strictly between 0 and 1")

    @property
    def ground_size(self):
        return self.N

    @property
    def degree(self):
        return self.k

    def table(self):
        """One index row per progression and no absent rows."""
        return progression_masks(self.N, self.k), None

    def to_mask(self, conditioning):
        """The coordinate mask of a conditioning set inside {1,...,N}."""
        if not isinstance(conditioning, IntegerSet):
            raise TypeError("AP models condition on IntegerSet objects")
        if conditioning.mask >> self.N:
            raise ValueError(f"AP models condition on elements of 1..{self.N}")
        return conditioning.mask

    def from_mask(self, mask):
        return IntegerSet(mask)

    def mask_items(self, mask):
        """The elements of a mask in JSON form, increasing."""
        return IntegerSet(mask).elements()


def progression_masks(n, k):
    """Coordinate-index rows (element - 1) of every k-term progression
    inside {1,...,n}: start + d * arange(k), one block per common
    difference d, each block by increasing start.  The int32 rows are
    filled in place a block at a time, so no temporary outgrows a block."""
    if k < 2:
        raise ValueError("k must be at least 2")
    diffs = range(1, (n - 1) // (k - 1) + 1)
    rows = np.empty((sum(n - (k - 1) * d for d in diffs), k), dtype=np.int32)
    first = np.arange(n, dtype=np.int32)
    start = 0
    for d in diffs:
        block = rows[start:start + n - (k - 1) * d]
        block[:, 0] = first[:len(block)]
        for j in range(1, k):
            np.add(block[:, j - 1], d, out=block[:, j])
        start += len(block)
    return rows


def count_aps(subset, k, universe=None):
    """Number of k-term progressions inside {1,...,universe} and fully
    inside ``subset``.

    ``universe`` defaults to the largest element present.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    n = max(universe, 0) if universe is not None else subset.mask.bit_length()
    return _overlap_counts(n, k, subset.mask & (1 << n) - 1)[k]


def extremal_ap_count(m, k):
    """Progression count of the initial interval {1,...,m}: sum of floor((i-1)/(k-1))."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k < 2:
        raise ValueError("k must be at least 2")
    # closed form of the floor sum: m = q(k-1)+r with 0 <= r < k-1
    q, r = divmod(m, k - 1)
    return (k - 1) * q * (q - 1) // 2 + r * q


def _overlap_counts(n, k, mask):
    """a_0..a_k: the number of k-term progressions inside {1,...,n} meeting
    the coordinate mask ``mask`` (below 2^n) in j points.

    For each common difference d the overlaps of all progressions of
    difference d are k strided slices of the mask's 0/1 indicator, summed.
    """
    indicator = np.unpackbits(np.frombuffer(mask.to_bytes(n // 8 + 1, "little"), dtype=np.uint8),
                              bitorder="little")[:n]
    counts = np.zeros(k + 1, dtype=np.int64)
    for d in range(1, (n - 1) // (k - 1) + 1):
        starts = n - (k - 1) * d
        overlaps = sum(indicator[j * d:j * d + starts] for j in range(k))
        counts += np.bincount(overlaps, minlength=k + 1)
    return counts.tolist()


def conditional_expectation_ap(model, subset):
    """E[X | subset present] = sum_j a_j(I) p^{k-j}, exact."""
    p, k = model.p, model.k
    counts = _overlap_counts(model.N, k, model.to_mask(subset))
    return sum((a_j * p ** (k - j) for j, a_j in enumerate(counts)), Fraction(0))


def ap_mean(model):
    return extremal_ap_count(model.N, model.k) * model.p ** model.k
