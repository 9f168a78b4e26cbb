"""Coordinate-level view of the counting models.

Every model exposes the same small surface: a ground set of Bernoulli
coordinates, the value of the count on a given outcome, its exact mean, and
exact conditional means given forced coordinates.  Subset/graph objects are
translated to coordinate bitmasks here so that the solvers and the core
machinery can stay model-agnostic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .aps import ApModel, IntegerSet, progression_masks
from .graphs import Graph, SubgraphModel, _normalize_edge


@dataclass(frozen=True)
class InducedSubgraphModel:
    """Count induced copies of ``pattern`` in G(n, p).

    Not monotone: each placement requires its non-edges to be absent.
    """

    pattern: Graph
    n: int
    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 < self.p < 1:
            raise ValueError("p must lie strictly between 0 and 1")
        if self.pattern.n < 1:
            raise ValueError("pattern must have at least one vertex")


@lru_cache(maxsize=64)
def edge_index_map(n):
    """Fixed bijection between edges of K_n and coordinates 0..C(n,2)-1.

    Cached per n: callers only read the dict and the pair list."""
    pairs = list(combinations(range(n), 2))
    return {e: i for i, e in enumerate(pairs)}, pairs


def ground_size(model):
    if isinstance(model, (SubgraphModel, InducedSubgraphModel)):
        return model.n * (model.n - 1) // 2
    if isinstance(model, ApModel):
        return model.N
    raise TypeError(f"unsupported model {type(model).__name__}")


def is_monotone(model):
    return isinstance(model, (SubgraphModel, ApModel))


def _placements(pattern, n):
    """Sorted distinct (present, absent) coordinate masks of the pattern
    placed on every vertex set of its size in K_n, in each of its distinct
    relabellings: its edges present, the set's other pairs absent."""
    if pattern.n > n:
        return []
    index, _ = edge_index_map(n)
    pairs = list(combinations(range(pattern.n), 2))
    shapes = set()
    for phi in permutations(range(pattern.n)):
        edges = {_normalize_edge(phi[u], phi[v]) for u, v in pattern.edges}
        shapes.add((tuple(k for k, pair in enumerate(pairs) if pair in edges),
                    tuple(k for k, pair in enumerate(pairs) if pair not in edges)))
    placements = set()
    for verts in combinations(range(n), pattern.n):
        bits = [1 << index[pair] for pair in combinations(verts, 2)]
        for present, absent in shapes:
            placements.add((sum(bits[k] for k in present), sum(bits[k] for k in absent)))
    return sorted(placements)


@lru_cache(maxsize=256)
def _monomial_masks_subgraph(pattern, n):
    """One mask per copy of the pattern in K_n, in increasing order."""
    return tuple(present for present, _ in _placements(pattern, n))


@lru_cache(maxsize=256)
def _placement_masks_induced(pattern, n):
    """(present-mask, absent-mask) per placement of the pattern in K_n."""
    return tuple(_placements(pattern, n))


def monomial_masks(model):
    """Coordinate bitmasks of the monomials (monotone models only)."""
    if isinstance(model, SubgraphModel):
        return _monomial_masks_subgraph(model.pattern, model.n)
    if isinstance(model, ApModel):
        return progression_masks(model.N, model.k)
    raise TypeError("monomial masks exist only for monotone models")


def placement_masks(model):
    if isinstance(model, InducedSubgraphModel):
        return _placement_masks_induced(model.pattern, model.n)
    raise TypeError("placement masks exist only for induced models")


def model_degree(model):
    """Largest number of coordinates a single monomial touches."""
    if isinstance(model, SubgraphModel):
        return model.pattern.num_edges
    if isinstance(model, ApModel):
        return model.k
    if isinstance(model, InducedSubgraphModel):
        return model.pattern.n * (model.pattern.n - 1) // 2
    raise TypeError(f"unsupported model {type(model).__name__}")


def value_on_outcome(model, ones_mask):
    """X evaluated at the outcome whose 1-coordinates are ``ones_mask``."""
    if is_monotone(model):
        return sum(1 for m in monomial_masks(model) if m & ones_mask == m)
    total = 0
    for pmask, amask in placement_masks(model):
        if pmask & ones_mask == pmask and amask & ones_mask == 0:
            total += 1
    return total


def model_mean(model):
    """E[X], exact: each monomial shape (coordinates on, coordinates off)
    counted once in the table and weighted by p^on (1-p)^off."""
    if is_monotone(model):
        shapes = Counter((m.bit_count(), 0) for m in monomial_masks(model))
    else:
        shapes = Counter((pm.bit_count(), am.bit_count()) for pm, am in placement_masks(model))
    p = Fraction(model.p)
    return sum((count * p ** i * (1 - p) ** j for (i, j), count in shapes.items()), Fraction(0))


def max_value(model):
    """Largest possible value of the count (all coordinates on, for monotone)."""
    if is_monotone(model):
        return len(monomial_masks(model))
    return max(value_on_outcome(model, y) for y in range(1 << ground_size(model)))


def conditional_mean_given_mask(model, ones_mask):
    """E[X | the coordinates in ``ones_mask`` are 1], exact (monotone models)."""
    compiled = compile_model(model)
    return Fraction(int(compiled.scaled_means([ones_mask])[0]), compiled.scale)


def conditional_mean_given_subcube(model, ones_mask, zeros_mask):
    """E[X | fixed coordinates], exact, for monotone and induced models."""
    if ones_mask & zeros_mask:
        raise ValueError("a coordinate cannot be fixed to both 0 and 1")
    compiled = compile_model(model)
    return Fraction(int(compiled.scaled_means([ones_mask], [zeros_mask])[0]), compiled.scale)


# ---------------------------------------------------------------------------
# Compiled form and the batched exact conditional-mean kernel
# ---------------------------------------------------------------------------

# Mask rows times monomials per kernel step: bounds the (rows, monomials)
# temporaries, and so the memory a batch adds, at 2^13 entries (64 KB each).
KERNEL_CELLS = 1 << 13
_WORD_BITS = 64
_INT64_LIMIT = 1 << 63


@dataclass(frozen=True, eq=False)
class CompiledModel:
    """A model as monomial masks in machine words plus integer weights.

    With p = a/b and degree D (the most coordinates one monomial touches),
    a monomial missing i present- and j absent-coordinates contributes
    p^i (1-p)^j, that is a^i (b-a)^j b^(D-i-j) / b^D.  ``scaled_means``
    returns b^D E[X | ones, zeros] as exact integers: in int64 while
    #monomials * b^D stays below 2^63, the largest sum possible, and in
    Python ints (object arrays) beyond.
    """

    present: np.ndarray     # (monomials, words) uint64
    absent: np.ndarray      # the same shape; one zero row for a monotone model
    monotone: bool
    degree: int
    p: Fraction
    n_coords: int
    weights: np.ndarray     # by bin i*(D+1)+j; a last bin of weight 0 drops a monomial

    @property
    def scale(self):
        return self.p.denominator ** self.degree

    @property
    def batch_rows(self):
        """Mask rows per kernel step."""
        return max(1, KERNEL_CELLS // max(1, len(self.present)))

    def scaled_bound(self, value):
        """The least integer S with S >= b^D * value: a scaled sum reaches
        ``value`` exactly when it reaches this bound."""
        return math.ceil(Fraction(value) * self.scale)

    def words(self, masks):
        """Python-int masks as (rows, words) uint64 rows."""
        return _words(masks, self.present.shape[1])

    def scaled_means(self, ones, zeros=None):
        """b^D E[X | ones forced on, zeros forced off] for each row, exact.

        ``ones`` and ``zeros`` are sequences of Python-int masks or
        ``words`` rows.  Without ``zeros`` only coordinates are forced on,
        which is defined for monotone models only.
        """
        if zeros is None and not self.monotone:
            raise TypeError("use conditional_mean_given_subcube for non-monotone models")
        ones = ones if isinstance(ones, np.ndarray) else self.words(ones)
        if zeros is not None:
            zeros = zeros if isinstance(zeros, np.ndarray) else self.words(zeros)
        stride = self.degree + 1
        drop = len(self.weights) - 1
        step = self.batch_rows
        sums = [np.zeros(0, dtype=self.weights.dtype)]
        for lo in range(0, len(ones), step):
            on = ones[lo:lo + step, None]
            bins = _popcount(self.present & ~on) * stride
            if zeros is not None:
                off = zeros[lo:lo + step, None]
                bins += _popcount(self.absent & ~off)
                bins[_meets(self.present, off) | _meets(self.absent, on)] = drop
            rows = len(bins)
            flat = (bins + (drop + 1) * np.arange(rows)[:, None]).ravel()
            counts = np.bincount(flat, minlength=rows * (drop + 1)).reshape(rows, drop + 1)
            sums.append(counts @ self.weights)
        return np.concatenate(sums)


def _words(masks, n_words):
    if n_words == 1:
        return np.array(masks, dtype=np.uint64).reshape(-1, 1)
    # little-endian bytes of each mask, lowest word first; read-only rows
    size = n_words * _WORD_BITS // 8
    return np.frombuffer(b"".join(m.to_bytes(size, "little") for m in masks),
                         dtype="<u8").reshape(-1, n_words)


def _popcount(words):
    return np.bitwise_count(words).sum(axis=-1, dtype=np.intp)


def _meets(left, right):
    return (left & right).any(axis=-1)


@lru_cache(maxsize=64)
def compile_model(model):
    """The cached ``CompiledModel`` of a model, built on first use."""
    n = ground_size(model)
    n_words = max(1, -(-n // _WORD_BITS))
    if is_monotone(model):
        masks = monomial_masks(model)
        present = _words(masks, n_words)
        # one zero row, which broadcasts against every monomial
        absent = np.zeros((1, n_words), dtype=np.uint64)
        degree = max((m.bit_count() for m in masks), default=0)
        count = len(masks)
    else:
        pairs = placement_masks(model)
        present = _words([pm for pm, _ in pairs], n_words)
        absent = _words([am for _, am in pairs], n_words)
        degree = max((pm.bit_count() + am.bit_count() for pm, am in pairs), default=0)
        count = len(pairs)
    p = Fraction(model.p)
    a, b = p.numerator, p.denominator
    stride = degree + 1
    weights = [0] * (stride * stride + 1)
    for i in range(stride):
        for j in range(stride - i):
            weights[i * stride + j] = a ** i * (b - a) ** j * b ** (degree - i - j)
    fits = count * b ** degree < _INT64_LIMIT
    return CompiledModel(present=present, absent=absent,
                         monotone=is_monotone(model), degree=degree, p=p, n_coords=n,
                         weights=np.array(weights, dtype=np.int64 if fits else object))


def _masks_by_size(n_coords, size):
    """Same-popcount masks in increasing numeric order (Gosper's hack)."""
    if size == 0:
        yield 0
        return
    mask = (1 << size) - 1
    limit = 1 << n_coords
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((mask ^ ripple) >> (low.bit_length() + 1))


# ---------------------------------------------------------------------------
# Translating model-level objects (graphs, integer sets) to coordinate masks
# ---------------------------------------------------------------------------

def graph_to_mask(model, subgraph):
    index, _ = edge_index_map(model.n)
    mask = 0
    for e in subgraph.edges:
        mask |= 1 << index[e]
    return mask


def mask_to_graph(model, mask):
    _, pairs = edge_index_map(model.n)
    edges = frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
    return Graph(model.n, edges)


def subset_to_mask(model, subset):
    return subset.mask


def mask_to_subset(model, mask):
    return IntegerSet(mask)


def conditioning_to_mask(model, conditioning):
    if isinstance(model, (SubgraphModel, InducedSubgraphModel)):
        if not isinstance(conditioning, Graph):
            raise TypeError("graph models condition on Graph objects")
        return graph_to_mask(model, conditioning)
    if isinstance(model, ApModel):
        if not isinstance(conditioning, IntegerSet):
            raise TypeError("AP models condition on IntegerSet objects")
        if conditioning.mask >> model.N:
            raise ValueError(f"AP models condition on elements of 1..{model.N}")
        return subset_to_mask(model, conditioning)
    raise TypeError(f"unsupported model {type(model).__name__}")


def mask_to_conditioning(model, mask):
    if isinstance(model, (SubgraphModel, InducedSubgraphModel)):
        return mask_to_graph(model, mask)
    return mask_to_subset(model, mask)
