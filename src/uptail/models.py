"""The exact mean and conditional means of every count model.

A model is a polynomial on the p-biased hypercube: a sum of monomials over
Bernoulli coordinates.  The models themselves live in ``graphs``
(``SubgraphModel`` and ``InducedSubgraphModel``) and ``aps`` (``ApModel``),
and share one protocol: ``ground_size``, ``degree``, ``monotone``,
``table()`` (present coordinate-index rows, plus absent rows for induced
models), the mask codec ``to_mask`` / ``from_mask`` / ``mask_items``,
``witness_kind`` and ``item_key``.  Here that table is packed into machine words, with the two
kernels every solver, census, check and sampler calls without knowing the
model's kind: exact conditional means in scaled integers, and X over a
batch of outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np


def monomial_masks(model):
    """Coordinate-index rows of the monomials (monotone models only), built
    on each call: the compiled model holds the only resident copy."""
    if not model.monotone:
        raise TypeError("monomial masks exist only for monotone models")
    return model.table()[0]


def placement_masks(model):
    """(present row, absent row) of coordinate indices per placement
    (induced models only), built on each call."""
    if model.monotone:
        raise TypeError("placement masks exist only for induced models")
    return tuple(zip(*model.table()))


def row_masks(rows):
    """The Python-int coordinate mask of each index row, in order, for the
    callers that do bit arithmetic on small tables."""
    return tuple(sum(1 << i for i in row) for row in rows.tolist())


def model_mean(model):
    """E[X], exact: the kernel's conditional mean with nothing forced."""
    compiled = compile_model(model)
    nothing = [0]
    zeros = None if compiled.monotone else nothing
    return Fraction(int(compiled.scaled_means(nothing, zeros)[0]), compiled.scale)


def conditional_mean_given_mask(model, ones_mask):
    """E[X | the coordinates in ``ones_mask`` are 1], exact (monotone models).

    No construction calls it: the clique and hub means are class sums in
    ``variational``.  It stays as the kernel's one-mask reference, read by
    the tests and the benchmark."""
    compiled = compile_model(model)
    return Fraction(int(compiled.scaled_means([ones_mask])[0]), compiled.scale)


def conditional_mean_given_subcube(model, ones_mask, zeros_mask):
    """E[X | fixed coordinates], exact, for monotone and induced models."""
    if ones_mask & zeros_mask:
        raise ValueError("a coordinate cannot be fixed to both 0 and 1")
    compiled = compile_model(model)
    return Fraction(int(compiled.scaled_means([ones_mask], [zeros_mask])[0]), compiled.scale)


# ---------------------------------------------------------------------------
# Compiled form: the batched exact conditional-mean kernel and the evaluator
# ---------------------------------------------------------------------------

# Mask rows times monomials per kernel step: bounds the (rows, monomials)
# temporaries, and so the memory a batch adds, at 2^13 entries (64 KB each).
KERNEL_CELLS = 1 << 13
_WORD_BITS = 64
_INT64_LIMIT = 1 << 63


@dataclass(frozen=True, eq=False)
class CompiledModel:
    """A model as monomial masks in machine words plus integer weights.

    With p = a/b and the model's degree D (the most coordinates one
    monomial touches), a monomial missing i present- and j absent-coordinates
    contributes p^i (1-p)^j, that is a^i (b-a)^j b^(D-i-j) / b^D.
    ``scaled_means`` returns b^D E[X | ones, zeros] as exact integers: in
    int64 while #monomials * b^D stays below 2^63, the largest sum possible,
    and in Python ints (object arrays) beyond.
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
            raise TypeError("forcing coordinates on alone applies to monotone models only")
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

    @cached_property
    def monomial_rows(self):
        """(monomials touching no coordinate, the byte rows each other
        monomial ANDs in ``values``), built on first use: present coordinate
        i reads row i, absent coordinate j the complemented row n + j."""
        n, width = self.n_coords, _WORD_BITS * self.present.shape[1]
        words = self.present if self.monotone else np.hstack([self.present, self.absent])
        bits = np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little")
        bits = np.hstack([bits[:, :n], bits[:, width:width + n]])
        rows = [np.flatnonzero(m).tolist() for m in bits]
        return sum(not r for r in rows), [r for r in rows if r]

    def values(self, rows):
        """X on each outcome, exact (int64).  ``rows`` holds one 0/1 byte row
        per coordinate, (n_coords, outcomes).  A monomial is the AND of its
        rows, summed in a uint8 accumulator flushed before it can overflow."""
        if not self.monotone:
            rows = np.concatenate([rows, rows ^ 1])
        constant, monomials = self.monomial_rows
        count = rows.shape[1]
        values = np.full(count, constant, dtype=np.int64)
        total = np.empty(count, dtype=np.uint8)
        term = np.empty(count, dtype=np.uint8)
        for start in range(0, len(monomials), 255):
            total.fill(0)
            for first, *rest in monomials[start:start + 255]:
                product = rows[first]
                for i in rest:
                    product = np.bitwise_and(product, rows[i], out=term)
                total += product
            values += total
        return values


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
    """The cached ``CompiledModel`` of a model, built on first use.

    The model's table is built here and dropped once packed, so its
    machine words are the only copy held.  Models that differ only in p
    each build their own."""
    n = model.ground_size
    n_words = max(1, -(-n // _WORD_BITS))
    present, absent = model.table()
    degree = model.degree
    p = model.p
    a, b = p.numerator, p.denominator
    stride = degree + 1
    weights = [0] * (stride * stride + 1)
    for i in range(stride):
        for j in range(stride - i):
            weights[i * stride + j] = a ** i * (b - a) ** j * b ** (degree - i - j)
    fits = len(present) * b ** degree < _INT64_LIMIT
    # a monotone model stores one zero row, which broadcasts against every monomial
    absent = np.zeros((1, n_words), dtype=np.uint64) if absent is None else _pack(absent, n_words)
    return CompiledModel(present=_pack(present, n_words), absent=absent,
                         monotone=model.monotone, degree=degree, p=p, n_coords=n,
                         weights=np.array(weights, dtype=np.int64 if fits else object))


def _pack(rows, n_words):
    """Coordinate-index rows as (rows, words) uint64 masks, one OR per column."""
    words = np.zeros(len(rows) * n_words, dtype=np.uint64)
    first = np.arange(len(rows)) * n_words      # each row's first word
    for column in rows.T:
        bits = np.uint64(1) << (column % _WORD_BITS).astype(np.uint64)
        words[first + column // _WORD_BITS] |= bits
    return words.reshape(-1, n_words)


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
