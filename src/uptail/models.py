"""The exact mean and conditional means of every count model.

A model is a polynomial on the p-biased hypercube: a sum of monomials over
Bernoulli coordinates.  The models themselves live in ``graphs``
(``SubgraphModel`` and ``InducedSubgraphModel``) and ``aps`` (``ApModel``),
and share one protocol: ``ground_size``, ``degree``, ``monotone``,
``monomials`` (the table's length, in closed form), ``table()`` (present
coordinate-index rows, plus absent rows for induced models), the mask
codec ``to_mask`` / ``from_mask`` / ``mask_items`` and ``witness_kind``.
Here that table is the compiled model's one stored form, read by the two
kernels every solver, census, check and sampler calls without knowing the
model's kind: exact conditional means in scaled integers (on words packed
from it at first use), and X over a batch of outcomes (on the index rows
themselves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np


def row_masks(rows):
    """The Python-int coordinate mask of each index row, in order, for the
    callers that do bit arithmetic on small tables."""
    return tuple(sum(1 << i for i in row) for row in rows.tolist())


def model_mean(model):
    """E[X], exact: with nothing forced every monomial misses all of its
    present and absent coordinates, so all of them fall in one weight bin."""
    compiled = compile_model(model)
    nothing = (compiled.present_width + 1) * compiled.degree  # bin i = width, j = D - width
    return Fraction(len(compiled.rows) * int(compiled.weights[nothing]), compiled.scale)


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
# Also the most masks of one cached subset-scan level (``_mask_level``).
KERNEL_CELLS = 1 << 13
_WORD_BITS = 64
_INT64_LIMIT = 1 << 63


@dataclass(frozen=True, eq=False)
class CompiledModel:
    """A model as one (monomials, D) int32 table plus integer weights.

    Row m holds monomial m's ``present_width`` present coordinates i, then
    its absent coordinates j as n + j; every monomial has the same widths.
    With p = a/b and degree D, a monomial missing i present- and j absent-
    coordinates contributes p^i (1-p)^j, that is a^i (b-a)^j b^(D-i-j) / b^D.
    ``scaled_means`` returns b^D E[X | ones, zeros] as exact integers: in
    int64 while #monomials * b^D stays below 2^63, the largest sum possible,
    and in Python ints (object arrays) beyond.
    """

    rows: np.ndarray        # (monomials, degree) int32
    present_width: int
    monotone: bool
    degree: int
    p: Fraction
    n_coords: int
    weights: np.ndarray     # by bin i*(D+1)+j; a last bin of weight 0 drops a monomial

    @property
    def scale(self):
        return self.p.denominator ** self.degree

    @property
    def n_words(self):
        return max(1, -(-self.n_coords // _WORD_BITS))

    @property
    def batch_rows(self):
        """Mask rows per kernel step."""
        return max(1, KERNEL_CELLS // max(1, len(self.rows)))

    @cached_property
    def present(self):
        """(monomials, words) uint64 masks of the present coordinates,
        packed on the kernel's first call."""
        return _pack(self.rows[:, :self.present_width], self.n_words)

    @cached_property
    def absent(self):
        """The same for the absent coordinates; one zero row, which
        broadcasts against every monomial, for a monotone model."""
        if self.monotone:
            return np.zeros((1, self.n_words), dtype=np.uint64)
        return _pack(self.rows[:, self.present_width:] - self.n_coords, self.n_words)

    def scaled_bound(self, value):
        """The least integer S with S >= b^D * value: a scaled sum reaches
        ``value`` exactly when it reaches this bound."""
        return math.ceil(Fraction(value) * self.scale)

    def words(self, masks):
        """Python-int masks as (rows, words) uint64 rows."""
        return _words(masks, self.n_words)

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
            sums.append(self.weights[bins].sum(axis=1))
        return np.concatenate(sums)

    def values(self, rows):
        """X on each outcome, exact (int64).  ``rows`` holds one 0/1 byte row
        per coordinate, (n_coords, outcomes); an absent coordinate j reads
        the complemented row n + j.  A monomial is the AND of its rows,
        summed in a uint8 accumulator flushed before it can overflow."""
        count = rows.shape[1]
        if not self.degree:     # every monomial touches no coordinate
            return np.full(count, len(self.rows), dtype=np.int64)
        if not self.monotone:
            rows = np.concatenate([rows, rows ^ 1])
        values = np.zeros(count, dtype=np.int64)
        total = np.empty(count, dtype=np.uint8)
        term = np.empty(count, dtype=np.uint8)
        for start in range(0, len(self.rows), 255):
            total.fill(0)
            for first, *rest in self.rows[start:start + 255].tolist():
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

    The model's table is built here, and only here, and kept as the
    compiled model's index rows; the kernel packs them into words on its
    first call.  Models that differ only in p each build their own."""
    n = model.ground_size
    present, absent = model.table()
    width = present.shape[1]
    rows = present if absent is None else np.hstack([present, absent + n])
    degree = model.degree
    p = model.p
    a, b = p.numerator, p.denominator
    stride = degree + 1
    weights = [0] * (stride * stride + 1)
    for i in range(stride):
        for j in range(stride - i):
            weights[i * stride + j] = a ** i * (b - a) ** j * b ** (degree - i - j)
    fits = len(rows) * b ** degree < _INT64_LIMIT
    return CompiledModel(rows=rows.astype(np.int32, copy=False), present_width=width,
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


def _subset_blocks(compiled, budget):
    """The subset scan's first ``budget`` masks, by size and then in
    increasing order, as (rows, words) uint64 blocks of ``batch_rows``
    rows (the last may be shorter) that run across sizes."""
    step = compiled.batch_rows
    left = max(budget, 0)
    pending, held = [], 0       # the rows of the block being filled
    for piece in _scan_pieces(compiled):
        piece = piece[:left]
        left -= len(piece)
        while held + len(piece) >= step:
            take = step - held
            yield np.concatenate([*pending, piece[:take]]) if pending else piece[:take]
            pending, held, piece = [], 0, piece[take:]
        if len(piece):
            pending.append(piece)
            held += len(piece)
        if not left:
            break
    if held:
        yield np.concatenate(pending)


def _scan_pieces(compiled):
    """Each size's masks in increasing order, as word rows: a size with at
    most ``KERNEL_CELLS`` masks over at most 64 coordinates whole from
    ``_mask_level``, any other size through Gosper's walk, a kernel step
    at a time."""
    n = compiled.n_coords
    for size in range(n + 1):
        if n <= _WORD_BITS and math.comb(n, size) <= KERNEL_CELLS:
            yield _mask_level(n, size)
            continue
        walk = _masks_by_size(n, size)
        while masks := list(islice(walk, compiled.batch_rows)):
            yield compiled.words(masks)


@lru_cache(maxsize=64)
def _mask_level(n_coords, size):
    """The size-``size`` masks over ``n_coords`` <= 64 coordinates in
    increasing order, as one read-only (masks, 1) uint64 array.  The scan
    caches only levels of at most ``KERNEL_CELLS`` masks, so the cache holds
    at most 64 levels of 64 KB."""
    level = np.fromiter(_masks_by_size(n_coords, size), dtype=np.uint64,
                        count=math.comb(n_coords, size)).reshape(-1, 1)
    level.flags.writeable = False
    return level


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
