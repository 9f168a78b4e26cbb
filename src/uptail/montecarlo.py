"""Seeded Monte Carlo estimation of upper-tail probabilities, optional
planting, and greedy certifiers for the near-clique and hub structures.

Sampling uses counter-based Philox streams keyed by (seed, chunk index) over
fixed-size chunks, so the estimate is a pure function of the seed no matter
how the chunks are scheduled.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import _bits
from .models import compile_model, model_mean

CHUNK = 1 << 15
DRAW_ROWS = 1 << 11     # samples drawn per block: n raw words each


@dataclass(frozen=True)
class McConfig:
    model: object
    delta: float
    samples: int
    seed: int
    plant: object = None     # Graph | IntegerSet | None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("need at least one sample")


@dataclass(frozen=True)
class McEstimate:
    p_hat: float
    stderr: float
    hits: int
    samples: int
    seed: int

    def to_json(self):
        return json.dumps({"p_hat": self.p_hat, "stderr": self.stderr,
                           "hits": self.hits, "samples": self.samples,
                           "seed": self.seed}, sort_keys=True)


def _worker_count():
    raw = os.environ.get("UPTAIL_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _chunk_values(model, plant_bits, seed, chunk_index, count):
    # numpy.random adds about 6 MB to a process: loaded only when sampling
    from numpy.random import Philox
    n = model.ground_size
    source = Philox(key=[seed & (1 << 64) - 1, chunk_index])
    # Generator.random turns one raw word w into (w >> 11) / 2^53, and that
    # is below float(p) exactly when w is below this limit
    limit = math.ceil(float(model.p) * 2 ** 53) << 11
    # one contiguous byte row per coordinate, filled a block of samples at a time
    rows = np.empty((n, count), dtype=bool)
    for start in range(0, count, DRAW_ROWS):
        block = min(DRAW_ROWS, count - start)
        rows[:, start:start + block] = (source.random_raw(block * n).reshape(block, n) < limit).T
    for i in range(n):
        if plant_bits >> i & 1:
            rows[i] = True
    return compile_model(model).values(rows.view(np.uint8))


def _sampled_values(cfg):
    if not cfg.model.monotone:
        raise TypeError("sampling requires a monotone model")
    compile_model(cfg.model).monomial_rows      # built here, before any worker thread
    plant_bits = 0 if cfg.plant is None else cfg.model.to_mask(cfg.plant)
    chunks = range((cfg.samples + CHUNK - 1) // CHUNK)
    workers = _worker_count()
    # each chunk fills its slice, so no chunk's values outlive its evaluation
    values = np.empty(cfg.samples, dtype=np.int64)

    def run(index):
        start = index * CHUNK
        count = min(CHUNK, cfg.samples - start)
        values[start:start + count] = _chunk_values(cfg.model, plant_bits, cfg.seed,
                                                    index, count)

    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, chunks))
    else:
        for index in chunks:
            run(index)
    return values


def sample_tail(cfg):
    """Frequency of X >= (1+delta) E[X] over seeded i.i.d. samples, optionally
    conditioned on a planted structure being present."""
    mean = model_mean(cfg.model)
    target = (1 + Fraction(cfg.delta)) * mean
    threshold = -((-target.numerator) // target.denominator)   # ceil, exact
    values = _sampled_values(cfg)
    hits = int((values >= threshold).sum())
    p_hat = hits / cfg.samples
    stderr = math.sqrt(p_hat * (1 - p_hat) / cfg.samples)
    return McEstimate(p_hat=p_hat, stderr=stderr, hits=hits,
                      samples=cfg.samples, seed=cfg.seed)


def empirical_mean(cfg):
    """Sample mean of the count (under the plant, if any) with its standard
    error; companion diagnostic for the exact conditional mean."""
    values = _sampled_values(cfg)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(cfg.samples)) if cfg.samples > 1 else math.inf
    return mean, stderr


# ---------------------------------------------------------------------------
# Structure certifiers (sound, not complete)
# ---------------------------------------------------------------------------

def _event_arguments(eps, x, p, r):
    """eps, x and p as exact rationals, once their ranges are checked."""
    eps, x, p = Fraction(eps), Fraction(x), Fraction(p)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    if not 0 < p < 1:
        raise ValueError("p must lie in (0,1)")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if r < 2:
        raise ValueError("r must be at least 2")
    return eps, x, p


def _clique_event(graph, eps, x, p, r):
    """The near-clique event at excess level x > 0, as an exact predicate on
    vertex bitmasks: every member has at least (1-eps) size neighbours
    inside, and size >= (1-eps) n x^(1/r) p^((r-1)/2).  With 1-eps = a/b,
    x = c/d and p = e/f the size test, raised to the 2r-th power, reads
    size^(2r) b^(2r) d^2 f^(r(r-1)) >= (a n)^(2r) c^2 e^(r(r-1))."""
    a, b = (1 - eps).as_integer_ratio()
    size_scale = b ** (2 * r) * x.denominator ** 2 * p.denominator ** (r * (r - 1))
    size_floor = (a * graph.n) ** (2 * r) * x.numerator ** 2 * p.numerator ** (r * (r - 1))

    def holds(inside):
        size = inside.bit_count()
        return size ** (2 * r) * size_scale >= size_floor and all(
            b * (graph.adjacency[v] & inside).bit_count() >= a * size for v in _bits(inside))

    return holds


def _hub_event(graph, eps, x, p, r):
    """The hub event at excess level x > 0, as an exact predicate on vertex
    bitmasks: at least floor((1-eps) size) members have degree at least
    (1-eps) n, and the crossing edges number at least
    (1-eps) n (floor(l) + (l - floor(l))^(1/(r-1))), l = x n p^(r-1) / r.
    With 1-eps = a/b and l = L/M, the cut test reads y >= 0 and
    y^(r-1) M >= (a n)^(r-1) (L mod M) for y = b crossing - a n floor(l)."""
    a, b = (1 - eps).as_integer_ratio()
    full = sum(1 << v for v, d in enumerate(graph.degrees()) if b * d >= a * graph.n)
    level_den = x.denominator * p.denominator ** (r - 1) * r
    whole, rest = divmod(x.numerator * p.numerator ** (r - 1) * graph.n, level_den)
    spent, need = a * graph.n * whole, (a * graph.n) ** (r - 1) * rest

    def holds(inside):
        if (full & inside).bit_count() < a * inside.bit_count() // b:
            return False
        spare = b * sum((graph.adjacency[v] & ~inside).bit_count() for v in _bits(inside)) - spent
        return spare >= 0 and spare ** (r - 1) * level_den >= need

    return holds


def detect_clique_event(graph, eps, x, p, r=3):
    """Greedy near-clique certifier: peel a minimum-degree vertex until the
    survivors satisfy the event for excess level x.  Peeling only shrinks
    the set, so once the degrees hold and the size does not, no later set
    succeeds either.

    A returned vertex set always satisfies the event's inequalities; None
    proves nothing.
    """
    eps, x, p = _event_arguments(eps, x, p, r)
    if x == 0:
        return ()
    holds = _clique_event(graph, eps, x, p, r)
    alive = (1 << graph.n) - 1
    while alive:
        if holds(alive):
            return tuple(_bits(alive))
        alive ^= 1 << min(_bits(alive),
                          key=lambda v: ((graph.adjacency[v] & alive).bit_count(), v))
    return None


def detect_hub_event(graph, eps, x, p, r):
    """Greedy hub certifier: sweep prefixes of the degree ranking and return
    the first that satisfies the event for excess level x."""
    eps, x, p = _event_arguments(eps, x, p, r)
    if x == 0:
        return ()
    holds = _hub_event(graph, eps, x, p, r)
    degs = graph.degrees()
    chosen = 0
    for v in sorted(range(graph.n), key=lambda v: (-degs[v], v)):
        chosen |= 1 << v
        if holds(chosen):
            return tuple(_bits(chosen))
    return None


def verify_clique_event(graph, witness, eps, x, p, r=3):
    """Exact recheck of the near-clique inequalities for a witness set."""
    eps, x, p = _event_arguments(eps, x, p, r)
    if x == 0:
        return witness == ()
    return _clique_event(graph, eps, x, p, r)(sum(1 << v for v in set(witness)))


def verify_hub_event(graph, witness, eps, x, p, r):
    """Exact recheck of the hub inequalities for a witness set."""
    eps, x, p = _event_arguments(eps, x, p, r)
    if x == 0:
        return witness == ()
    return _hub_event(graph, eps, x, p, r)(sum(1 << v for v in set(witness)))
