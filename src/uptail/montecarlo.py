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

def _clique_size_floor(graph, eps, x, p, r):
    """The fewest vertices a near-clique needs for excess level x."""
    return (1 - eps) * x ** (1 / r) * graph.n * float(p) ** ((r - 1) / 2)


def _hub_cut_floor(graph, eps, x, p, r):
    """The fewest crossing edges a hub needs for excess level x."""
    level = x * graph.n * float(p) ** (r - 1) / r
    return (1 - eps) * graph.n * (math.floor(level) + (level - math.floor(level)) ** (1 / (r - 1)))


def detect_clique_event(graph, eps, x, p, r=3):
    """Greedy near-clique certifier: peel minimum-degree vertices until the
    induced minimum degree reaches (1-eps) of the current size; succeed if
    the survivor set is large enough for excess level x.

    A returned vertex set always satisfies the event's inequalities; None
    proves nothing.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return ()
    size_floor = _clique_size_floor(graph, eps, x, p, r)
    alive = set(range(graph.n))
    adj = {v: set(graph.neighbors(v)) for v in range(graph.n)}
    while alive:
        size = len(alive)
        worst = min(alive, key=lambda v: (len(adj[v] & alive), v))
        worst_deg = len(adj[worst] & alive)
        if worst_deg >= (1 - eps) * size:
            if size >= size_floor:
                return tuple(sorted(alive))
            return None
        alive.discard(worst)
    return None


def detect_hub_event(graph, eps, x, p, r):
    """Greedy hub certifier: sweep prefixes of the degree ranking and check
    the full-degree quota and the crossing-edge quota for excess level x."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return ()
    n = graph.n
    cut_floor = _hub_cut_floor(graph, eps, x, p, r)
    degs = graph.degrees()
    ranked = sorted(range(n), key=lambda v: (-degs[v], v))
    chosen = set()
    inside_edges = 0
    degree_sum = 0
    for k, v in enumerate(ranked, start=1):
        inside_edges += sum(1 for u in graph.neighbors(v) if u in chosen)
        chosen.add(v)
        degree_sum += degs[v]
        crossing = degree_sum - 2 * inside_edges
        full_degree = sum(1 for u in chosen if degs[u] >= (1 - eps) * n)
        if full_degree >= math.floor((1 - eps) * k) and crossing >= cut_floor:
            return tuple(sorted(chosen))
    return None


def verify_clique_event(graph, witness, eps, x, p, r=3):
    """Exact recheck of the near-clique inequalities for a witness set."""
    if x == 0:
        return witness == ()
    size = len(witness)
    if size < _clique_size_floor(graph, eps, x, p, r):
        return False
    inside = set(witness)
    return all(sum(1 for u in graph.neighbors(v) if u in inside) >= (1 - eps) * size
               for v in witness)


def verify_hub_event(graph, witness, eps, x, p, r):
    """Exact recheck of the hub inequalities for a witness set."""
    if x == 0:
        return witness == ()
    n = graph.n
    inside = set(witness)
    degs = graph.degrees()
    full_degree = sum(1 for u in witness if degs[u] >= (1 - eps) * n)
    crossing = sum(1 for a, b in graph.edges if (a in inside) != (b in inside))
    return full_degree >= math.floor((1 - eps) * len(witness)) and \
        crossing >= _hub_cut_floor(graph, eps, x, p, r)
