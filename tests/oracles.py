"""Slow exact references for the monomial table and the integer kernels.

These are the Python-loop table builders (one Python-int mask per
monomial), the whole-array int64 builders of the index rows that
``uptail`` used before it filled int32 tables in place, and the
per-monomial ``Fraction`` loops that ``uptail`` used before its
index-array tables, its integer kernel and its counted mean; the walk over
a subgraph model's copies as edge sets, the AP overlap profile over the
progression table, the sequential solver scans built on them, the core
predicate and the per-item gains built on the ``Fraction`` conditional
mean, the count on one outcome, the Monte Carlo chunk drawn as floats and
evaluated with one fancy-index per monomial (and a run's samples-long
array of such chunks, which the sampler no longer keeps), the tuple-sum
factorial moments with one ``Fraction`` per tuple, the embedding
generator that yields every map as a tuple (and the counts, automorphisms
and isomorphism test read from it), the double cover over dicts with
``Fraction`` weights and the half-integral certificate (assignment, V1/V2
partition and edge/cycle cover) that ``uptail`` does not build, and the
per-graph half-unit and ``Fraction`` recursions for the fractional
independence number.  Tests compare the production code against them bit
for bit, so these must not call the kernels, the table builders or
``uptail.models.model_mean``.

The module also holds the float mixture cost of a clique/hub planting at
any point x, which the closed-form minimum of ``min_planting_cost`` is
checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations

import numpy as np

from uptail.aps import ApModel
from uptail.graphs import EmbeddingCount, _bits, _normalize_edge, complete_graph, edge_index_map
from uptail.montecarlo import CHUNK
from uptail.variational import _snap_level


def _placements(pattern, n):
    """Sorted (present, absent) coordinate masks of the pattern placed on
    every vertex set of its size in K_n, in each of its distinct
    relabellings: its edges present, the set's other pairs absent.  Distinct
    vertex sets give distinct placements, except that a one-vertex pattern's
    placements are all (0, 0); each is kept, one per vertex."""
    if pattern.n > n:
        return []
    index, _ = edge_index_map(n)
    pairs = list(combinations(range(pattern.n), 2))
    shapes = set()
    for phi in permutations(range(pattern.n)):
        edges = {_normalize_edge(phi[u], phi[v]) for u, v in pattern.edges}
        shapes.add((tuple(k for k, pair in enumerate(pairs) if pair in edges),
                    tuple(k for k, pair in enumerate(pairs) if pair not in edges)))
    placements = []
    for verts in combinations(range(n), pattern.n):
        bits = [1 << index[pair] for pair in combinations(verts, 2)]
        for present, absent in shapes:
            placements.append((sum(bits[k] for k in present), sum(bits[k] for k in absent)))
    return sorted(placements)


@lru_cache(maxsize=16)
def progression_masks(n, k):
    """Bitmasks of every k-term progression inside {1,...,n}."""
    masks = []
    if k < 2:
        raise ValueError("k must be at least 2")
    for diff in range(1, n):
        span = (k - 1) * diff
        if span >= n:
            break
        for start in range(1, n - span + 1):
            mask = 0
            for j in range(k):
                mask |= 1 << (start + j * diff - 1)
            masks.append(mask)
    return tuple(masks)


def placement_rows(pattern, n):
    """``graphs._placements`` as whole-array int64 steps: every vertex set,
    the coordinates of all its pairs, one block per relabelling, then one
    lexsort of the stacked rows."""
    pairs = list(combinations(range(pattern.n), 2))
    shapes = set()
    for phi in permutations(range(pattern.n)):
        edges = {_normalize_edge(phi[u], phi[v]) for u, v in pattern.edges}
        shapes.add((tuple(k for k, pair in enumerate(pairs) if pair in edges),
                    tuple(k for k, pair in enumerate(pairs) if pair not in edges)))
    sets = math.comb(n, pattern.n)
    verts = np.fromiter(chain.from_iterable(combinations(range(n), pattern.n)),
                        dtype=np.intp, count=sets * pattern.n).reshape(sets, pattern.n)
    low = verts[:, [u for u, _ in pairs]]
    high = verts[:, [v for _, v in pairs]]
    coords = low * (2 * n - low - 1) // 2 + high - low - 1
    present = np.concatenate([coords[:, list(on)] for on, _ in shapes])
    absent = np.concatenate([coords[:, list(off)] for _, off in shapes])
    if not pairs:
        return present, absent
    order = np.lexsort(np.hstack([absent, present]).T)
    return present[order], absent[order]


def progression_rows(n, k):
    """``aps.progression_masks`` as whole-array int64 steps: the start and
    difference of every row repeated out, then one broadcast."""
    if k < 2:
        raise ValueError("k must be at least 2")
    diffs = np.arange(1, (n - 1) // (k - 1) + 1)
    starts = n - (k - 1) * diffs
    d = np.repeat(diffs, starts)
    first = np.arange(len(d)) - np.repeat(np.cumsum(starts) - starts, starts)
    return first[:, None] + d[:, None] * np.arange(k)


@lru_cache(maxsize=16)
def table(model):
    """(present masks, absent masks) of the model's monomials, increasing
    for graph models, by (difference, start) for progressions; the absent
    masks of a monotone model are ``()``."""
    if isinstance(model, ApModel):
        return progression_masks(model.N, model.k), ()
    placements = _placements(model.pattern, model.n)
    present = tuple(pm for pm, _ in placements)
    return present, (() if model.monotone else tuple(am for _, am in placements))


def monomial_masks(model):
    return table(model)[0]


def placement_masks(model):
    return tuple(zip(*table(model)))


def model_mean(model):
    """E[X] as a sum of p^on (1-p)^off, one monomial at a time."""
    p = Fraction(model.p)
    if model.monotone:
        return sum((p ** bin(m).count("1") for m in monomial_masks(model)), Fraction(0))
    q = 1 - p
    return sum((p ** bin(pm).count("1") * q ** bin(am).count("1")
                for pm, am in placement_masks(model)), Fraction(0))


@lru_cache(maxsize=16)
def _copies(pattern, n):
    """Every copy of the pattern in K_n, as a frozenset of edges."""
    return tuple({frozenset(_normalize_edge(phi[u], phi[v]) for u, v in pattern.edges)
                  for phi in _embeddings(pattern, complete_graph(n))})


def conditional_expectation_subgraph(model, conditioned_on):
    """E[X | G0 present] for a subgraph model: the sum over copies of
    p^{#edges missing from G0}."""
    g0_edges = conditioned_on.edges
    p = model.p
    powers = {}
    result = Fraction(0)
    for copy in _copies(model.pattern, model.n):
        missing = len(copy - g0_edges)
        if missing not in powers:
            powers[missing] = p ** missing
        result += powers[missing]
    return result


def conditional_mean_given_mask(model, ones_mask):
    """E[X | the coordinates in ``ones_mask`` are 1], exact (monotone models)."""
    if not model.monotone:
        raise TypeError("use conditional_mean_given_subcube for non-monotone models")
    p = Fraction(model.p)
    powers = {}
    total = Fraction(0)
    for m in monomial_masks(model):
        missing = bin(m & ~ones_mask).count("1")
        if missing not in powers:
            powers[missing] = p ** missing
        total += powers[missing]
    return total


def conditional_mean_given_subcube(model, ones_mask, zeros_mask):
    """E[X | fixed coordinates], exact, for monotone and induced models."""
    if ones_mask & zeros_mask:
        raise ValueError("a coordinate cannot be fixed to both 0 and 1")
    p = Fraction(model.p)
    if model.monotone:
        total = Fraction(0)
        for m in monomial_masks(model):
            if m & zeros_mask:
                continue
            total += p ** bin(m & ~ones_mask).count("1")
        return total
    q = 1 - p
    total = Fraction(0)
    for pmask, amask in placement_masks(model):
        if pmask & zeros_mask or amask & ones_mask:
            continue
        total += p ** bin(pmask & ~ones_mask).count("1") * q ** bin(amask & ~zeros_mask).count("1")
    return total


@dataclass(frozen=True)
class ApProfile:
    by_overlap: tuple          # a_j = #progressions meeting the set in j points
    per_element: dict          # i -> #progressions through i inside set+{i}


def ap_profile(model, subset):
    """Overlap counts a_0..a_k and per-element progression counts, one
    progression mask at a time."""
    masks = progression_masks(model.N, model.k)
    a = [0] * (model.k + 1)
    per_element = {i: 0 for i in range(1, model.N + 1)}
    smask = subset.mask
    for m in masks:
        overlap = bin(m & smask).count("1")
        a[overlap] += 1
        if overlap == model.k:
            rest = m
            while rest:
                low = rest & -rest
                per_element[low.bit_length()] += 1
                rest ^= low
        elif overlap == model.k - 1:
            outside = m & ~smask
            per_element[outside.bit_length()] += 1
    return ApProfile(by_overlap=tuple(a), per_element=per_element)


def masks_by_size(n, size):
    """The masks of ``size`` of ``n`` coordinates in increasing value: the
    solvers' scan order is by popcount, then by value."""
    return sorted(sum(1 << i for i in chosen) for chosen in combinations(range(n), size))


def first_feasible_mask(model, delta):
    """(masks examined, mask, conditional mean) of the subset solver's scan:
    masks by size, then by value; (examined, None, None) if none is feasible."""
    n = model.ground_size
    threshold = (1 + Fraction(delta)) * model_mean(model)
    examined = 0
    for size in range(n + 1):
        for mask in masks_by_size(n, size):
            examined += 1
            mean = conditional_mean_given_mask(model, mask)
            if mean >= threshold:
                return examined, mask, mean
    return examined, None, None


def subcube_scan(model, delta, budget):
    """The subcube solver's sequential scan over at most ``budget`` subcubes:
    a subcube replaces the best when its exact ``Fraction`` cost
    p^-ones (1-p)^-zeros is strictly lower.

    Returns (best, complete): best is (log cost, ones, zeros, mean) or None,
    and complete says whether every subcube was examined within the budget.
    """
    n = model.ground_size
    p = Fraction(model.p)
    cost_one, cost_zero = math.log(1 / float(p)), math.log(1 / (1 - float(p)))
    threshold = (1 + Fraction(delta)) * model_mean(model)
    best, best_cost = None, None
    examined = 0
    for size in range(n + 1):
        for support in masks_by_size(n, size):
            sub = support
            while True:
                ones, zeros = sub, support & ~sub
                if examined == budget:
                    return best, False
                examined += 1
                i, j = bin(ones).count("1"), bin(zeros).count("1")
                cost = 1 / (p ** i * (1 - p) ** j)
                if best is None or cost < best_cost:
                    mean = conditional_mean_given_subcube(model, ones, zeros)
                    if mean >= threshold:
                        best = (i * cost_one + j * cost_zero, ones, zeros, mean)
                        best_cost = cost
                if sub == 0:
                    break
                sub = (sub - 1) & support
    return best, True


def value_on_outcome(model, ones_mask):
    """X evaluated at the outcome whose 1-coordinates are ``ones_mask``."""
    if model.monotone:
        return sum(1 for m in monomial_masks(model) if m & ones_mask == m)
    total = 0
    for pmask, amask in placement_masks(model):
        if pmask & ones_mask == pmask and amask & ones_mask == 0:
            total += 1
    return total


def factorial_moments_tuple_sum(model, t_max):
    """M_0..M_t_max as sums over ordered t-tuples of distinct monomials of
    p^{|union|}, one ``Fraction`` added per tuple."""
    masks = monomial_masks(model)
    p = Fraction(model.p)
    moments = [Fraction(1)]

    def recurse(depth, used_indices, union, limit):
        nonlocal acc
        if depth == limit:
            acc += p ** bin(union).count("1")
            return
        for i in range(len(masks)):
            if i in used_indices:
                continue
            used_indices.add(i)
            recurse(depth + 1, used_indices, union | masks[i], limit)
            used_indices.discard(i)

    for t in range(1, t_max + 1):
        acc = Fraction(0)
        recurse(0, set(), 0, t)
        moments.append(acc)
    return moments


def chunk_values(model, plant_bits, seed, chunk_index, count):
    """The count on every outcome of one Monte Carlo chunk: the sampler's
    Philox draw and planting, then one ``.all(axis=1)`` per monomial over
    the columns read bit by bit from its mask."""
    from numpy.random import Generator, Philox
    n = model.ground_size
    rng = Generator(Philox(key=[seed & (1 << 64) - 1, chunk_index]))
    bits = rng.random((count, n)) < float(model.p)
    for i in range(n):
        if plant_bits >> i & 1:
            bits[:, i] = True
    values = np.zeros(count, dtype=np.int64)
    for mask in monomial_masks(model):
        idx = [i for i in range(mask.bit_length()) if mask >> i & 1]
        values += bits[:, np.array(idx, dtype=np.intp)].all(axis=1)
    return values


def sampled_values(cfg):
    """The count on every sample of a Monte Carlo run in one samples-long
    array, chunk by chunk from ``chunk_values``."""
    plant_bits = 0 if cfg.plant is None else cfg.model.to_mask(cfg.plant)
    return np.concatenate([
        chunk_values(cfg.model, plant_bits, cfg.seed, index,
                     min(CHUNK, cfg.samples - index * CHUNK))
        for index in range(-(-cfg.samples // CHUNK))])


def _embeddings(pattern, host):
    """Yield injective maps V(pattern) -> V(host) preserving edges."""
    if pattern.num_edges == 0:
        raise ValueError("pattern must be nonempty")
    padj = pattern.adjacency
    if not all(padj):
        raise ValueError("pattern must have no isolated vertices")
    vp = pattern.n
    if vp > host.n:
        return
    hadj = host.adjacency
    # order pattern vertices to keep partial maps connected where possible
    order = []
    remaining = set(range(vp))
    while remaining:
        anchored = [v for v in remaining if any(padj[v] >> u & 1 for u in order)]
        pick = max(anchored or remaining, key=lambda v: padj[v].bit_count())
        order.append(pick)
        remaining.discard(pick)
    assignment = [-1] * vp
    used = 0

    def extend(depth):
        nonlocal used
        if depth == vp:
            yield tuple(assignment)
            return
        v = order[depth]
        back = [u for u in order[:depth] if padj[v] >> u & 1]
        if back:
            cand = hadj[assignment[back[0]]]
            for u in back[1:]:
                cand &= hadj[assignment[u]]
        else:
            cand = (1 << host.n) - 1
        cand &= ~used
        for target in _bits(cand):
            assignment[v] = target
            used |= 1 << target
            yield from extend(depth + 1)
            used ^= 1 << target
            assignment[v] = -1

    yield from extend(0)


def automorphism_count(graph):
    """|Aut| as the number of maps yielded from the graph into itself."""
    return sum(1 for _ in _embeddings(graph, graph))


def enumerate_embeddings(pattern, host):
    """Every map yielded one at a time, each crediting its image of every
    pattern edge; per-edge copies by |Aut(pattern)|."""
    total = 0
    maps_through = dict.fromkeys(host.edges, 0)
    for phi in _embeddings(pattern, host):
        total += 1
        for u, v in pattern.edges:
            maps_through[_normalize_edge(phi[u], phi[v])] += 1
    aut = automorphism_count(pattern)
    return EmbeddingCount(total=total,
                          per_edge={e: maps // aut for e, maps in maps_through.items()},
                          automorphisms=aut)


def are_isomorphic(g, h):
    """Equal invariants, then the first map yielded between the graphs
    stripped of isolated vertices."""
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    if g.num_edges == 0:
        return True
    gs, hs = g.induced(g.support()), h.induced(h.support())
    if gs.n != hs.n:
        return False
    return next(_embeddings(gs, hs), None) is not None


def max_bipartite_matching(left_adj, n_right):
    """Kuhn's augmenting-path matching over dict adjacency; deterministic
    for a fixed input order."""
    match_left = {}
    match_right = {}

    def try_augment(u, seen):
        for v in left_adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_right or try_augment(match_right[v], seen):
                match_left[u] = v
                match_right[v] = u
                return True
        return False

    for u in sorted(left_adj):
        try_augment(u, set())
    return match_left, match_right


def koenig_independent_set(left_adj, match_left, match_right):
    """Independent set of size |L|+|R|-|M| from alternating reachability."""
    reachable_left = {u for u in left_adj if u not in match_left}
    reachable_right = set()
    frontier = list(reachable_left)
    while frontier:
        u = frontier.pop()
        for v in left_adj[u]:
            if v not in reachable_right:
                reachable_right.add(v)
                w = match_right.get(v)
                if w is not None and w not in reachable_left:
                    reachable_left.add(w)
                    frontier.append(w)
    return reachable_left, reachable_right


@dataclass(frozen=True)
class FracIndepResult:
    alpha_star: Fraction
    assignment: dict       # vertex -> Fraction in {0, 1/2, 1}
    partition: tuple       # (V1, V2) as sorted tuples
    cover: tuple           # vertex-disjoint edges/cycles (tuples of vertices) covering V1


def fractional_independence(graph):
    """The double cover with vertices ("L", v) and ("R", v) in dicts, and
    the assignment summed in ``Fraction``s; the cover walks the matching's
    shadow from the path ends first."""
    n = graph.n
    left_adj = {("L", v): [] for v in range(n)}
    for u, v in sorted(graph.edges):
        left_adj[("L", u)].append(("R", v))
        left_adj[("L", v)].append(("R", u))
    for key in left_adj:
        left_adj[key].sort()
    match_left, match_right = max_bipartite_matching(left_adj, n)
    in_left, in_right = koenig_independent_set(left_adj, match_left, match_right)
    independent = {("L", v) for v in range(n) if ("L", v) in in_left}
    independent |= {("R", v) for v in range(n) if ("R", v) not in in_right}

    assignment = {}
    for v in range(n):
        hits = (("L", v) in independent) + (("R", v) in independent)
        assignment[v] = Fraction(hits, 2)
    alpha_star = sum(assignment.values(), Fraction(0))

    adj = [0] * n
    for (_, u), (_, v) in match_left.items():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    v2 = [v for v in range(n) if not adj[v]]
    cover = []
    seen = 0
    for start in sorted(range(n), key=lambda v: adj[v].bit_count() == 2):
        if seen >> start & 1 or not adj[start]:
            continue
        walk = [start]
        seen |= 1 << start
        while ahead := adj[walk[-1]] & ~seen:
            step = ahead & -ahead
            walk.append(step.bit_length() - 1)
            seen |= step
        if adj[start].bit_count() == 2:
            cover.append(tuple(walk))
            continue
        if len(walk) % 2 == 1:  # even number of edges: drop the smaller endpoint
            if walk[0] > walk[-1]:
                walk.reverse()
            v2.append(walk.pop(0))
        cover.extend(zip(walk[::2], walk[1::2]))

    v2 = sorted(v2)
    v1 = sorted(set(range(n)) - set(v2))
    return FracIndepResult(alpha_star=alpha_star, assignment=assignment,
                           partition=(tuple(v1), tuple(v2)), cover=tuple(cover))


def alpha_star_half_units(graph):
    """2 alpha* of one graph over every assignment in {0, 1, 2}^V: the
    feasible partial assignments grow one vertex at a time, each level kept
    where it fits under the vertex's edges back to earlier vertices."""
    earlier = [[] for _ in range(graph.n)]
    for u, w in graph.edges:
        earlier[w].append(u)      # normalized edges have u < w
    states = np.zeros((1, graph.n), dtype=np.int8)
    for v in range(graph.n):
        room = 2 - states[:, earlier[v]].max(axis=1, initial=0)
        rows, levels = np.nonzero(np.arange(3) <= room[:, None])
        states = states[rows]
        states[:, v] = levels
    return int(states.sum(axis=1).max())


def alpha_star_bruteforce(graph):
    """Maximise the weight over all assignments in {0, 1/2, 1}^V, recursing
    vertex by vertex with ``Fraction`` weights."""
    best = Fraction(0)
    levels = [Fraction(0), Fraction(1, 2), Fraction(1)]
    edges = list(graph.edges)

    def recurse(v, weights):
        nonlocal best
        if v == graph.n:
            best = max(best, sum(weights, Fraction(0)))
            return
        for level in levels:
            # normalized edges have u < w, so u is already assigned when w == v
            if all(weights[u] + level <= 1 for u, w in edges if w == v):
                recurse(v + 1, weights + [level])

    recurse(0, [])
    return best


@dataclass(frozen=True)
class CoreCheck:
    bias_ok: bool       # conditional mean reaches (1 + delta - eps) E[X]
    size_ok: bool       # |I| <= K phi_plus
    gain_ok: bool       # every single-element gain reaches E[X]/(K phi_plus)

    @property
    def is_core(self):
        return self.bias_ok and self.size_ok and self.gain_ok


def item_gains(model, conditioning):
    """Exact drop of the conditional mean when one forced item is released,
    by item (monotone models)."""
    mask = model.to_mask(conditioning)
    full = conditional_mean_given_mask(model, mask)
    gains = {}
    rest = mask
    while rest:
        low = rest & -rest
        item = model.mask_items(low)[0]       # an element, or an edge as a list
        key = tuple(item) if model.witness_kind == "graph" else item
        gains[key] = full - conditional_mean_given_mask(model, mask & ~low)
        rest ^= low
    return gains


def is_core(params, conditioning):
    """Per-condition breakdown of the core predicate, evaluated exactly."""
    model = params.model
    mask = model.to_mask(conditioning)
    mean = model_mean(model)
    bias_ok = conditional_mean_given_mask(model, mask) >= \
        (1 + Fraction(params.delta) - Fraction(params.eps)) * mean
    size_ok = mask.bit_count() <= params.K * params.phi_plus
    gain_floor = mean / (Fraction(params.K) * Fraction(params.phi_plus))
    gain_ok = all(g >= gain_floor for g in item_gains(model, conditioning).values())
    return CoreCheck(bias_ok=bias_ok, size_ok=size_ok, gain_ok=gain_ok)


def mixture_cost(r, delta, c, x):
    """Normalised edge cost of a clique/hub mixture routing a fraction x of
    the excess through the hub; finite positive c only.

    Evaluated as ``mixture_cost_grid`` at the single point x.
    """
    if r < 3:
        raise ValueError("r must be at least 3")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0 < c < math.inf:
        raise ValueError("c must be finite and positive")
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    return float(mixture_cost_grid(r, delta, c, x))


def mixture_cost_grid(r, delta, c, xs):
    """Vectorised mixture cost over an array of x values.

    The hub term is continuous at integer excess levels t = x delta c / r but
    has infinite right-slope there, so a level within float rounding of a
    positive integer k is snapped to it (``_snap_level``), and x is then read
    as the level point k / (delta c / r) itself: its clique term is
    (r (delta c / r - k) / c)^(2/r) / 2, the mixed cost of
    ``min_planting_cost``.  (Near x = 1 the clique term is steep too, so
    the rounding of x would move it by up to (delta ulp)^(2/r).)
    """
    xs = np.asarray(xs, dtype=np.float64)
    first = (delta ** (2 / r) / 2) * (1 - xs) ** (2 / r)
    if math.isinf(c):
        return first + xs * (delta / r)
    level = delta * c / r
    t = _snap_level(xs * level)
    fl = np.floor(t)
    at_level = (r * np.maximum(_snap_level(level) - fl, 0.0) / c) ** (2 / r) / 2
    first = np.where((t == fl) & (fl > 0), at_level, first)
    return first + (fl + (t - fl) ** (1 / (r - 1))) / c
