"""Fractional independence via the bipartite double cover, the six
embedding-count upper bounds checked against brute force, and the seeded
batteries that run both.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, islice, product

import numpy as np

from .graphs import (
    Graph,
    _bits,
    _normalize_edge,
    complete_graph,
    cycle_graph,
    edge_index_map,
    enumerate_embeddings,
    star_graph,
)
from .variational import BudgetExceededError, _int_root


class PreconditionError(ValueError):
    """A bound was requested on an instance that violates its hypothesis."""


# ---------------------------------------------------------------------------
# Fractional independence number via the double cover
# ---------------------------------------------------------------------------

def _max_matching(adj):
    """Kuhn's augmenting paths on the double cover, whose left copy of each
    vertex is joined to the right copies of its neighbours (``adj``, as
    bitmasks).  Left vertices augment in increasing order and try right
    vertices in increasing order; returns each right vertex's left mate, or
    -1."""
    mate = [-1] * len(adj)
    seen = 0

    def augment(u):
        nonlocal seen
        while ahead := adj[u] & ~seen:
            step = ahead & -ahead
            seen |= step
            v = step.bit_length() - 1
            if mate[v] < 0 or augment(mate[v]):
                mate[v] = u
                return True
        return False

    for u in range(len(adj)):
        seen = 0
        augment(u)
    return mate


def _koenig_reach(adj, mate):
    """The left and right vertices (bitmasks) that alternating paths reach
    from the unmatched left vertices: the left ones and the right ones not
    reached form an independent set of size |L| + |R| - |M| (Koenig)."""
    # the mates are distinct, so their bits sum to their union
    left = frontier = (1 << len(adj)) - 1 - sum(1 << u for u in mate if u >= 0)
    right = 0
    while frontier:
        ahead = 0
        for u in _bits(frontier):
            ahead |= adj[u]
        ahead &= ~right
        right |= ahead
        frontier = sum(1 << mate[v] for v in _bits(ahead) if mate[v] >= 0) & ~left
        left |= frontier
    return left, right


def _half_units(adj):
    """2 alpha* of the graph with adjacency bitmasks ``adj``, from the double
    cover's matching and Koenig reach: a vertex weighs one half-unit for its
    left copy in the independent set (in ``left``) and one for its right copy
    (not in ``right``)."""
    left, right = _koenig_reach(adj, _max_matching(adj))
    return left.bit_count() + len(adj) - right.bit_count()


def fractional_independence(graph):
    """alpha*, the largest fractional independent set weight, exact."""
    return Fraction(_half_units(graph.adjacency), 2)


# Graphs times assignments per brute-force step: bounds the (graphs,
# assignments) temporaries at 2^15 cells (256 KB of int64).
ALPHA_CELLS = 1 << 15


@lru_cache(maxsize=8)
def _heavy_assignments(n):
    """The assignments in {0, 1, 2}^V on n vertices that outweigh all
    halves, heaviest first, then all halves itself: their weights in
    half-units and the masks, over combinations(range(n), 2), of the vertex
    pairs each one overloads (a_u + a_v > 2).  All halves overloads no pair
    and weighs n, so no lighter assignment can win."""
    levels = np.array(list(product(range(3), repeat=n)), dtype=np.int64).reshape(3 ** n, n)
    weight = levels.sum(axis=1)
    overloaded = np.zeros(len(levels), dtype=np.int64)
    for k, (u, w) in enumerate(combinations(range(n), 2)):
        overloaded |= (levels[:, u] + levels[:, w] > 2).astype(np.int64) << k
    heavy = np.flatnonzero(weight > n)
    heavy = heavy[np.argsort(-weight[heavy], kind="stable")]
    return np.append(weight[heavy], n), np.append(overloaded[heavy], 0)


def bruteforce_alpha_halves(n, edge_masks):
    """2 alpha* of each graph on n vertices, given as the mask of its edges
    over combinations(range(n), 2), maximised over every assignment in
    {0, 1/2, 1}^V in one integer pass: edge-mask rows against the columns
    of pairs each assignment overloads; a graph admits an assignment when
    the two masks are disjoint, and its heaviest admitted one wins.  The
    pass runs in chunks of at most ``ALPHA_CELLS`` cells."""
    weight, overloaded = _heavy_assignments(n)
    edge_masks = np.asarray(edge_masks, dtype=np.int64)
    rows = max(1, ALPHA_CELLS // len(weight))
    halves = np.empty(len(edge_masks), dtype=np.int64)
    for start in range(0, len(edge_masks), rows):
        admitted = (edge_masks[start:start + rows, None] & overloaded) == 0
        halves[start:start + rows] = weight[admitted.argmax(axis=1)]
    return halves


# ---------------------------------------------------------------------------
# Embedding-count upper bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    bound: object          # Fraction when exact, float otherwise
    holds: bool


def _finish(terms, actual):
    """The report of ``actual`` against the bound prod base^exponent over
    ``terms`` (rational bases >= 0, rational exponents).  Raised to L, the
    lcm of the exponents' denominators, both sides are rationals and compare
    exactly; the bound is exact when it is rational."""
    terms = [(Fraction(base), Fraction(e)) for base, e in terms]
    lcm = math.lcm(*(e.denominator for _, e in terms))
    power = math.prod((base ** int(e * lcm) for base, e in terms), start=Fraction(1))
    root = Fraction(_int_root(power.numerator, lcm), _int_root(power.denominator, lcm))
    exact = root ** lcm == power
    bound = root if exact else math.prod(float(base) ** float(e) for base, e in terms)
    return BoundReport(bound=bound, holds=actual ** lcm <= power)


def _embeddings_through(pattern, host, edges):
    """Embeddings whose image contains each of ``edges``, summed: each copy
    through an edge is the image of |Aut(pattern)| embeddings."""
    count = enumerate_embeddings(pattern, host)
    return count.automorphisms * sum(count.per_edge[_normalize_edge(*e)] for e in edges)


def star_embeddings_from(host, centres, s):
    """|Emb_U(K_{1,s}, host)| = sum over centres of falling factorial of degree."""
    return sum(math.perm(host.degree(u), s) for u in centres)


def _is_cycle(graph):
    return graph.num_edges == graph.n and graph.n >= 3 and \
        all(d == 2 for d in graph.degrees()) and graph.is_connected()


def _is_regular(graph):
    degs = graph.degrees()
    return len(set(degs)) == 1 and degs[0] > 0


def _bipartite_sides_with_full_degree(graph):
    """(A, B) with every A-vertex of maximum degree and |A| < |B|, or None."""
    parts = graph.bipartition()
    if parts is None:
        return None
    delta = max(graph.degrees())
    for side_a, side_b in (parts, parts[::-1]):
        if not side_a or len(side_a) >= len(side_b):
            continue
        if all(graph.degree(a) == delta for a in side_a):
            return tuple(side_a), tuple(side_b)
    return None


def embedding_bound(kind, pattern, host, extra=None):
    """One of the six embedding-count upper bounds, checked against brute force.

    kinds: cycle, jor, edge_regular, edge_bipartite, bad_edges, stars.
    ``extra`` carries the edge (edge_*), the subgraph (bad_edges), or
    (q, s[, parts]) for stars.
    """
    two_e = 2 * host.num_edges
    if kind == "cycle":
        if pattern is None or not _is_cycle(pattern):
            raise PreconditionError("cycle bound needs the pattern to be a cycle")
        actual = enumerate_embeddings(pattern, host).total
        return _finish([(two_e, Fraction(pattern.n, 2))], actual)

    if kind == "jor":
        if pattern.num_edges == 0 or any(d == 0 for d in pattern.degrees()):
            raise PreconditionError("bound needs a nonempty pattern without isolated vertices")
        alpha = fractional_independence(pattern)
        actual = enumerate_embeddings(pattern, host).total
        return _finish([(two_e, pattern.n - alpha),
                        (min(two_e, host.n), 2 * alpha - pattern.n)], actual)

    if kind == "edge_regular":
        if not _is_regular(pattern):
            raise PreconditionError("edge_regular bound needs a regular pattern")
        if extra is None:
            raise PreconditionError("edge_regular bound needs a host edge")
        u, v = _normalize_edge(*extra)
        if not host.has_edge(u, v):
            raise PreconditionError(f"({u},{v}) is not an edge of the host")
        delta = max(pattern.degrees())
        actual = _embeddings_through(pattern, host, [(u, v)])
        return _finish([(4 * pattern.num_edges, 1),
                        (two_e, Fraction(pattern.n, 2) - Fraction(2 * delta - 1, delta)),
                        (4 * host.degree(u) * host.degree(v), Fraction(delta - 1, delta))],
                       actual)

    if kind == "edge_bipartite":
        if pattern.num_edges == 0 or not pattern.is_connected():
            raise PreconditionError("edge_bipartite bound needs a nonempty connected pattern")
        sides = _bipartite_sides_with_full_degree(pattern)
        if sides is None:
            raise PreconditionError(
                "edge_bipartite bound needs a bipartition with one smaller side of full degree")
        if extra is None:
            raise PreconditionError("edge_bipartite bound needs a host edge")
        u, v = _normalize_edge(*extra)
        if not host.has_edge(u, v):
            raise PreconditionError(f"({u},{v}) is not an edge of the host")
        side_a, side_b = sides
        actual = _embeddings_through(pattern, host, [(u, v)])
        return _finish([(pattern.num_edges * (host.degree(u) + host.degree(v)), 1),
                        (two_e, len(side_a) - 1),
                        (min(host.num_edges, host.n), len(side_b) - len(side_a) - 1)],
                       actual)

    if kind == "bad_edges":
        if not _is_regular(pattern):
            raise PreconditionError("bad_edges bound needs a regular pattern")
        if extra is None or not isinstance(extra, Graph):
            raise PreconditionError("bad_edges bound needs a subgraph of the host")
        if not extra.edges <= host.edges:
            raise PreconditionError("the marked graph must be a subgraph of the host")
        if host.num_edges == 0:
            raise PreconditionError("host must have at least one edge")
        actual = _embeddings_through(pattern, host, extra.edges)
        return _finish([(pattern.num_edges, 1), (two_e, Fraction(pattern.n, 2)),
                        (Fraction(extra.num_edges, host.num_edges),
                         Fraction(1, max(pattern.degrees())))], actual)

    if kind == "stars":
        if extra is None or len(extra) < 2:
            raise PreconditionError("stars bound needs extra=(q, s[, parts])")
        q, s = Fraction(extra[0]), int(extra[1])
        parts = extra[2] if len(extra) > 2 else None
        if s < 2:
            raise PreconditionError("stars bound needs s >= 2")
        side_u, side_v = _identify_parts(host, parts)
        if not 0 < q <= len(side_u):
            raise PreconditionError("stars bound needs 0 < q <= |U|")
        if host.num_edges > q * len(side_v):
            raise PreconditionError("stars bound needs e_G <= q|V|")
        actual = star_embeddings_from(host, side_u, s)
        return _finish([(math.floor(q) + (q - math.floor(q)) ** s, 1),
                        (len(side_v), s)], actual)

    raise PreconditionError(f"unknown bound kind {kind!r}")


def _identify_parts(host, parts):
    """Resolve the (U, V) sides of a bipartite host, validating crossings."""
    if parts is not None:
        side_u, side_v = [tuple(sorted(p)) for p in parts]
        su, sv = set(side_u), set(side_v)
        if su & sv or su | sv != set(range(host.n)):
            raise PreconditionError("parts must partition the vertex set")
        for a, b in host.edges:
            if (a in su) == (b in su):
                raise PreconditionError("part identification failure: an edge does not cross")
        return side_u, side_v
    two_col = host.bipartition()
    if two_col is None:
        raise PreconditionError("part identification failure: host is not bipartite")
    return tuple(two_col[0]), tuple(two_col[1])


# ---------------------------------------------------------------------------
# Seeded batteries: alpha* against brute force, and every embedding bound
# ---------------------------------------------------------------------------

ALPHA_MAX_GRAPHS = 1 << 15    # labelled graphs ``check_alpha`` enumerates at most
ALPHA_MAX_RANDOM = 1 << 20    # random graphs ``check_alpha`` draws at most
BOUNDS_MAX_PAIRS = 1 << 20    # instances ``run_bound_battery`` checks at most


def check_alpha(max_n, random_graphs, seed):
    """alpha* from the double cover against brute force on every labelled
    graph on ``max_n`` vertices, then on seeded random graphs on at most 7.
    The graphs go in blocks of ``ALPHA_MAX_GRAPHS``, one brute-force pass
    per order in a block."""
    if random_graphs > ALPHA_MAX_RANDOM:
        raise BudgetExceededError(
            f"{random_graphs} random graphs exceed the {ALPHA_MAX_RANDOM}-graph cap")
    pairs = list(combinations(range(max_n), 2))
    if 1 << len(pairs) > ALPHA_MAX_GRAPHS:
        raise BudgetExceededError(
            f"{1 << len(pairs)} labelled graphs on {max_n} vertices exceed the "
            f"{ALPHA_MAX_GRAPHS}-graph cap")
    rng = random.Random(seed)
    graphs = chain(
        (Graph(max_n, frozenset(e for i, e in enumerate(pairs) if mask >> i & 1))
         for mask in range(1 << len(pairs))),
        (_random_graph(rng, 7) for _ in range(random_graphs)))
    checked = mismatches = 0
    while True:
        block = defaultdict(lambda: (array("q"), array("b")))   # n -> edge masks, 2 alpha*
        for graph in islice(graphs, ALPHA_MAX_GRAPHS):
            index, _ = edge_index_map(graph.n)
            masks, halves = block[graph.n]
            masks.append(sum(1 << index[e] for e in graph.edges))
            halves.append(_half_units(graph.adjacency))
        if not block:
            return {"checked": checked, "mismatches": mismatches}
        for n, (masks, halves) in block.items():
            checked += len(masks)
            mismatches += int(np.count_nonzero(bruteforce_alpha_halves(n, masks) != halves))


def _random_graph(rng, max_n, min_n=2):
    n = rng.randint(min_n, max_n)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.uniform(0.2, 0.9)}
    return Graph(n, frozenset(edges))


def run_bound_battery(pairs, seed):
    """Seeded random instances for all six embedding bounds; returns a
    summary with per-kind counts and the number of violations."""
    if pairs > BOUNDS_MAX_PAIRS:
        raise BudgetExceededError(f"{pairs} pairs exceed the {BOUNDS_MAX_PAIRS}-pair cap")
    rng = random.Random(seed)
    per_kind = {k: 0 for k in
                ("cycle", "jor", "edge_regular", "edge_bipartite", "bad_edges", "stars")}
    violations = 0
    attempts = 0
    while sum(per_kind.values()) < pairs and attempts < 100 * pairs:
        attempts += 1
        kind = rng.choice(list(per_kind))
        host = _random_graph(rng, 8, min_n=3)
        if host.num_edges == 0:
            continue
        try:
            if kind == "cycle":
                report = embedding_bound(kind, cycle_graph(rng.randint(3, 6)), host)
            elif kind == "jor":
                pattern = _random_graph(rng, 5, min_n=2)
                report = embedding_bound(kind, pattern, host)
            elif kind == "edge_regular":
                pattern = rng.choice([complete_graph(3), complete_graph(4),
                                      cycle_graph(4), cycle_graph(5), complete_graph(2)])
                edge = rng.choice(sorted(host.edges))
                report = embedding_bound(kind, pattern, host, extra=edge)
            elif kind == "edge_bipartite":
                pattern = rng.choice([star_graph(2), star_graph(3), star_graph(4),
                                      _double_star(1, 2), _double_star(2, 3)])
                if _bipartite_sides_with_full_degree(pattern) is None:
                    continue
                edge = rng.choice(sorted(host.edges))
                report = embedding_bound(kind, pattern, host, extra=edge)
            elif kind == "bad_edges":
                pattern = rng.choice([complete_graph(3), complete_graph(4)])
                chosen = [e for e in sorted(host.edges) if rng.random() < 0.5]
                if not chosen:
                    continue
                marked = Graph(host.n, frozenset(chosen))
                report = embedding_bound(kind, pattern, host, extra=marked)
            else:  # stars
                a, b = rng.randint(1, 4), rng.randint(1, 4)
                bip_edges = {(i, a + j) for i in range(a) for j in range(b)
                             if rng.random() < 0.8}
                bip = Graph(a + b, frozenset(bip_edges))
                if bip.num_edges == 0 or b == 0:
                    continue
                s = rng.randint(2, 4)
                q_min = Fraction(bip.num_edges, b)
                q = q_min + rng.randint(0, 2)
                if q > a:
                    continue
                parts = (tuple(range(a)), tuple(range(a, a + b)))
                report = embedding_bound(
                    kind, None, bip, extra=(q, s, parts))
        except PreconditionError:
            continue
        per_kind[kind] += 1
        if not report.holds:
            violations += 1
    return {"pairs": sum(per_kind.values()), "per_kind": per_kind,
            "violations": violations, "seed": seed}


def _double_star(i, j):
    edges = {(0, 1)}
    next_vertex = 2
    for _ in range(i):
        edges.add((0, next_vertex))
        next_vertex += 1
    for _ in range(j):
        edges.add((1, next_vertex))
        next_vertex += 1
    return Graph(next_vertex, frozenset(edges))
