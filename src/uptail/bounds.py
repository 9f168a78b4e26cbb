"""Fractional independence via the bipartite double cover, embedding-count
upper bounds, the star/clique stability extractors, and the Q-family of
subgraphs of a regular pattern.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from .graphs import (
    Graph,
    _normalize_edge,
    are_isomorphic,
    complete_graph,
    cycle_graph,
    enumerate_embeddings,
    star_graph,
)
from .variational import BudgetExceededError, _int_root


class PreconditionError(ValueError):
    """A bound was requested on an instance that violates its hypothesis."""


# ---------------------------------------------------------------------------
# Fractional independence number, constructively via the double cover
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FracIndepResult:
    alpha_star: Fraction
    assignment: dict       # vertex -> Fraction in {0, 1/2, 1}
    partition: tuple       # (V1, V2) as sorted tuples
    cover: tuple           # vertex-disjoint edges/cycles (tuples of vertices) covering V1


def _max_bipartite_matching(left_adj, n_right):
    """Kuhn's augmenting-path matching; deterministic for a fixed input order."""
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


def _koenig_independent_set(left_adj, match_left, match_right):
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


def fractional_independence(graph):
    """Largest fractional independent set weight, with the half-integral
    certificate and an edge/cycle cover of the half-weight part."""
    n = graph.n
    left_adj = {("L", v): [] for v in range(n)}
    for u, v in sorted(graph.edges):
        left_adj[("L", u)].append(("R", v))
        left_adj[("L", v)].append(("R", u))
    for key in left_adj:
        left_adj[key].sort()
    match_left, match_right = _max_bipartite_matching(left_adj, n)
    in_left, in_right = _koenig_independent_set(left_adj, match_left, match_right)
    independent = {("L", v) for v in range(n) if ("L", v) in in_left}
    independent |= {("R", v) for v in range(n) if ("R", v) not in in_right}

    assignment = {}
    for v in range(n):
        hits = (("L", v) in independent) + (("R", v) in independent)
        assignment[v] = Fraction(hits, 2)
    alpha_star = sum(assignment.values(), Fraction(0))

    # shadow of the matching: max degree 2, components are paths and cycles,
    # walked from the path ends first, so a degree-2 start lies on a cycle
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


def alpha_star_bruteforce(graph):
    """Oracle: maximise the weight over all assignments in {0, 1/2, 1}^V.

    Weights are integer half-units {0, 1, 2}: the feasible partial
    assignments grow one vertex at a time, each level kept where it fits
    under the vertex's edges back to earlier vertices."""
    earlier = [[] for _ in range(graph.n)]
    for u, w in graph.edges:
        earlier[w].append(u)      # normalized edges have u < w
    states = np.zeros((1, graph.n), dtype=np.int8)
    for v in range(graph.n):
        room = 2 - states[:, earlier[v]].max(axis=1, initial=0)
        rows, levels = np.nonzero(np.arange(3) <= room[:, None])
        states = states[rows]
        states[:, v] = levels
    return Fraction(int(states.sum(axis=1).max()), 2)


# ---------------------------------------------------------------------------
# Embedding-count upper bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    kind: str
    bound: object          # Fraction when exact, float otherwise
    actual: int
    holds: bool
    exact: bool

    def to_json(self):
        import json
        if self.exact:
            frac = Fraction(self.bound)
            bound = f"{frac.numerator}/{frac.denominator}"
        else:
            bound = float(self.bound)
        return json.dumps({"kind": self.kind, "bound": bound, "actual": self.actual,
                           "holds": self.holds, "exact": self.exact}, sort_keys=True)


def _finish(kind, terms, actual):
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
    return BoundReport(kind=kind, bound=bound, actual=actual, holds=actual ** lcm <= power,
                       exact=exact)


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
        return _finish(kind, [(two_e, Fraction(pattern.n, 2))], actual)

    if kind == "jor":
        if pattern.num_edges == 0 or any(d == 0 for d in pattern.degrees()):
            raise PreconditionError("bound needs a nonempty pattern without isolated vertices")
        alpha = fractional_independence(pattern).alpha_star
        actual = enumerate_embeddings(pattern, host).total
        return _finish(kind, [(two_e, pattern.n - alpha),
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
        return _finish(kind, [(4 * pattern.num_edges, 1),
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
        return _finish(kind, [(pattern.num_edges * (host.degree(u) + host.degree(v)), 1),
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
        return _finish(kind, [(pattern.num_edges, 1), (two_e, Fraction(pattern.n, 2)),
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
        return _finish(kind, [(math.floor(q) + (q - math.floor(q)) ** s, 1),
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
# Subgraphs of a regular pattern that can carry extremal edge counts
# ---------------------------------------------------------------------------

def _has_full_degree_side(subgraph, delta):
    """True iff every component has a colour class all of whose degrees are delta."""
    if subgraph.bipartition() is None:
        return False
    full = sum(1 << v for v, d in enumerate(subgraph.degrees()) if d == delta)
    return all(not (component & ~odd & ~full) or (odd and not odd & ~full)
               for component, odd in subgraph.components())


def q_family(pattern):
    """The subgraphs (up to isomorphism) of a connected regular pattern that
    are either the whole pattern or bipartite with a full-degree side."""
    if not pattern.is_connected():
        raise PreconditionError("pattern must be connected")
    if not _is_regular(pattern):
        raise PreconditionError("pattern must be regular and nonempty")
    delta = pattern.degree(0)
    found = []
    edges = sorted(pattern.edges)
    for size in range(1, len(edges) + 1):
        for chosen in combinations(edges, size):
            sub_full = Graph(pattern.n, frozenset(chosen))
            sub = sub_full.induced(sub_full.support())
            if size == len(edges):
                member = True      # the whole pattern
            else:
                member = _has_full_degree_side(sub, delta)
            if member and not any(are_isomorphic(sub, g) for g in found):
                found.append(sub)
    return found


# ---------------------------------------------------------------------------
# Constructive stability: dense-subgraph extraction from near-extremal counts
# ---------------------------------------------------------------------------

def clique_count_deficiency(graph, r):
    """eps with |Emb(K_r, G)| = (1-eps)(2e_G)^{r/2}, clamped to >= e_G^{-1/2}."""
    e_g = graph.num_edges
    if e_g == 0:
        return 1.0
    emb = enumerate_embeddings(complete_graph(r), graph).total
    eps = 1 - emb / float(2 * e_g) ** (r / 2)
    return max(eps, e_g ** -0.5)


def _k4_link_matrix(graph):
    """Adjacency matrix of the auxiliary graph on E(G): two edges are linked
    iff their four endpoints are distinct and induce a complete graph."""
    edges = sorted(graph.edges)
    m = len(edges)
    heads = np.array([e[0] for e in edges])
    tails = np.array([e[1] for e in edges])
    adj = np.zeros((graph.n, graph.n), dtype=bool)
    for a, b in edges:
        adj[a, b] = adj[b, a] = True
    hh = heads[:, None]
    ht = tails[:, None]
    disjoint = (hh != heads[None, :]) & (hh != tails[None, :]) & \
        (ht != heads[None, :]) & (ht != tails[None, :])
    linked = disjoint & adj[hh, heads[None, :]] & adj[hh, tails[None, :]] & \
        adj[ht, heads[None, :]] & adj[ht, tails[None, :]]
    return edges, linked


def extract_dense_subgraph(graph, r, peel_threshold=None):
    """Peel the K4-link graph to expose a near-clique when the K_r embedding
    count is close to its (2e_G)^{r/2} ceiling.

    Returns the induced subgraph on surviving edge endpoints (vertex labels
    preserved), or None when the minimum-degree guarantee is vacuous and no
    explicit ``peel_threshold`` was supplied.
    """
    if r < 3:
        raise ValueError("r must be at least 3")
    e_g = graph.num_edges
    if e_g == 0:
        return None
    eps = clique_count_deficiency(graph, r)
    guarantee = (1 - 4 * math.sqrt(eps)) * math.sqrt(2 * e_g)
    if peel_threshold is None:
        if guarantee <= 0:
            return None
        eps_path = 3 * eps if r % 2 else eps
        peel_threshold = (1 - 2 * math.sqrt(eps_path)) * e_g
    edges, linked = _k4_link_matrix(graph)
    alive_mask = np.ones(len(edges), dtype=bool)
    while True:
        degrees = (linked & alive_mask[None, :]).sum(axis=1)
        doomed = alive_mask & (degrees < peel_threshold)
        if not doomed.any():
            break
        alive_mask &= ~doomed
    alive = [edges[i] for i in range(len(edges)) if alive_mask[i]]
    if not alive:
        return None
    keep = {v for e in alive for v in e}
    kept_edges = frozenset(e for e in graph.edges if e[0] in keep and e[1] in keep)
    return Graph(graph.n, kept_edges)


def min_degree_guarantee(graph, r):
    """The (1 - 4 sqrt(eps)) sqrt(2 e_G) floor promised by the extractor."""
    eps = clique_count_deficiency(graph, r)
    return (1 - 4 * math.sqrt(eps)) * math.sqrt(2 * graph.num_edges)


# ---------------------------------------------------------------------------
# High-degree / low-degree split with exact accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitReport:
    clique_drop: int           # Emb(K_r, G) - Emb(K_r, G[V])
    clique_drop_bound: int     # r |U| Emb(K_{r-1}, G)
    star_total: int            # Emb(K_{1,r-1}, G)
    star_bipartite: int        # centre in U, leaves in V, edges crossing
    t1: int                    # centre in U, some leaf in U
    t2: int                    # centre in V
    u_size_bound: float        # 2 e_G / theta


def split_high_degree(graph, theta, r):
    """Partition by the degree cutoff and report the exact loss accounting."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    degs = graph.degrees()
    side_u = tuple(sorted(v for v in range(graph.n) if degs[v] >= theta))
    side_v = tuple(sorted(v for v in range(graph.n) if degs[v] < theta))
    high = sum(1 << v for v in side_u)

    low = graph.induced(side_v) if side_v else Graph(0)
    if low.num_edges > 0 and r <= low.n:
        emb_low = enumerate_embeddings(complete_graph(r), low).total
    else:
        emb_low = 0
    emb_full = enumerate_embeddings(complete_graph(r), graph).total if graph.num_edges else 0
    emb_minus = enumerate_embeddings(complete_graph(r - 1), graph).total \
        if graph.num_edges and r - 1 >= 2 else 0

    s = r - 1
    star_total = star_embeddings_from(graph, range(graph.n), s)
    star_bip = t1 = t2 = 0
    for v in range(graph.n):
        d = degs[v]
        d_low = (graph.adjacency[v] & ~high).bit_count()
        if high >> v & 1:
            star_bip += math.perm(d_low, s)
            t1 += math.perm(d, s) - math.perm(d_low, s)
        else:
            t2 += math.perm(d, s)

    report = SplitReport(
        clique_drop=emb_full - emb_low,
        clique_drop_bound=r * len(side_u) * emb_minus,
        star_total=star_total,
        star_bipartite=star_bip,
        t1=t1,
        t2=t2,
        u_size_bound=2 * graph.num_edges / theta,
    )
    return side_u, side_v, report


# ---------------------------------------------------------------------------
# Star-count witness extraction
# ---------------------------------------------------------------------------

def star_witness(graph, q, s, eps, parts=None):
    """Top-degree witness for a near-extremal star count.

    Returns (W, W') or None.  W is the ceil(q) largest-degree vertices of U;
    the success conditions are the crossing-edge mass and the count of
    near-full-degree members.  The e_G <= q|V| hypothesis of the star-count
    bound is not enforced here; it belongs to the bound, not the extractor.
    """
    q, eps = Fraction(q), Fraction(eps)
    if s < 2:
        raise PreconditionError("s must be at least 2")
    side_u, side_v = _identify_parts(graph, parts)
    if not 0 < q <= len(side_u):
        raise PreconditionError("q must lie in (0, |U|]")
    size_w = math.ceil(q)
    ranked = sorted(side_u, key=lambda v: (-graph.degree(v), v))
    witness = tuple(sorted(ranked[:size_w]))
    crossing = sum(graph.degree(w) for w in witness)
    if crossing < (1 - eps) * q * len(side_v):
        return None
    full = tuple(sorted(w for w in witness if graph.degree(w) >= (1 - eps) * len(side_v)))
    if len(full) < math.floor((1 - eps) * len(witness)):
        return None
    return witness, full


# ---------------------------------------------------------------------------
# Seeded batteries: alpha* against brute force, and every embedding bound
# ---------------------------------------------------------------------------

ALPHA_MAX_GRAPHS = 1 << 15    # labelled graphs ``check_alpha`` enumerates at most


def check_alpha(max_n, random_graphs, seed):
    """alpha* from the double cover against brute force on every labelled
    graph on ``max_n`` vertices, then on seeded random graphs on at most 7."""
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
    for graph in graphs:
        checked += 1
        mismatches += fractional_independence(graph).alpha_star != alpha_star_bruteforce(graph)
    return {"checked": checked, "mismatches": mismatches}


def _random_graph(rng, max_n, min_n=2):
    n = rng.randint(min_n, max_n)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.uniform(0.2, 0.9)}
    return Graph(n, frozenset(edges))


def run_bound_battery(pairs, seed):
    """Seeded random instances for all six embedding bounds; returns a
    summary with per-kind counts and the number of violations."""
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
                if pattern.num_edges == 0 or any(d == 0 for d in pattern.degrees()):
                    continue
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
