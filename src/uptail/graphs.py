"""Labeled simple graphs, graph6 I/O, embedding enumeration, and the two
graph count models: copies and induced copies of a pattern in G(n, p).

Enumeration is plain backtracking, which is plenty for host graphs of a
dozen vertices or so.  Each model owns its coordinates (the edges of K_n),
its monomial table and its mask codec; its mean and conditional means live
in ``models``, as the exact kernel over that table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations, permutations

import numpy as np


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _bits(mask):
    """The set bits of a nonnegative int, increasing."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _normalize_edge(u, v):
    if u == v:
        raise ValueError(f"loop at vertex {u} not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 0..n-1 with an immutable edge set."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        # edges already in (low, high) order skip the call: parsers build them so
        norm = frozenset((u, v) if u < v else _normalize_edge(u, v) for u, v in self.edges)
        object.__setattr__(self, "edges", norm)
        for u, v in norm:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) outside vertex range [0,{self.n})")

    @property
    def num_edges(self):
        return len(self.edges)

    @cached_property
    def adjacency(self):
        """Neighbourhoods as a tuple of bitmasks (Python ints, so any width
        works), built on first use."""
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    def degree(self, v):
        return self.adjacency[v].bit_count()

    def degrees(self):
        return [mask.bit_count() for mask in self.adjacency]

    def has_edge(self, u, v):
        return _normalize_edge(u, v) in self.edges

    def neighbors(self, v):
        return _bits(self.adjacency[v])

    def support(self):
        """Vertices of nonzero degree."""
        return [v for v, mask in enumerate(self.adjacency) if mask]

    def without_edge(self, u, v):
        return Graph(self.n, self.edges - {_normalize_edge(u, v)})

    def induced(self, verts):
        """Induced subgraph, relabeled to 0..len(verts)-1 in sorted order."""
        verts = sorted(verts)
        index = {v: i for i, v in enumerate(verts)}
        kept = frozenset((index[u], index[v]) for u, v in self.edges
                         if u in index and v in index)
        return Graph(len(verts), kept)

    def components(self):
        """Each connected component as a pair of vertex bitmasks (the
        component, its odd breadth-first layers), by least vertex.  The
        graph is bipartite iff every edge joins an odd layer to an even one."""
        found = []
        unseen = (1 << self.n) - 1
        while unseen:
            layer = unseen & -unseen
            component = odd = 0
            parity = False
            while layer:
                component |= layer
                if parity:
                    odd |= layer
                reached = 0
                for v in _bits(layer):
                    reached |= self.adjacency[v]
                layer = reached & ~component
                parity = not parity
            unseen &= ~component
            found.append((component, odd))
        return found

    def is_connected(self):
        return len(self.components()) <= 1

    def bipartition(self):
        """Two-coloring (A, B) as sorted lists, A holding each component's
        least vertex, or None if not bipartite."""
        odd = sum(layers for _, layers in self.components())    # disjoint masks
        if any((odd >> u & 1) == (odd >> v & 1) for u, v in self.edges):
            return None
        return _bits(((1 << self.n) - 1) & ~odd), _bits(odd)

    def to_json(self):
        adj = {str(v): _bits(mask) for v, mask in enumerate(self.adjacency)}
        return json.dumps({"n": self.n, "adjacency": adj}, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(data["n"], frozenset(_normalize_edge(u, int(v))
                                        for v, nbrs in data["adjacency"].items() for u in nbrs))


def complete_graph(n):
    return Graph(n, frozenset(combinations(range(n), 2)))


def cycle_graph(length):
    if length < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(length, frozenset((i, (i + 1) % length) for i in range(length)))


def path_graph(n):
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def star_graph(leaves):
    return Graph(leaves + 1, frozenset((0, i) for i in range(1, leaves + 1)))


def complete_bipartite(a, b):
    return Graph(a + b, frozenset((i, a + j) for i in range(a) for j in range(b)))


def disjoint_union(g, h):
    shifted = frozenset((u + g.n, v + g.n) for u, v in h.edges)
    return Graph(g.n + h.n, g.edges | shifted)


# ---------------------------------------------------------------------------
# graph6 codec (n <= 62; single size byte '?'+n, column-major upper triangle)
# ---------------------------------------------------------------------------

def parse_graph6(text):
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<"):]
    if not data:
        raise Graph6Error("empty graph6 record", 0)
    raw = data.encode("ascii", errors="replace")
    first = raw[0]
    if first == 126:
        raise Graph6Error("multi-byte vertex counts (n > 62) unsupported", 0)
    if not 63 <= first <= 125:
        raise Graph6Error(f"invalid size byte {first}", 0)
    n = first - 63
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    body = raw[1:]
    if len(body) != expected:
        raise Graph6Error(
            f"expected {expected} body bytes for n={n}, got {len(body)}", 1 + min(len(body), expected))
    bits = []
    for offset, byte in enumerate(body):
        if not 63 <= byte <= 126:
            raise Graph6Error(f"invalid data byte {byte}", 1 + offset)
        value = byte - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    for pad_index in range(nbits, len(bits)):
        if bits[pad_index]:
            raise Graph6Error("nonzero padding bits", 1 + pad_index // 6)
    edges = set()
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.add((i, j))
            k += 1
    return Graph(n, frozenset(edges))


def to_graph6(graph):
    n = graph.n
    if n > 62:
        raise ValueError("graph6 emitter supports n <= 62 only")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if graph.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        value = 0
        for bit in bits[k:k + 6]:
            value = value << 1 | bit
        out.append(chr(63 + value))
    return "".join(out)


# ---------------------------------------------------------------------------
# Embedding and copy enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingCount:
    total: int
    copies: int
    per_edge: dict
    automorphisms: int      # |Aut(pattern)|: the maps per copy


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


def enumerate_embeddings(pattern, host):
    """Exact embedding/copy counts of ``pattern`` inside ``host``.

    ``total`` is the number of injective edge-preserving maps, ``copies`` the
    number of distinct image subgraphs and ``per_edge`` the copy count
    through every edge of the host.  The pattern has no isolated vertex, so
    each copy is the image of exactly |Aut(pattern)| maps.
    """
    total = 0
    maps_through = dict.fromkeys(host.edges, 0)
    for phi in _embeddings(pattern, host):
        total += 1
        for u, v in pattern.edges:
            maps_through[_normalize_edge(phi[u], phi[v])] += 1
    aut = automorphism_count(pattern)
    return EmbeddingCount(total=total, copies=total // aut,
                          per_edge={e: maps // aut for e, maps in maps_through.items()},
                          automorphisms=aut)


def automorphism_count(graph):
    """|Aut| computed by embedding the graph into itself."""
    return sum(1 for _ in _embeddings(graph, graph))


def are_isomorphic(g, h):
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    if g.num_edges == 0:
        return True
    # strip isolated vertices symmetrically, then any embedding is a bijection
    gs, hs = g.induced(g.support()), h.induced(h.support())
    if gs.n != hs.n:
        return False
    return next(_embeddings(gs, hs), None) is not None


# ---------------------------------------------------------------------------
# Count models on the p-biased hypercube of the edges of K_n
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def edge_index_map(n):
    """Fixed bijection between edges of K_n and coordinates 0..C(n,2)-1.

    Cached per n: callers only read the dict and the pair list."""
    pairs = list(combinations(range(n), 2))
    return {e: i for i, e in enumerate(pairs)}, pairs


def _placements(pattern, n):
    """Present and absent coordinate-index rows of the pattern placed on
    every vertex set of its size in K_n, in each of its distinct
    relabellings: its edges present, the set's other pairs absent.  Each row
    is increasing, and the rows are in increasing (present, absent) mask
    order.  Distinct vertex sets give distinct placements, except that a
    one-vertex pattern's placements are all empty; each is kept, one per
    vertex."""
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
    # edge_index_map's order; increasing along each row, as the pairs are
    coords = low * (2 * n - low - 1) // 2 + high - low - 1
    present = np.concatenate([coords[:, list(on)] for on, _ in shapes])
    absent = np.concatenate([coords[:, list(off)] for _, off in shapes])
    if not pairs:
        return present, absent
    # a mask's highest coordinate decides first: the last key is primary
    order = np.lexsort(np.hstack([absent, present]).T)
    return present[order], absent[order]


class _EdgeModel:
    """What the two graph models share: one coordinate per edge of K_n,
    conditioning on a ``Graph`` and witnesses of kind "graph".

    The model protocol, shared with ``aps.ApModel``: ``ground_size``,
    ``degree`` (the most coordinates one monomial touches, from the pattern),
    ``monotone``, ``table()`` (the present coordinates of its monomials as
    an integer array of shape (monomials, width), and the absent ones of a
    non-monotone model, else None), the codec ``to_mask`` /
    ``from_mask`` / ``mask_items``, ``witness_kind`` and ``item_key``.
    """

    witness_kind = "graph"

    @property
    def ground_size(self):
        return self.n * (self.n - 1) // 2

    def to_mask(self, conditioning):
        """The coordinate mask of a conditioning graph."""
        if not isinstance(conditioning, Graph):
            raise TypeError("graph models condition on Graph objects")
        index, _ = edge_index_map(self.n)
        mask = 0
        for e in conditioning.edges:
            if e not in index:
                raise ValueError(f"graph models condition on edges of K_{self.n}, not {e}")
            mask |= 1 << index[e]
        return mask

    def from_mask(self, mask):
        return Graph(self.n, frozenset(map(tuple, self.mask_items(mask))))

    def mask_items(self, mask):
        """The edges of a mask in JSON form, sorted (coordinate order)."""
        _, pairs = edge_index_map(self.n)
        return [list(pairs[i]) for i in range(mask.bit_length()) if mask >> i & 1]

    def item_key(self, single_bit_mask):
        """The edge of a one-coordinate mask."""
        _, pairs = edge_index_map(self.n)
        return pairs[single_bit_mask.bit_length() - 1]


@dataclass(frozen=True)
class SubgraphModel(_EdgeModel):
    """Count copies of ``pattern`` in G(n, p); p is an exact rational."""

    pattern: Graph
    n: int
    p: Fraction

    monotone = True

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 < self.p < 1:
            raise ValueError("p must lie strictly between 0 and 1")
        if self.pattern.num_edges == 0:
            raise ValueError("pattern must be nonempty")
        if any(d == 0 for d in self.pattern.degrees()):
            raise ValueError("pattern must have no isolated vertices")

    @property
    def degree(self):
        return self.pattern.num_edges

    def table(self):
        """One index row per copy, by increasing mask, and no absent rows."""
        return _placements(self.pattern, self.n)[0], None


@dataclass(frozen=True)
class InducedSubgraphModel(_EdgeModel):
    """Count induced copies of ``pattern`` in G(n, p).

    Not monotone: each placement requires its non-edges to be absent.
    """

    pattern: Graph
    n: int
    p: Fraction

    monotone = False

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 < self.p < 1:
            raise ValueError("p must lie strictly between 0 and 1")
        if self.pattern.n < 1:
            raise ValueError("pattern must have at least one vertex")

    @property
    def degree(self):
        return self.pattern.n * (self.pattern.n - 1) // 2

    def table(self):
        """Present and absent index rows per placement, by increasing
        (present, absent) mask pair."""
        return _placements(self.pattern, self.n)
