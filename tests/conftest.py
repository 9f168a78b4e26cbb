import random

import pytest
from hypothesis import assume, strategies as st

from uptail.aps import IntegerSet
from uptail.graphs import Graph


def random_graph(rng, max_n, min_n=2, p=None):
    n = rng.randint(min_n, max_n)
    density = p if p is not None else rng.uniform(0.2, 0.9)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < density}
    return Graph(n, frozenset(edges))


def labelled_graphs(n):
    """Every labelled graph on n vertices, by its edge mask over the pairs
    in increasing order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [Graph(n, frozenset(e for i, e in enumerate(pairs) if mask >> i & 1))
            for mask in range(1 << len(pairs))]


@st.composite
def graphs_on(draw, min_n, max_n, no_isolated=False):
    """A labelled graph on min_n..max_n vertices; with ``no_isolated`` a
    nonempty one in which every vertex has an edge."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph(n, frozenset(e for i, e in enumerate(pairs) if mask >> i & 1))
    if no_isolated:
        assume(g.num_edges and all(g.degrees()))
    return g


def path_graph(n):
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def complete_bipartite(a, b):
    return Graph(a + b, frozenset((i, a + j) for i in range(a) for j in range(b)))


def full_set(n):
    return IntegerSet((1 << n) - 1)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
