import random

import pytest

from uptail.aps import IntegerSet
from uptail.graphs import Graph


def random_graph(rng, max_n, min_n=2, p=None):
    n = rng.randint(min_n, max_n)
    density = p if p is not None else rng.uniform(0.2, 0.9)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < density}
    return Graph(n, frozenset(edges))


def path_graph(n):
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def complete_bipartite(a, b):
    return Graph(a + b, frozenset((i, a + j) for i in range(a) for j in range(b)))


def full_set(n):
    return IntegerSet((1 << n) - 1)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
