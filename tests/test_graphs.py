import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from uptail.graphs import (
    Graph,
    Graph6Error,
    SubgraphModel,
    _bits,
    _normalize_edge,
    are_isomorphic,
    automorphism_count,
    complete_graph,
    cycle_graph,
    enumerate_embeddings,
    parse_graph6,
    to_graph6,
)
from uptail.models import model_mean

from conftest import graphs_on, labelled_graphs, path_graph, random_graph
import oracles
from oracles import conditional_expectation_subgraph


class TestGraph6:
    def test_k3(self):
        g = parse_graph6("Bw")
        assert g.n == 3 and g.edges == complete_graph(3).edges

    def test_empty_two_vertices(self):
        g = parse_graph6("A?")
        assert g.n == 2 and g.num_edges == 0

    def test_k4(self):
        assert parse_graph6("C~").edges == complete_graph(4).edges

    def test_roundtrip_named(self):
        for g in [complete_graph(3), complete_graph(4), cycle_graph(5),
                  path_graph(6), Graph(7)]:
            assert parse_graph6(to_graph6(g)) == g

    def test_header_prefix(self):
        assert parse_graph6(">>graph6<<Bw") == complete_graph(3)

    def test_malformed_length(self):
        with pytest.raises(Graph6Error):
            parse_graph6("Bwx")

    def test_nonzero_padding(self):
        # K_3 body with a padding bit forced on: 0b111001 -> chr(63+57)
        with pytest.raises(Graph6Error):
            parse_graph6("B" + chr(63 + 0b111001))

    def test_large_n_marker_rejected(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("~??")
        assert err.value.offset == 0

    @given(st.integers(min_value=0, max_value=2 ** 15 - 1), st.integers(2, 6))
    def test_roundtrip_random(self, mask, n):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        g = Graph(n, edges)
        assert parse_graph6(to_graph6(g)) == g


class TestEmbeddings:
    def test_k3_in_k4(self):
        count = enumerate_embeddings(complete_graph(3), complete_graph(4))
        assert count.total == 24 and count.total // count.automorphisms == 4

    def test_k2_total_is_twice_edges(self, rng):
        for _ in range(20):
            g = random_graph(rng, 7)
            if g.num_edges == 0:
                continue
            assert enumerate_embeddings(complete_graph(2), g).total == 2 * g.num_edges

    def test_c4_in_k4(self):
        count = enumerate_embeddings(cycle_graph(4), complete_graph(4))
        assert count.total == 24 and count.total // count.automorphisms == 3

    def test_pattern_larger_than_host(self):
        assert enumerate_embeddings(complete_graph(5), complete_graph(4)).total == 0

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ValueError):
            enumerate_embeddings(Graph(3, frozenset({(0, 1)})), complete_graph(4))

    def test_automorphism_identity(self, rng):
        patterns = [complete_graph(3), cycle_graph(4), path_graph(4), cycle_graph(5)]
        for _ in range(15):
            host = random_graph(rng, 7)
            for pat in patterns:
                count = enumerate_embeddings(pat, host)
                assert count.automorphisms == automorphism_count(pat)
                assert count.total % count.automorphisms == 0

    def test_edge_sum_identity(self, rng):
        patterns = [complete_graph(3), path_graph(3), cycle_graph(4)]
        for _ in range(15):
            host = random_graph(rng, 8)
            if host.num_edges == 0:
                continue
            for pat in patterns:
                count = enumerate_embeddings(pat, host)
                assert sum(count.per_edge.values()) == \
                    pat.num_edges * (count.total // count.automorphisms)

    def test_copies_and_per_edge_match_the_distinct_images(self, rng):
        patterns = [complete_graph(3), path_graph(3), path_graph(4), cycle_graph(4),
                    Graph(4, frozenset({(0, 1), (2, 3)}))]
        for _ in range(15):
            host = random_graph(rng, 7)
            for pat in patterns:
                images = {frozenset(_normalize_edge(phi[u], phi[v]) for u, v in pat.edges)
                          for phi in oracles._embeddings(pat, host)}
                count = enumerate_embeddings(pat, host)
                assert count.total // count.automorphisms == len(images)
                assert count.per_edge == {e: sum(e in image for image in images)
                                          for e in host.edges}

    @settings(max_examples=300, deadline=None)
    @given(graphs_on(2, 6, no_isolated=True), graphs_on(0, 9))
    def test_counts_equal_the_per_map_oracle(self, pattern, host):
        assert enumerate_embeddings(pattern, host) == oracles.enumerate_embeddings(pattern, host)

    def test_automorphisms_equal_the_oracle_on_every_small_graph(self):
        for n in range(2, 6):
            for g in labelled_graphs(n):
                if g.num_edges and all(g.degrees()):
                    assert automorphism_count(g) == oracles.automorphism_count(g)

    @settings(max_examples=200, deadline=None)
    @given(graphs_on(2, 6, no_isolated=True))
    def test_automorphisms_equal_the_oracle(self, g):
        assert automorphism_count(g) == oracles.automorphism_count(g)

    @settings(max_examples=300, deadline=None)
    @given(graphs_on(0, 6), graphs_on(0, 6), st.permutations(range(6)))
    def test_isomorphism_equals_the_oracle(self, g, h, phi):
        assert are_isomorphic(g, h) == oracles.are_isomorphic(g, h)
        # a relabelling of g is isomorphic to it
        relabel = [x for x in phi if x < g.n]      # a permutation of range(g.n)
        moved = Graph(g.n, frozenset(_normalize_edge(relabel[u], relabel[v]) for u, v in g.edges))
        assert are_isomorphic(g, moved) and oracles.are_isomorphic(g, moved)


def _distances(graph, start):
    """Distance from ``start`` of each vertex it reaches, by a plain
    breadth-first search over the edge set."""
    found, layer = {start: 0}, [start]
    while layer:
        ahead = []
        for v in layer:
            for a, b in graph.edges:
                for u, w in ((a, b), (b, a)):
                    if u == v and w not in found:
                        found[w] = found[v] + 1
                        ahead.append(w)
        layer = ahead
    return found


class TestStructure:
    def test_edges_are_normalised_and_checked(self):
        assert Graph(3, frozenset({(2, 1), (0, 2)})).edges == {(1, 2), (0, 2)}
        with pytest.raises(ValueError, match="loop at vertex 1"):
            Graph(3, frozenset({(0, 1), (1, 1)}))
        with pytest.raises(ValueError, match=r"edge \(0,3\) outside vertex range"):
            Graph(3, frozenset({(3, 0)}))

    def test_adjacency_is_built_once_and_matches_the_edges(self, rng):
        for _ in range(30):
            g = random_graph(rng, 8)
            assert g.adjacency is g.adjacency
            for v in range(g.n):
                neighbours = [u for u in range(g.n) if u != v and g.has_edge(u, v)]
                assert _bits(g.adjacency[v]) == neighbours and g.degree(v) == len(neighbours)
            assert g.degrees() == [g.degree(v) for v in range(g.n)]
            assert g.support() == [v for v in range(g.n) if g.degree(v)]

    def test_components_and_layers(self, rng):
        for _ in range(60):
            g = random_graph(rng, 8)
            if rng.random() < 0.5:
                g = Graph(g.n, frozenset(e for e in g.edges if rng.random() < 0.4))
            comps = g.components()
            starts = [(mask & -mask).bit_length() - 1 for mask, _ in comps]
            assert starts == sorted(starts)
            for start, (mask, odd) in zip(starts, comps):
                dist = _distances(g, start)
                assert mask == sum(1 << v for v in dist)
                assert odd == sum(1 << v for v, d in dist.items() if d % 2)
            assert sum(mask for mask, _ in comps) == (1 << g.n) - 1
            assert g.is_connected() == (len(comps) <= 1)

    def test_bipartition_matches_brute_force(self, rng):
        for _ in range(60):
            g = random_graph(rng, 7)
            if rng.random() < 0.5:
                g = Graph(g.n, frozenset(e for e in g.edges if rng.random() < 0.4))
            colourable = any(all(c[u] != c[v] for u, v in g.edges)
                             for c in product((0, 1), repeat=g.n))
            parts = g.bipartition()
            assert (parts is not None) == colourable
            if parts is not None:
                side_a, side_b = parts
                assert sorted(side_a + side_b) == list(range(g.n))
                assert all((u in side_a) != (v in side_a) for u, v in g.edges)
                assert all(min(_distances(g, v)) in side_a for v in range(g.n))


class TestConditionalExpectation:
    def setup_method(self):
        self.model = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))

    def test_empty_conditioning(self):
        assert conditional_expectation_subgraph(self.model, Graph(4)) == Fraction(1, 2)

    def test_single_edge(self):
        g0 = Graph(4, frozenset({(0, 1)}))
        assert conditional_expectation_subgraph(self.model, g0) == Fraction(3, 4)

    def test_full_host(self):
        assert conditional_expectation_subgraph(self.model, complete_graph(4)) == 4

    def test_mean(self):
        assert model_mean(self.model) == Fraction(1, 2)

    @given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63))
    @settings(max_examples=60, deadline=None)
    def test_monotonicity(self, mask_small, mask_extra):
        pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        small = frozenset(pairs[i] for i in range(6) if mask_small >> i & 1)
        big = small | frozenset(pairs[i] for i in range(6) if mask_extra >> i & 1)
        lo = conditional_expectation_subgraph(self.model, Graph(4, small))
        hi = conditional_expectation_subgraph(self.model, Graph(4, big))
        assert lo <= hi

    def test_exact_gain_identity(self, rng):
        for _ in range(25):
            host_n = rng.randint(4, 6)
            p = Fraction(rng.randint(1, 4), 5)
            model = SubgraphModel(complete_graph(3), host_n, p)
            g0 = random_graph(rng, host_n, min_n=host_n)
            g0 = Graph(host_n, g0.edges)
            for edge in list(g0.edges)[:3]:
                drop = conditional_expectation_subgraph(model, g0) - \
                    conditional_expectation_subgraph(model, Graph(host_n, g0.edges - {edge}))
                expected = Fraction(0)
                for copy in _triangles_through(host_n, edge):
                    expected += p ** len(copy - g0.edges)
                assert drop == (1 - p) * expected


def _triangles_through(n, edge):
    u, v = edge
    return [frozenset({tuple(sorted((u, v))), tuple(sorted((u, w))), tuple(sorted((v, w)))})
            for w in range(n) if w not in (u, v)]


@pytest.fixture
def rng():
    return random.Random(0xBADA55)
