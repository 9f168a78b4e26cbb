import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from uptail import bounds, graphs
from uptail.bounds import (
    PreconditionError,
    _embeddings_through,
    _finish,
    _half_units,
    _koenig_reach,
    _max_matching,
    bruteforce_alpha_halves,
    embedding_bound,
    fractional_independence,
    run_bound_battery,
    star_embeddings_from,
)
from uptail.graphs import (
    Graph,
    _bits,
    are_isomorphic,
    complete_graph,
    cycle_graph,
    edge_index_map,
    enumerate_embeddings,
    star_graph,
)

from conftest import complete_bipartite, graphs_on, labelled_graphs, path_graph, random_graph
import oracles


def _edge_mask(graph):
    index, _ = edge_index_map(graph.n)
    return sum(1 << index[e] for e in graph.edges)


class TestHalfUnitBruteForce:
    """The batched half-unit brute force against the per-graph one, and
    that against the ``Fraction`` recursion."""

    def test_every_graph_on_at_most_five_vertices(self):
        for n in range(6):
            for g in labelled_graphs(n):
                assert oracles.alpha_star_half_units(g) == 2 * oracles.alpha_star_bruteforce(g)

    def test_random_graphs_on_at_most_eight_vertices(self):
        rng = random.Random(808)
        for _ in range(200):
            g = random_graph(rng, 8, min_n=0)
            assert oracles.alpha_star_half_units(g) == 2 * oracles.alpha_star_bruteforce(g)

    @pytest.mark.parametrize("cells", [1, 7, None])
    def test_batched_equals_per_graph(self, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(bounds, "ALPHA_CELLS", cells)
        rng = random.Random(909)
        by_order = {n: labelled_graphs(n) for n in range(6)}
        for _ in range(300):
            g = random_graph(rng, 7, min_n=0)
            by_order.setdefault(g.n, []).append(g)
        for n, found in by_order.items():
            halves = bruteforce_alpha_halves(n, [_edge_mask(g) for g in found])
            assert halves.tolist() == [oracles.alpha_star_half_units(g) for g in found]

    def test_no_graphs_give_no_values(self):
        assert bruteforce_alpha_halves(4, []).tolist() == []

    def test_check_alpha_counts_each_mismatch_across_blocks(self, monkeypatch):
        # a double cover that is off by one on every graph with an odd number of edges
        honest = bounds._half_units

        def off_by_one(adj):
            odd = sum(m.bit_count() for m in adj) // 2 % 2
            return honest(adj) + 2 * odd

        monkeypatch.setattr(bounds, "_half_units", off_by_one)
        monkeypatch.setattr(bounds, "ALPHA_MAX_GRAPHS", 2)      # blocks of two graphs
        rng = random.Random(5)
        odd = sum(bounds._random_graph(rng, 7).num_edges % 2 for _ in range(9))
        # K_2 is the one odd graph on two vertices
        assert bounds.check_alpha(2, 9, 5) == {"checked": 11, "mismatches": 1 + odd}


class TestFractionalIndependence:
    @pytest.mark.parametrize("graph,expected", [
        (complete_graph(3), Fraction(3, 2)),
        (star_graph(3), Fraction(3)),
        (complete_graph(2), Fraction(1)),
        (cycle_graph(5), Fraction(5, 2)),
        (path_graph(4), Fraction(2)),
    ])
    def test_known_values(self, graph, expected):
        assert fractional_independence(graph) == expected

    def test_exhaustive_small(self):
        for n in range(1, 6):
            found = labelled_graphs(n)
            halves = bruteforce_alpha_halves(n, range(len(found)))
            for g, h in zip(found, halves.tolist()):
                assert fractional_independence(g) == Fraction(h, 2)

    def test_random_larger(self):
        rng = random.Random(501)
        for _ in range(500):
            g = random_graph(rng, 7)
            halves = bruteforce_alpha_halves(g.n, [_edge_mask(g)])
            assert fractional_independence(g) == Fraction(int(halves[0]), 2)

    def test_half_unit_sum_equals_the_oracle_on_every_small_graph(self):
        # the sum check_alpha reads
        for n in range(6):
            for g in labelled_graphs(n):
                assert _half_units(g.adjacency) == oracles.alpha_star_half_units(g)

    @settings(max_examples=300, deadline=None)
    @given(graphs_on(0, 8))
    def test_alpha_equals_the_oracle(self, g):
        assert fractional_independence(g) == oracles.fractional_independence(g).alpha_star

    def test_certificate_structure(self):
        # the oracle's half-integral certificate, which src does not build
        rng = random.Random(77)
        for _ in range(80):
            g = random_graph(rng, 7)
            result = oracles.fractional_independence(g)
            # feasibility of the half-integral assignment
            for u, v in g.edges:
                assert result.assignment[u] + result.assignment[v] <= 1
            assert sum(result.assignment.values()) == result.alpha_star
            v1, v2 = result.partition
            assert Fraction(len(v1), 2) + len(v2) == result.alpha_star
            covered = set()
            for element in result.cover:
                assert not set(element) & covered
                covered |= set(element)
                if len(element) == 2:
                    assert g.has_edge(*element)
                else:
                    ring = list(element)
                    for i, a in enumerate(ring):
                        assert g.has_edge(a, ring[(i + 1) % len(ring)])
            assert covered == set(v1)
            assert Fraction(g.n, 2) <= result.alpha_star + Fraction(
                sum(1 for d in g.degrees() if d == 0), 2) or result.alpha_star >= Fraction(g.n, 2)


class TestEmbeddingBounds:
    def test_cycle_example(self):
        report = embedding_bound("cycle", cycle_graph(3), complete_graph(4))
        assert enumerate_embeddings(cycle_graph(3), complete_graph(4)).total == 24
        assert math.isclose(report.bound, 12 ** 1.5)
        assert report.holds

    def test_jor_equality_on_edges(self, rng):
        for _ in range(10):
            g = random_graph(rng, 8)
            if g.num_edges == 0:
                continue
            report = embedding_bound("jor", complete_graph(2), g)
            assert isinstance(report.bound, Fraction) and report.holds
            assert report.bound == enumerate_embeddings(complete_graph(2), g).total == 2 * g.num_edges

    def test_stars_example(self):
        host = complete_bipartite(2, 3)
        report = embedding_bound("stars", None, host, extra=(2, 2))
        assert report.bound == 18 and star_embeddings_from(host, (0, 1), 2) == 12 and report.holds

    def test_stars_with_fractional_q_are_exact(self):
        # (floor q + frac(q)^s) |V|^s = (1 + 1/4) 9 at q = 3/2, s = 2
        host = Graph(5, frozenset({(0, 2), (0, 3), (0, 4), (1, 2)}))
        report = embedding_bound("stars", None, host, extra=(Fraction(3, 2), 2, ((0, 1), (2, 3, 4))))
        assert isinstance(report.bound, Fraction) and report.bound == Fraction(45, 4)
        assert star_embeddings_from(host, (0, 1), 2) == 6 and report.holds

    def test_holds_is_decided_exactly(self):
        # 10^6 exceeds (10^12 - 1)^(1/2) by about 5e-7, inside a 1e-12
        # relative slack; squared, 10^12 > 10^12 - 1
        report = _finish([(10 ** 12 - 1, Fraction(1, 2))], 10 ** 6)
        assert not report.holds and isinstance(report.bound, float)
        report = _finish([(10 ** 12, Fraction(1, 2))], 10 ** 6)
        assert report.holds and isinstance(report.bound, Fraction) and report.bound == 10 ** 6

    def test_rational_products_of_irrational_powers_are_exact(self):
        # 2^(1/2) 8^(1/2) = 4
        report = _finish([(2, Fraction(1, 2)), (8, Fraction(1, 2))], 4)
        assert isinstance(report.bound, Fraction) and report.bound == 4 and report.holds
        assert not _finish([(2, Fraction(1, 2)), (8, Fraction(1, 2))], 5).holds

    def test_stars_precondition(self):
        with pytest.raises(PreconditionError):
            embedding_bound("stars", None, complete_bipartite(3, 2),
                            extra=(1, 2, ((0, 1, 2), (3, 4))))

    def test_edge_bipartite_precondition_names_hypothesis(self):
        with pytest.raises(PreconditionError, match="full degree"):
            embedding_bound("edge_bipartite", path_graph(4), complete_graph(4), extra=(0, 1))

    def test_unknown_kind(self):
        with pytest.raises(PreconditionError):
            embedding_bound("nope", complete_graph(2), complete_graph(3))

    def test_battery_is_clean(self):
        summary = run_bound_battery(300, seed=20260809)
        assert summary["violations"] == 0
        assert all(count > 0 for count in summary["per_kind"].values())

    @pytest.mark.parametrize("seed, per_kind", [
        (20260809, {"cycle": 247, "jor": 135, "edge_regular": 206, "edge_bipartite": 119,
                    "bad_edges": 197, "stars": 96}),
        (3, {"cycle": 221, "jor": 158, "edge_regular": 209, "edge_bipartite": 130,
             "bad_edges": 184, "stars": 98}),
    ])
    def test_battery_summary_is_pinned(self, seed, per_kind):
        # the whole summary, in key order: it is what ``check bounds`` prints
        summary = run_bound_battery(1000, seed)
        assert list(summary.items()) == [("pairs", 1000), ("per_kind", per_kind),
                                         ("violations", 0), ("seed", seed)]
        assert list(summary["per_kind"]) == list(per_kind)


class TestEmbeddingsThroughEdges:
    """The embeddings the three per-edge bounds count against a direct
    count of the embeddings whose image contains each edge."""

    @staticmethod
    def _through(pattern, host, edge):
        edge = tuple(sorted(edge))
        return sum(1 for phi in oracles._embeddings(pattern, host)
                   if any(tuple(sorted((phi[u], phi[v]))) == edge for u, v in pattern.edges))

    def test_random_hosts(self, rng):
        regular = [complete_graph(2), complete_graph(3), complete_graph(4),
                   cycle_graph(4), cycle_graph(5)]
        bipartite = [star_graph(2), star_graph(3), complete_bipartite(2, 3)]
        checked = 0
        for _ in range(25):
            host = random_graph(rng, 7, min_n=3)
            if host.num_edges == 0:
                continue
            edges = sorted(host.edges)
            for pattern in regular + bipartite:
                edge = rng.choice(edges)
                assert _embeddings_through(pattern, host, [edge]) == \
                    self._through(pattern, host, edge)
                checked += 1
            for pattern in regular:
                marked = Graph(host.n, frozenset(e for e in edges if rng.random() < 0.5))
                assert _embeddings_through(pattern, host, marked.edges) == \
                    sum(self._through(pattern, host, e) for e in marked.edges)
                checked += 1
        assert checked > 200

    def test_pattern_is_embedded_into_itself_once(self, monkeypatch):
        calls = []
        count_maps = graphs._count_maps
        monkeypatch.setattr(graphs, "_count_maps", lambda pattern, host, through=None:
                            calls.append(host) or count_maps(pattern, host, through))
        graphs.automorphism_count.cache_clear()
        host = complete_graph(6)
        assert embedding_bound("edge_regular", complete_graph(4), host, extra=(0, 1)).holds
        # one walk over the host, and one of the pattern into itself for |Aut|
        assert calls == [host, complete_graph(4)]
        # |Aut| is remembered: a second count walks the host only
        assert _embeddings_through(complete_graph(4), host, [(0, 1)]) == \
            self._through(complete_graph(4), host, (0, 1)) == 24 * 6
        assert calls == [host, complete_graph(4), host]


class TestSubgraphEdgeChain:
    """e_J <= D(v_J - a*) <= D a* for subgraphs of a connected regular graph,
    with the stated consequences when the inequalities are tight."""

    @staticmethod
    def _in_q_family(sub, pattern, delta):
        """Whether ``sub`` is the whole pattern, or bipartite with, in each
        component, a colour class all of whose degrees are delta."""
        if sub.num_edges == pattern.num_edges:
            return True
        if sub.bipartition() is None:
            return False
        full = sum(1 << v for v, d in enumerate(sub.degrees()) if d == delta)
        return all(not (component & ~odd & ~full) or (odd and not odd & ~full)
                   for component, odd in sub.components())

    @pytest.mark.parametrize("pattern", [
        complete_graph(3), complete_graph(4), complete_graph(5),
        cycle_graph(4), cycle_graph(5), cycle_graph(6), cycle_graph(7),
        complete_bipartite(2, 2), complete_bipartite(3, 3),
    ])
    def test_chain(self, pattern):
        delta = pattern.degrees()[0]
        for size in range(1, pattern.num_edges + 1):
            for chosen in combinations(sorted(pattern.edges), size):
                sub = Graph(pattern.n, frozenset(chosen)).induced(
                    Graph(pattern.n, frozenset(chosen)).support())
                alpha = fractional_independence(sub)
                assert sub.num_edges <= delta * (sub.n - alpha) <= delta * alpha
                if sub.num_edges == delta * (sub.n - alpha):
                    assert self._in_q_family(sub, pattern, delta)
                if sub.num_edges == delta * (sub.n - alpha) == delta * alpha:
                    assert are_isomorphic(sub, pattern)


def _bipartite_adjacency(n_left, n_right, edge_p, seed):
    rng = random.Random(seed)
    return {u: sorted(v for v in range(n_right) if rng.random() < edge_p)
            for u in range(n_left)}


class TestKoenig:
    """Kuhn's matching is maximum, and the alternating-reachability set built
    from it is independent of size |L| + |R| - |M| (Koenig's theorem)."""

    @pytest.mark.parametrize("n_left, n_right, edge_p, seed", [
        (0, 0, 0.5, 0), (1, 1, 1.0, 0), (3, 3, 0.0, 0), (4, 4, 1.0, 0),
        (5, 3, 0.4, 1), (3, 6, 0.5, 2), (6, 6, 0.3, 3), (7, 5, 0.6, 4),
    ])
    def test_maximum_matching_and_complementary_independent_set(
            self, n_left, n_right, edge_p, seed):
        left_adj = _bipartite_adjacency(n_left, n_right, edge_p, seed)
        match_left, match_right = oracles.max_bipartite_matching(left_adj, n_right)
        assert match_right == {v: u for u, v in match_left.items()}
        assert all(v in left_adj[u] for u, v in match_left.items())

        def best(lefts, used):
            # the largest matching of the left vertices ``lefts``, by exhaustion
            if not lefts:
                return 0
            u, rest = lefts[0], lefts[1:]
            return max([best(rest, used)] + [1 + best(rest, used | {v})
                                             for v in left_adj[u] if v not in used])

        assert len(match_left) == best(sorted(left_adj), frozenset())
        in_left, in_right = oracles.koenig_independent_set(left_adj, match_left, match_right)
        # the independent set is in_left plus the right vertices outside in_right
        outside = set(range(n_right)) - in_right
        assert not any(v in outside for u in in_left for v in left_adj[u])
        assert len(in_left) + len(outside) == n_left + n_right - len(match_left)

    @pytest.mark.parametrize("seed", range(6))
    def test_bitmask_matching_on_double_covers(self, seed):
        # the production matching on the double cover of a graph, as bitmasks
        g = random_graph(random.Random(seed), 8, min_n=0)
        mate = _max_matching(g.adjacency)
        left_adj = {u: _bits(g.adjacency[u]) for u in range(g.n)}
        match_left, _ = oracles.max_bipartite_matching(left_adj, g.n)
        assert {u: v for v, u in enumerate(mate) if u >= 0} == match_left
        left, right = _koenig_reach(g.adjacency, mate)
        outside = ~right & ((1 << g.n) - 1)
        assert not any(g.adjacency[u] & outside for u in range(g.n) if left >> u & 1)
        assert left.bit_count() + outside.bit_count() == 2 * g.n - len(match_left)

