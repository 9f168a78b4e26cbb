import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from uptail import graphs
from uptail.bounds import (
    PreconditionError,
    _finish,
    alpha_star_bruteforce,
    clique_count_deficiency,
    embedding_bound,
    extract_dense_subgraph,
    fractional_independence,
    min_degree_guarantee,
    q_family,
    split_high_degree,
    star_witness,
)
from uptail.graphs import (
    Graph,
    _embeddings,
    are_isomorphic,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    enumerate_embeddings,
    path_graph,
    star_graph,
)

from conftest import random_graph
import oracles


class TestHalfUnitBruteForce:
    """The integer half-unit brute force against the ``Fraction`` recursion."""

    def test_every_graph_on_at_most_five_vertices(self):
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, frozenset(e for i, e in enumerate(pairs) if mask >> i & 1))
                assert alpha_star_bruteforce(g) == oracles.alpha_star_bruteforce(g)

    def test_random_graphs_on_at_most_eight_vertices(self):
        rng = random.Random(808)
        for _ in range(200):
            g = random_graph(rng, 8, min_n=0)
            assert alpha_star_bruteforce(g) == oracles.alpha_star_bruteforce(g)


class TestFractionalIndependence:
    @pytest.mark.parametrize("graph,expected", [
        (complete_graph(3), Fraction(3, 2)),
        (star_graph(3), Fraction(3)),
        (complete_graph(2), Fraction(1)),
        (cycle_graph(5), Fraction(5, 2)),
        (path_graph(4), Fraction(2)),
    ])
    def test_known_values(self, graph, expected):
        assert fractional_independence(graph).alpha_star == expected

    def test_exhaustive_small(self):
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1))
                assert fractional_independence(g).alpha_star == alpha_star_bruteforce(g)

    def test_random_larger(self):
        rng = random.Random(501)
        for _ in range(500):
            g = random_graph(rng, 7)
            assert fractional_independence(g).alpha_star == alpha_star_bruteforce(g)

    def test_certificate_structure(self):
        rng = random.Random(77)
        for _ in range(80):
            g = random_graph(rng, 7)
            result = fractional_independence(g)
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
        assert report.actual == 24
        assert math.isclose(report.bound, 12 ** 1.5)
        assert report.holds

    def test_jor_equality_on_edges(self, rng):
        for _ in range(10):
            g = random_graph(rng, 8)
            if g.num_edges == 0:
                continue
            report = embedding_bound("jor", complete_graph(2), g)
            assert report.exact and report.bound == report.actual == 2 * g.num_edges

    def test_stars_example(self):
        report = embedding_bound("stars", None, complete_bipartite(2, 3), extra=(2, 2))
        assert report.bound == 18 and report.actual == 12 and report.holds

    def test_stars_with_fractional_q_are_exact(self):
        # (floor q + frac(q)^s) |V|^s = (1 + 1/4) 9 at q = 3/2, s = 2
        host = Graph(5, frozenset({(0, 2), (0, 3), (0, 4), (1, 2)}))
        report = embedding_bound("stars", None, host, extra=(Fraction(3, 2), 2, ((0, 1), (2, 3, 4))))
        assert report.exact and report.bound == Fraction(45, 4)
        assert report.actual == 6 and report.holds

    def test_holds_is_decided_exactly(self):
        # 10^6 exceeds (10^12 - 1)^(1/2) by about 5e-7, inside a 1e-12
        # relative slack; squared, 10^12 > 10^12 - 1
        report = _finish("cycle", [(10 ** 12 - 1, Fraction(1, 2))], 10 ** 6)
        assert not report.holds and not report.exact
        report = _finish("cycle", [(10 ** 12, Fraction(1, 2))], 10 ** 6)
        assert report.holds and report.exact and report.bound == 10 ** 6

    def test_rational_products_of_irrational_powers_are_exact(self):
        # 2^(1/2) 8^(1/2) = 4
        report = _finish("jor", [(2, Fraction(1, 2)), (8, Fraction(1, 2))], 4)
        assert report.exact and report.bound == 4 and report.holds
        assert not _finish("jor", [(2, Fraction(1, 2)), (8, Fraction(1, 2))], 5).holds

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
        from uptail.bounds import run_bound_battery
        summary = run_bound_battery(300, seed=20260809)
        assert summary["violations"] == 0
        assert all(count > 0 for count in summary["per_kind"].values())


class TestEmbeddingsThroughEdges:
    """``actual`` of the three per-edge bounds against a direct count of the
    embeddings whose image contains each edge."""

    @staticmethod
    def _through(pattern, host, edge):
        edge = tuple(sorted(edge))
        return sum(1 for phi in _embeddings(pattern, host)
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
            for kind, patterns in (("edge_regular", regular), ("edge_bipartite", bipartite)):
                for pattern in patterns:
                    edge = rng.choice(edges)
                    report = embedding_bound(kind, pattern, host, extra=edge)
                    assert report.actual == self._through(pattern, host, edge)
                    checked += 1
            for pattern in regular:
                marked = Graph(host.n, frozenset(e for e in edges if rng.random() < 0.5))
                report = embedding_bound("bad_edges", pattern, host, extra=marked)
                assert report.actual == sum(self._through(pattern, host, e) for e in marked.edges)
                checked += 1
        assert checked > 200

    def test_pattern_is_embedded_into_itself_once(self, monkeypatch):
        calls = []
        embeddings = graphs._embeddings
        monkeypatch.setattr(graphs, "_embeddings",
                            lambda pattern, host: calls.append(host) or embeddings(pattern, host))
        host = complete_graph(6)
        report = embedding_bound("edge_regular", complete_graph(4), host, extra=(0, 1))
        assert report.actual == self._through(complete_graph(4), host, (0, 1)) == 24 * 6
        # one walk over the host, and one of the pattern into itself for |Aut|
        assert calls == [host, complete_graph(4)]


class TestSubgraphEdgeChain:
    """e_J <= D(v_J - a*) <= D a* for subgraphs of a connected regular graph,
    with the stated consequences when the inequalities are tight."""

    @pytest.mark.parametrize("pattern", [
        complete_graph(3), complete_graph(4), complete_graph(5),
        cycle_graph(4), cycle_graph(5), cycle_graph(6), cycle_graph(7),
        complete_bipartite(2, 2), complete_bipartite(3, 3),
    ])
    def test_chain(self, pattern):
        delta = pattern.degrees()[0]
        family = q_family(pattern)
        for size in range(1, pattern.num_edges + 1):
            for chosen in combinations(sorted(pattern.edges), size):
                sub = Graph(pattern.n, frozenset(chosen)).induced(
                    Graph(pattern.n, frozenset(chosen)).support())
                alpha = fractional_independence(sub).alpha_star
                assert sub.num_edges <= delta * (sub.n - alpha) <= delta * alpha
                if sub.num_edges == delta * (sub.n - alpha):
                    assert any(are_isomorphic(sub, member) for member in family)
                if sub.num_edges == delta * (sub.n - alpha) == delta * alpha:
                    assert are_isomorphic(sub, pattern)


class TestQFamily:
    def test_c4(self):
        family = q_family(cycle_graph(4))
        assert len(family) == 2
        assert any(are_isomorphic(g, cycle_graph(4)) for g in family)
        assert any(are_isomorphic(g, path_graph(3)) for g in family)

    def test_k4(self):
        family = q_family(complete_graph(4))
        assert len(family) == 2
        assert any(are_isomorphic(g, complete_graph(4)) for g in family)
        assert any(are_isomorphic(g, star_graph(3)) for g in family)

    def test_k2(self):
        family = q_family(complete_graph(2))
        assert len(family) == 1 and are_isomorphic(family[0], complete_graph(2))

    def test_rejects_irregular(self):
        with pytest.raises(PreconditionError):
            q_family(path_graph(3))


class TestDenseExtraction:
    def test_complete_host(self):
        host = complete_graph(40)
        assert enumerate_embeddings(complete_graph(3), host).total == 59280
        sub = extract_dense_subgraph(host, 3)
        floor = min_degree_guarantee(host, 3)
        assert floor > 0
        min_deg = min(sub.degree(v) for v in sub.support())
        assert min_deg == 39 >= floor

    def test_matching_vacuous(self):
        host = Graph(8, frozenset({(0, 1), (2, 3), (4, 5), (6, 7)}))
        assert extract_dense_subgraph(host, 3) is None

    def test_clique_plus_noise_via_override(self):
        noise = frozenset((20 + 2 * i, 21 + 2 * i) for i in range(40))
        host = Graph(100, complete_graph(20).edges | noise)
        # the guarantee is vacuous here, so the default refuses
        assert extract_dense_subgraph(host, 3) is None
        sub = extract_dense_subgraph(host, 3, peel_threshold=1.0)
        assert set(range(20)) <= set(sub.support())
        assert set(sub.support()) == set(range(20))

    def test_guarantee_on_random_survivors(self, rng):
        for _ in range(30):
            host = random_graph(rng, 9, min_n=5, p=0.85)
            if host.num_edges == 0:
                continue
            sub = extract_dense_subgraph(host, 3)
            if sub is None:
                continue
            floor = min_degree_guarantee(host, 3)
            assert min(sub.degree(v) for v in sub.support()) >= floor

    def test_even_r_route(self):
        # at this scale the guarantee for r=4 is still vacuous, so the
        # default refuses; the override runs the same peeling route
        host = complete_graph(12)
        assert extract_dense_subgraph(host, 4) is None
        sub = extract_dense_subgraph(host, 4, peel_threshold=1.0)
        assert set(sub.support()) == set(range(12))
        assert min(sub.degree(v) for v in sub.support()) == 11

    def test_deficiency_clamp(self):
        # a complete graph has embedding count close to the ceiling; the
        # deficiency never drops below 1/sqrt(e_G)
        host = complete_graph(30)
        assert clique_count_deficiency(host, 3) >= host.num_edges ** -0.5


class TestSplitHighDegree:
    def test_star_center(self):
        side_u, side_v, report = split_high_degree(star_graph(50), 10, 3)
        assert side_u == (0,)
        assert report.star_total == report.star_bipartite + report.t1 + report.t2

    def test_empty(self):
        side_u, _, _ = split_high_degree(Graph(4), 1, 3)
        assert side_u == ()

    def test_low_max_degree(self):
        side_u, _, _ = split_high_degree(cycle_graph(8), 3, 3)
        assert side_u == ()

    def test_accounting_identities(self, rng):
        for _ in range(25):
            host = random_graph(rng, 8)
            theta = rng.uniform(0.5, 5)
            r = rng.choice([3, 4])
            side_u, side_v, report = split_high_degree(host, theta, r)
            assert report.clique_drop <= report.clique_drop_bound
            assert len(side_u) <= report.u_size_bound
            assert report.star_total == report.star_bipartite + report.t1 + report.t2
            # independent recount of the star total
            s = r - 1
            direct = sum(math.prod(range(host.degree(v), host.degree(v) - s, -1))
                         for v in range(host.n) if host.degree(v) >= s)
            assert report.star_total == direct


class TestStarWitness:
    def test_complete_bipartite(self):
        witness = star_witness(complete_bipartite(2, 5), 2, 2, 0.1,
                               parts=([0, 1], [2, 3, 4, 5, 6]))
        assert witness == ((0, 1), (0, 1))

    def test_no_edges(self):
        assert star_witness(Graph(7), 2, 2, 0.1, parts=([0, 1], [2, 3, 4, 5, 6])) is None

    def test_full_plus_pendant(self):
        g = Graph(7, frozenset({(0, i) for i in range(2, 7)} | {(1, 2)}))
        witness = star_witness(g, 1, 2, 0.1, parts=([0, 1], [2, 3, 4, 5, 6]))
        assert witness == ((0,), (0,))

    def test_crossing_mass_is_compared_exactly(self):
        # (1 - 1/5) * 3/2 * 5 = 6 crossing edges exactly; in floats the mass
        # reads 6.000000000000001 and refused this witness
        g = Graph(7, frozenset({(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3)}))
        witness = star_witness(g, Fraction(3, 2), 2, Fraction(1, 5),
                               parts=([0, 1], [2, 3, 4, 5, 6]))
        assert witness == ((0, 1), (0,))

    def test_part_identification_failure(self):
        with pytest.raises(PreconditionError, match="part identification"):
            star_witness(complete_graph(3), 1, 2, 0.1)
        with pytest.raises(PreconditionError, match="cross"):
            star_witness(complete_graph(4), 1, 2, 0.1, parts=([0, 1], [2, 3]))


def test_bound_report_json_roundtrips():
    import json
    report = embedding_bound("jor", complete_graph(2), complete_graph(4))
    data = json.loads(report.to_json())
    assert data["bound"] == "12/1" and data["actual"] == 12 and data["holds"]
    report = embedding_bound("cycle", cycle_graph(3), complete_graph(4))
    data = json.loads(report.to_json())
    assert isinstance(data["bound"], float) and not data["exact"]
