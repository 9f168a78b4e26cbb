import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from uptail import cores, moments
from uptail.aps import ApModel
from uptail.graphs import InducedSubgraphModel, SubgraphModel, complete_graph, path_graph
from uptail.models import model_mean
from uptail.moments import (
    ExactDist,
    ap_cluster_union_count,
    ap_hypergraph,
    dependency_clusters,
    exact_distribution,
    factorial_moments,
    factorial_moments_from_dist,
    factorial_moments_tuple_sum,
    falling_factorial_log,
    hypergeometric_janson_check,
    poisson_markov_bound,
    stability_inequality_check,
    subgraph_cluster_census,
)
from uptail.variational import BudgetExceededError

import oracles


TRI4 = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))


class TestExactDistribution:
    def test_triangle_tail(self):
        dist = exact_distribution(TRI4)
        assert dist.tail_at_least(1) == Fraction(23, 64)

    def test_full_clique_atom(self):
        dist = exact_distribution(TRI4)
        assert dist.pmf[4] == Fraction(1, 64)

    def test_mean(self):
        assert exact_distribution(TRI4).mean() == Fraction(1, 2)

    def test_probabilities_sum_to_one(self):
        for model in (TRI4,
                      ApModel(8, 3, Fraction(1, 3)),
                      SubgraphModel(complete_graph(3), 5, Fraction(2, 7)),
                      InducedSubgraphModel(path_graph(3), 4, Fraction(1, 2))):
            dist = exact_distribution(model)
            assert sum(dist.pmf.values()) == 1
            assert all(pr > 0 for pr in dist.pmf.values())

    def test_matches_direct_enumeration(self):
        model = ApModel(6, 3, Fraction(1, 3))
        dist = exact_distribution(model)
        p, q = Fraction(1, 3), Fraction(2, 3)
        direct = {}
        for outcome in range(1 << 6):
            value = oracles.value_on_outcome(model, outcome)
            weight = p ** bin(outcome).count("1") * q ** (6 - bin(outcome).count("1"))
            direct[value] = direct.get(value, Fraction(0)) + weight
        assert dist.pmf == {v: pr for v, pr in direct.items() if pr}

    def test_budget_cap(self):
        with pytest.raises(BudgetExceededError):
            exact_distribution(ApModel(23, 3, Fraction(1, 2)))


class TestFactorialMoments:
    def test_first_two(self):
        result = factorial_moments(TRI4, 2)
        assert result.from_dist[0] == 1
        assert result.from_dist[1] == Fraction(1, 2)
        assert result.from_dist[2] == Fraction(3, 8)

    def test_routes_agree(self):
        rng = random.Random(42)
        models = [TRI4,
                  SubgraphModel(complete_graph(3), 5, Fraction(1, 4)),
                  ApModel(7, 3, Fraction(1, 2)),
                  ApModel(9, 4, Fraction(2, 5))]
        for model in models:
            result = factorial_moments(model, 4)
            assert result.from_tuples is not None
            assert result.from_dist == result.from_tuples

    # the `moments` queries of the benchmark's bulk workload
    @pytest.mark.parametrize("model, t_max", [
        (ApModel(12, 3, Fraction(1, 3)), 3),
        (SubgraphModel(complete_graph(3), 5, Fraction(1, 2)), 4),
        (SubgraphModel(complete_graph(3), 6, Fraction(1, 2)), 3),
        (SubgraphModel(complete_graph(4), 6, Fraction(1, 2)), 3),
    ])
    def test_tuple_counts_match_fraction_oracle(self, model, t_max):
        assert factorial_moments_tuple_sum(model, t_max) == \
            oracles.factorial_moments_tuple_sum(model, t_max)

    def test_tuple_budget_counts_every_tuple(self):
        model = SubgraphModel(complete_graph(3), 5, Fraction(1, 2))   # 10 triangles
        tuples = 10 + 10 * 9 + 10 * 9 * 8
        assert factorial_moments_tuple_sum(model, 3, budget=tuples) == \
            oracles.factorial_moments_tuple_sum(model, 3)
        with pytest.raises(BudgetExceededError, match="at t=3"):
            factorial_moments_tuple_sum(model, 3, budget=tuples - 1)

    def test_poisson_reference_line(self):
        # for an actual Poisson pmf the factorial moments are powers of the mean
        mu = Fraction(3, 2)
        terms = {k: mu ** k * Fraction(math.factorial(k)) ** -1 for k in range(40)}
        scale = sum(terms.values())
        pmf = {k: t / scale for k, t in terms.items()}
        dist = ExactDist(pmf=pmf, n_outcomes=0)
        moments = factorial_moments_from_dist(dist, 3)
        for t in range(4):
            assert abs(float(moments[t] - mu ** t)) < 1e-9  # truncation only


class TestPoissonMarkov:
    def test_triangle_t1(self):
        bound = poisson_markov_bound(TRI4, 1.0, 1)
        assert math.isclose(bound, math.log(2))
        assert bound <= -math.log(23 / 64)

    def test_t_range_enforced(self):
        with pytest.raises(ValueError):
            poisson_markov_bound(TRI4, 1.0, 0)
        with pytest.raises(ValueError):
            poisson_markov_bound(TRI4, 0.5, 2)  # (1+delta)mu = 0.75 < 2

    def test_never_beats_exact_tail(self):
        for model in (TRI4, SubgraphModel(complete_graph(3), 5, Fraction(1, 2)),
                      ApModel(8, 3, Fraction(1, 2))):
            dist = exact_distribution(model)
            mean = model_mean(model)
            for delta in (0.5, 1.0, 2.0, 4.0):
                exact = dist.tail_at_least((1 + Fraction(delta)) * mean)
                if exact == 0:
                    continue
                t_cap = int((1 + Fraction(delta)) * mean)
                for t in range(1, t_cap + 1):
                    bound = poisson_markov_bound(model, delta, t, dist=dist)
                    assert bound <= -math.log(float(exact)) + 1e-9


class TestFallingFactorialLog:
    def test_t_zero(self):
        assert falling_factorial_log(5.0, 0) == (0.0, 0.0)

    def test_unit_case(self):
        main, lam = falling_factorial_log(1.0, 1)
        assert math.isclose(lam, 1 - math.log(2))

    def test_band_examples(self):
        _, lam = falling_factorial_log(10.0, 5)
        assert 0 <= lam <= 0.6

    @given(st.floats(min_value=0.1, max_value=1e4),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=500, deadline=None)
    def test_band_property(self, x, t):
        _, lam = falling_factorial_log(x, t)
        assert -1e-7 <= lam <= (t + 1) / x + 1e-7


class TestClusters:
    def test_ap_pairs_in_five(self):
        for p in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)):
            census = dependency_clusters(ap_hypergraph(5, 3), p, 2)
            assert census.by_size[2] == 4 * p ** 4 + 2 * p ** 5

    def test_singletons(self):
        p = Fraction(1, 3)
        census = dependency_clusters(ap_hypergraph(5, 3), p, 1)
        assert census.by_size[1] == 4 * p ** 3

    def test_beyond_edge_count_is_zero(self):
        census = dependency_clusters(ap_hypergraph(5, 3), Fraction(1, 2), 6)
        assert census.by_size[5] == 0 and census.by_size[6] == 0

    def test_against_direct_enumeration(self):
        # independent recount: all subsets, connectivity by repeated merging
        hg = ap_hypergraph(7, 3)
        p = Fraction(1, 3)
        census = dependency_clusters(hg, p, 3)
        for s in (1, 2, 3):
            direct = Fraction(0)
            for chosen in combinations(range(len(hg.edges)), s):
                masks = [hg.edges[i] for i in chosen]
                parts = list(masks)
                merged = True
                while merged and len(parts) > 1:
                    merged = False
                    for i in range(len(parts)):
                        for j in range(i + 1, len(parts)):
                            if parts[i] & parts[j]:
                                parts[i] |= parts.pop(j)
                                merged = True
                                break
                        if merged:
                            break
                if len(parts) == 1:
                    union = 0
                    for m in masks:
                        union |= m
                    direct += p ** bin(union).count("1")
            assert census.by_size[s] == direct

    def test_subgraph_census_refinement(self):
        census = subgraph_cluster_census(TRI4, 2)
        assert census.by_size_km[(1, 3, 3)] == 4 * Fraction(1, 8)
        assert census.by_size_km[(2, 4, 5)] == 6 * Fraction(1, 32)
        assert sum(v for (s, _, _), v in census.by_size_km.items() if s == 2) == \
            census.by_size[2]


class TestApClusterUnions:
    def test_known_counts(self):
        assert ap_cluster_union_count(5, 3, 3) == 4
        assert ap_cluster_union_count(5, 3, 4) == 4
        assert ap_cluster_union_count(5, 3, 2) == 0

    def test_upper_bound_when_induction_condition_holds(self):
        # the recursive counting bound N^2 (2kmN)^{(m-k)/(k-1)} applies as
        # long as the step condition k^3 m'^2 (2km'N)^{-1/(k-1)} <= 1/2 holds
        # for every k < m' <= m
        for n in (10, 12, 14):
            for k in (3, 4):
                for m in range(k, min(2 * k, 8) + 1):
                    condition = all(
                        k ** 3 * mp ** 2 * (2 * k * mp * n) ** (-1 / (k - 1)) <= 0.5
                        for mp in range(k + 1, m + 1))
                    if not condition:
                        continue
                    bound = n ** 2 * (2 * k * m * n) ** ((m - k) / (k - 1))
                    assert ap_cluster_union_count(n, k, m) <= bound


class TestHypergeometricJanson:
    def test_all_pairs(self):
        family = [list(c) for c in combinations(range(4), 2)]
        exact, bound, holds = hypergeometric_janson_check(family, 4, 2, 0.5)
        # a 2-subset always contains exactly one pair: mu = 6/4 = 1.5;
        # Z = 1 <= 0.75 never happens
        assert exact == 0 and holds

    def test_empty_family(self):
        exact, bound, holds = hypergeometric_janson_check([], 4, 2, 1.0)
        assert exact == 1 and bound == 2 and holds

    def test_boundary_eps(self):
        family = [[0, 1], [1, 2], [2, 3]]
        exact, bound, holds = hypergeometric_janson_check(family, 4, 2, 1.0)
        # P(Z <= 0): the subsets {0,2},{0,3},{1,3} miss all three pairs
        assert exact == Fraction(3, 6) and holds

    def test_holds_is_decided_from_exact_logs(self, monkeypatch):
        # exact = 3/6 against 2 exp(-x), x = 9/40: the sign of
        # ln 3 - ln 12 + 9/40 from decimal logs, not a float comparison
        family = [[0, 1], [1, 2], [2, 3]]
        assert hypergeometric_janson_check(family, 4, 2, Fraction(1))[2]
        # with no precision left to spend, the sides cannot be ordered
        monkeypatch.setattr(cores, "PASSES_BITS", 100)
        with pytest.raises(BudgetExceededError,
                           match=r"the exact tail and 2 exp\(-x\) are not ordered"):
            hypergeometric_janson_check(family, 4, 2, Fraction(1))

    def test_random_families(self):
        rng = random.Random(8)
        for _ in range(40):
            t = rng.randint(3, 8)
            s = rng.randint(0, t)
            family = [sorted(rng.sample(range(t), rng.randint(1, t)))
                      for _ in range(rng.randint(0, 6))]
            eps = rng.uniform(0.05, 1.0)
            exact, bound, holds = hypergeometric_janson_check(family, t, s, eps)
            assert holds, (t, s, family, eps, exact, bound)

    def test_budget_counts_subset_and_pair_tests(self, monkeypatch):
        # C(5,2) = 10 subsets and 10 pairs: (10 + 10) * 10 tests
        family = [list(c) for c in combinations(range(5), 2)]
        monkeypatch.setattr(moments, "JANSON_BUDGET", 200)
        hypergeometric_janson_check(family, 5, 2, 0.5)
        monkeypatch.setattr(moments, "JANSON_BUDGET", 199)
        with pytest.raises(BudgetExceededError, match=r"C\(5,2\) subsets against 10 sets"):
            hypergeometric_janson_check(family, 5, 2, 0.5)


class TestStabilityInequality:
    def test_triangle_instances(self):
        for ell in (1, 2, 3):
            lhs, bound, holds, _ = stability_inequality_check(TRI4, 1.0, 0.2, ell)
            assert holds

    def test_nontrivial_left_side(self):
        # for a large excess no small set qualifies, the degree-ell blocker
        # family is empty, and the blocked tail is the genuine tail; it must
        # still sit below the moment bound
        model = SubgraphModel(complete_graph(3), 5, Fraction(1, 4))
        saw_positive = False
        for delta in (1.0, 3.0, 10.0, 20.0):
            for eps in (0.05, 0.3):
                for ell in (1, 2):
                    lhs, bound, holds, _ = stability_inequality_check(
                        model, delta, eps, ell)
                    assert holds
                    if lhs > 0:
                        saw_positive = True
        assert saw_positive


def test_census_csv_schema():
    census = subgraph_cluster_census(TRI4, 2)
    lines = census.to_csv().splitlines()
    assert lines[0] == "s,k,m,expectation"
    assert "1,3,3,1/2" in lines and "2,4,5,3/16" in lines
