import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from uptail import cores, moments
from uptail.aps import ApModel
from uptail.graphs import InducedSubgraphModel, SubgraphModel, complete_graph
from uptail.models import model_mean
from uptail.moments import (
    ExactDist,
    exact_distribution,
    extremal_ap_violations,
    factorial_moments,
    factorial_moments_from_dist,
    factorial_moments_tuple_sum,
    hypergeometric_janson_check,
    janson_family,
    poisson_markov_bounds,
    stability_inequality_check,
)
from uptail.variational import BudgetExceededError

import oracles
from conftest import path_graph


TRI4 = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))


class TestExactDistribution:
    def test_triangle_tail(self):
        dist = exact_distribution(TRI4)
        assert dist.tail_at_least(1) == Fraction(23, 64)

    def test_full_clique_atom(self):
        dist = exact_distribution(TRI4)
        assert dist.pmf[4] == Fraction(1, 64)

    def test_mean(self):
        pmf = exact_distribution(TRI4).pmf
        assert sum(value * pr for value, pr in pmf.items()) == Fraction(1, 2)

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
        # E[X] = 1/2, so (1 + 1) E[X] = 1 and M_1 = 1/2
        dist = exact_distribution(TRI4)
        bounds = poisson_markov_bounds(2 * model_mean(TRI4), factorial_moments_from_dist(dist, 1))
        assert len(bounds) == 1 and math.isclose(bounds[0], math.log(2))
        assert bounds[0] <= -math.log(23 / 64)

    def test_t_range_enforced(self):
        moments2 = factorial_moments_from_dist(exact_distribution(TRI4), 2)
        with pytest.raises(ValueError):
            poisson_markov_bounds(Fraction(3, 4), moments2)  # (1+delta)mu = 0.75 < 2
        assert poisson_markov_bounds(Fraction(3, 4), moments2[:1]) == []

    def test_a_vanishing_moment_bounds_nothing(self):
        # at most 4 triangles in K_4, so M_5 = 0
        bounds = poisson_markov_bounds(5, factorial_moments_from_dist(exact_distribution(TRI4), 5))
        assert bounds[-1] == math.inf and all(math.isfinite(b) for b in bounds[:-1])

    def test_never_beats_exact_tail(self):
        for model in (TRI4, SubgraphModel(complete_graph(3), 5, Fraction(1, 2)),
                      ApModel(8, 3, Fraction(1, 2))):
            dist = exact_distribution(model)
            mean = model_mean(model)
            for delta in (0.5, 1.0, 2.0, 4.0):
                threshold = (1 + Fraction(delta)) * mean
                exact = dist.tail_at_least(threshold)
                if exact == 0:
                    continue
                moments = factorial_moments_from_dist(dist, int(threshold))
                for bound in poisson_markov_bounds(threshold, moments):
                    assert bound <= -math.log(float(exact)) + 1e-9


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


class TestJansonFamily:
    @pytest.mark.parametrize("kind, size", [("pairs", 2), ("triples", 3)])
    def test_every_subset_of_the_size(self, kind, size):
        family = janson_family(6, 2, kind, count=0, seed=0)
        assert family == [list(c) for c in combinations(range(6), size)]

    def test_random_family_is_seeded(self):
        family = janson_family(9, 3, "random", count=12, seed=5)
        assert family == janson_family(9, 3, "random", count=12, seed=5)
        assert family != janson_family(9, 3, "random", count=12, seed=6)
        assert len(family) == 12
        for member in family:
            assert member == sorted(set(member)) and 1 <= len(member) <= 4
            assert set(member) <= set(range(9))

    @pytest.mark.parametrize("t, kind, count", [
        # about 5 * 10^11 pairs, and 10^12 random sets: neither is ever built
        (10 ** 6, "pairs", 0), (10, "random", 10 ** 12),
    ])
    def test_refused_before_it_is_built(self, t, kind, count):
        with pytest.raises(BudgetExceededError, match="exceeds"):
            janson_family(t, 2, kind, count=count, seed=0)

    def test_s_outside_zero_to_t_is_refused(self):
        with pytest.raises(ValueError, match="s must lie between 0 and t"):
            janson_family(4, 5, "pairs", count=0, seed=0)


def _aps_in(mask, k):
    """k-term progressions inside the subset of {1..} whose bit i-1 is i."""
    n = mask.bit_length()
    return sum(all(mask >> (a + j * d - 1) & 1 for j in range(k))
               for d in range(1, n) for a in range(1, n - (k - 1) * d + 1))


class TestExtremalApViolations:
    """The subsets above the interval count, against a count of every
    progression in every subset; with the table lowered by one the
    violations are counted too, not only their absence."""

    @pytest.mark.parametrize("n, k_max, lowered", [
        (0, 3, False), (5, 3, False), (8, 4, False), (10, 5, False),
        (5, 3, True), (8, 4, True), (10, 5, True),
    ])
    def test_against_every_subset(self, n, k_max, lowered, monkeypatch):
        def interval(m, k):
            return _aps_in((1 << m) - 1, k) - (lowered and m >= k)

        assert all(moments.extremal_ap_count(m, k) == interval(m, k) + (lowered and m >= k)
                   for m in range(n + 1) for k in range(3, k_max + 1))
        monkeypatch.setattr(moments, "extremal_ap_count", interval)
        expected = sum(_aps_in(mask, k) > interval(mask.bit_count(), k)
                       for k in range(3, k_max + 1) for mask in range(1 << n))
        assert extremal_ap_violations(n, k_max) == expected
        assert (expected > 0) == (lowered and n >= 3)


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
