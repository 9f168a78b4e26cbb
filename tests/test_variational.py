import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uptail import aps, graphs, models, variational
from uptail.aps import ApModel, IntegerSet, conditional_expectation_ap
from uptail.graphs import (
    Graph,
    InducedSubgraphModel,
    SubgraphModel,
    complete_graph,
    cycle_graph,
    parse_graph6,
)
from uptail.models import model_mean
from uptail.variational import (
    ARGMIN_TOL,
    BudgetExceededError,
    InfeasibleConstructionError,
    build_construction,
    clique_hub_crossover,
    independence_polynomial,
    min_conditioning_witness,
    min_planting_cost,
    min_subcube_witness,
    poisson_rate,
    tail_log_upper_bound,
    theta_root,
)

from conftest import path_graph
from oracles import (
    conditional_expectation_subgraph,
    conditional_mean_given_subcube,
    mixture_cost,
    mixture_cost_grid,
)


class TestMixtureCost:
    def test_pure_clique_point(self):
        assert mixture_cost(3, 1.0, 1.5, 0.0) == 0.5

    def test_pure_hub_point(self):
        assert math.isclose(mixture_cost(3, 1.0, 1.5, 1.0), math.sqrt(0.5) / 1.5)

    def test_integer_excess_collapses_fraction(self):
        # x dc/r integral: second term is linear, x d/r exactly
        value = mixture_cost(3, 2.0, 3.0, 0.5)
        assert math.isclose(value, (2 * 0.5) ** (2 / 3) / 2 + 0.5 * 2 / 3)

    def test_rejects_limits(self):
        with pytest.raises(ValueError):
            mixture_cost(3, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            mixture_cost(3, 1.0, math.inf, 0.5)

    @given(st.integers(3, 5), st.floats(0.01, 5), st.floats(0.01, 10),
           st.floats(0, 1))
    # levels t = x delta c / r below 1e-9, which an absolute snap moved to 0
    @example(3, 0.015625, 0.015625, 1e-5)
    @example(3, 0.125, 0.125, 1.12e-7)
    # t = 1 + 1.5e-15, within rounding of 1, at x = 1 - 1e-15, where the
    # clique term is steep as well
    @example(5, 1.42789467236153, 3.5016588385547656, 0.999999999999999)
    @settings(max_examples=300, deadline=None)
    def test_formula_is_lower_envelope(self, r, delta, c, x):
        best = min_planting_cost(r, delta, c)
        assert best.phi <= mixture_cost(r, delta, c, x) + 1e-9

    def test_grid_matches_scalar(self):
        xs = np.linspace(0, 1, 101)
        grid = mixture_cost_grid(3, 1.3, 2.7, xs)
        for x, g in zip(xs, grid):
            assert math.isclose(g, mixture_cost(3, 1.3, 2.7, float(x)), abs_tol=1e-12)


class TestMinPlantingCost:
    def test_infinite_c(self):
        result = min_planting_cost(3, 1.0, math.inf)
        assert math.isclose(result.phi, 1 / 3) and result.argmins == (1.0,)

    def test_integral_point(self):
        result = min_planting_cost(3, 1.0, 3.0)
        assert math.isclose(result.phi, 1 / 3)
        assert result.argmins == (1.0,)

    def test_balanced_delta(self):
        result = min_planting_cost(3, 3.375, math.inf)
        assert math.isclose(result.phi, 1.125)
        assert result.argmins == (0.0, 1.0)

    def test_zero_c(self):
        result = min_planting_cost(4, 2.0, 0)
        assert math.isclose(result.phi, 2 ** 0.5 / 2) and result.argmins == (0.0,)

    def test_limit_continuity(self):
        for r in (3, 4, 5):
            for delta in np.linspace(0.1, 5, 25):
                low = min_planting_cost(r, float(delta), 1e-6).phi
                assert abs(low - delta ** (2 / r) / 2) <= 1e-3
                high = min_planting_cost(r, float(delta), 1e6).phi
                expected = min(delta ** (2 / r) / 2, delta / r)
                assert abs(high - expected) <= 1e-3

    def test_grid_agreement_sampled(self):
        # closed form vs dense-grid minimum (grid augmented with the three
        # candidate points, which the uniform grid cannot hit exactly)
        xs = np.linspace(0.0, 1.0, 20001)
        rng = random.Random(3)
        for _ in range(60):
            r = rng.choice([3, 4, 5])
            delta = rng.uniform(0.05, 5)
            c = rng.uniform(0.1, 10)
            result = min_planting_cost(r, delta, c)
            points = np.concatenate([xs, [0.0, 1.0, result.mix_point]])
            grid_min = float(mixture_cost_grid(r, delta, c, points).min())
            assert abs(result.phi - grid_min) <= 1e-9

    def test_level_just_above_integer_is_mixed(self):
        # t = delta c / r = 1 + 5e-10 is not a rounding of 1: the minimum is
        # the mixed level alone, not a clique/hub tie at the snapped level
        r, delta, c = 3, 3.0, 1.0000000005
        result = min_planting_cost(r, delta, c)
        t = delta * c / r
        assert abs(result.phi - (1 / c + (3 * (t - 1) / c) ** (2 / 3) / 2)) <= 1e-9
        assert result.argmins == (result.mix_point,)
        for x in result.argmins:
            assert abs(mixture_cost(r, delta, c, x) - result.phi) <= ARGMIN_TOL

    def test_level_just_below_integer_is_hub(self):
        # t = delta c / r lies 6e-15 below 5, within rounding of it: the
        # mix point is x = 1, not a second argmin just past it
        result = min_planting_cost(3, 1.0150405116093297, 14.77773530065094)
        assert result.mix_point == 1.0
        assert result.argmins == (1.0,)

    def test_crossover(self):
        assert abs(clique_hub_crossover(3) - 3.375) <= 1e-9
        for r in (4, 5):
            root = clique_hub_crossover(r)
            assert abs(root ** (2 / r) / 2 - root / r) <= 1e-9

    @pytest.mark.parametrize("r", range(3, 9))
    def test_crossover_closed_form(self, r):
        assert clique_hub_crossover(r) == (r / 2) ** (r / (r - 2))

    @pytest.mark.parametrize("r", [2, 1, 0])
    def test_crossover_needs_r_at_least_3(self, r):
        with pytest.raises(ValueError, match="r must be at least 3"):
            clique_hub_crossover(r)


class TestPoissonRate:
    def test_zero(self):
        assert poisson_rate(0, 5.0) == 0

    def test_unit(self):
        assert math.isclose(poisson_rate(1, 1), 2 * math.log(2) - 1)

    def test_e_minus_one(self):
        assert math.isclose(poisson_rate(math.e - 1, 1), 1.0)


class TestIndependencePolynomial:
    def test_clique(self):
        assert independence_polynomial(complete_graph(4)) == [1, 4, 0, 0, 0]

    def test_path(self):
        # P3: independent sets: {}, 3 singletons, {ends}
        assert independence_polynomial(path_graph(3)) == [1, 3, 1, 0]

    def test_theta_clique_closed_form(self):
        for r in (3, 4, 5):
            for delta in (0.5, 1.0, 2.0):
                assert abs(theta_root(complete_graph(r), delta) - delta / r) <= 1e-9


class TestConstructions:
    def test_clique_size(self):
        model = SubgraphModel(complete_graph(3), 100, Fraction(3, 10))
        witness = build_construction("clique", model, 0.728)
        used = {v for e in witness.payload.edges for v in e}
        assert len(used) == 36 and witness.payload.num_edges == 36 * 35 // 2
        assert witness.feasible

    def test_clique_infeasible(self):
        model = SubgraphModel(complete_graph(3), 5, Fraction(9, 10))
        with pytest.raises(InfeasibleConstructionError):
            build_construction("clique", model, 50.0)

    def test_interval(self):
        model = ApModel(100, 3, Fraction(1, 10))
        witness = build_construction("interval", model, 1.0)
        assert witness.payload.elements() == [1, 2, 3, 4, 5]
        assert witness.feasible

    def test_interval_scan_is_minimal(self):
        model = ApModel(100, 3, Fraction(1, 10))
        witness = build_construction("interval", model, 1.0)
        target = Fraction(1) * model.p ** 3 * 2450 / (1 - model.p ** 3)
        size = len(witness.payload)
        from uptail.aps import extremal_ap_count
        assert extremal_ap_count(size, 3) >= target > extremal_ap_count(size - 1, 3)

    def test_hub_pure_star_branch(self):
        model = SubgraphModel(complete_graph(3), 20, Fraction(1, 10))
        witness = build_construction("hub", model, 1.0)
        # excess level below one: no complete-bipartite core, only the star
        degrees = witness.payload.degrees()
        assert max(degrees) == witness.payload.num_edges  # a single star
        level = 1.0 * 20 * 0.1 ** 2 / 3
        assert witness.payload.num_edges == math.floor(level ** 0.5 * 19)

    def test_hub_with_core(self):
        model = SubgraphModel(complete_graph(3), 60, Fraction(1, 2))
        witness = build_construction("hub", model, 3.0)
        # level = 3*60*0.25/3 = 15 exactly: complete bipartite 15 x 44
        assert witness.payload.num_edges == 15 * 44
        # feasibility is decided exactly; at this scale the finite-size loss
        # keeps the planted mean just below the (1+delta) target
        lhs = conditional_expectation_subgraph(model, witness.payload)
        assert witness.conditional_mean == lhs
        assert witness.feasible == (lhs >= 4 * model_mean(model))

    @pytest.mark.parametrize("kind", ["clique", "hub"])
    @pytest.mark.parametrize("model", [SubgraphModel(complete_graph(3), 70, Fraction(1, 10)),
                                       SubgraphModel(complete_graph(4), 20, Fraction(1, 4))],
                             ids=["triangles-n70", "K4-n20"])
    def test_large_construction_means(self, model, kind):
        witness = build_construction(kind, model, 1.0)
        assert witness.conditional_mean == conditional_expectation_subgraph(model, witness.payload)

    def test_feasible_flag_is_exact(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(4, 5)
            p = Fraction(rng.randint(1, 3), 4)
            model = SubgraphModel(complete_graph(3), n, p)
            delta = rng.uniform(0.2, 2.0)
            try:
                witness = build_construction(rng.choice(["clique", "hub"]), model, delta)
            except InfeasibleConstructionError:
                continue
            lhs = conditional_expectation_subgraph(model, witness.payload)
            assert witness.conditional_mean == lhs
            assert witness.feasible == (lhs >= (1 + Fraction(delta)) * model_mean(model))


def _clique_size(graph):
    return len({v for e in graph.edges for v in e})


def _hub_sizes(graph):
    """(core, star): core edges run from 1..core to the outside vertices,
    star edges from vertex 0."""
    return len({a for a, _ in graph.edges if a}), sum(1 for a, _ in graph.edges if a == 0)


class TestExactSizing:
    """Each size satisfies its defining inequality and the next size does
    not, over a sweep that reaches the exact-integer boundaries."""

    PS = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]
    DELTAS = [Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7),
              Fraction(26)]

    def test_clique(self):
        boundaries = 0
        for pattern in (complete_graph(3), complete_graph(4), cycle_graph(4), cycle_graph(5)):
            power = 2 * pattern.n
            for n in range(3, 61):
                for p in self.PS:
                    model = SubgraphModel(pattern, n, p)
                    for delta in self.DELTAS:
                        target = (1 + delta) ** 2 * n ** power * p ** (2 * pattern.num_edges)
                        try:
                            size = _clique_size(variational._clique(model, delta).graph)
                        except InfeasibleConstructionError:
                            assert n ** power < target
                            continue
                        if size == 0:       # no edges: the least size is 0 or 1
                            assert target <= 1
                            continue
                        assert size ** power >= target > (size - 1) ** power
                        boundaries += size ** power == target
        assert boundaries > 0

    def test_hub(self):
        core_boundaries = star_boundaries = 0
        for r in (2, 3, 4):
            for n in range(3, 61):
                for p in self.PS:
                    model = SubgraphModel(complete_graph(r), n, p)
                    for delta in self.DELTAS:
                        ell = delta * n * p ** (r - 1) / r
                        try:
                            core, star = _hub_sizes(variational._hub(model, delta).graph)
                        except InfeasibleConstructionError:
                            assert math.floor(ell) + 1 >= n
                            continue
                        assert core <= ell < core + 1
                        room = (ell - core) * (n - 1 - core) ** (r - 1)
                        assert star ** (r - 1) <= room < (star + 1) ** (r - 1)
                        core_boundaries += ell == core and core > 0
                        star_boundaries += star ** (r - 1) == room and star > 0
        assert core_boundaries > 0 and star_boundaries > 0

    # a hair past an exact-integer boundary, where a float within 1e-9 of
    # the boundary would be rounded onto it
    HAIR = Fraction(1, 10 ** 12)

    @pytest.mark.parametrize("delta, size", [(7, 20), (7 + HAIR, 21)])
    def test_clique_next_to_an_integer(self, delta, size):
        # (1+delta)^(1/3) n p = 20 at n = 40, p = 1/4, delta = 7
        model = SubgraphModel(complete_graph(3), 40, Fraction(1, 4))
        assert _clique_size(variational._clique(model, Fraction(delta)).graph) == size

    @pytest.mark.parametrize("n, p, delta, sizes", [
        # ell = delta n p^2 / 3 = 15 at delta = 3
        (60, Fraction(1, 2), 3, (15, 0)),
        (60, Fraction(1, 2), 3 - HAIR, (14, 44)),
        # ell = delta / 15 and a star of exactly 19 sqrt(ell) = 1 edge
        (20, Fraction(1, 10), Fraction(15, 361), (0, 1)),
        (20, Fraction(1, 10), Fraction(15, 361) - HAIR, (0, 0)),
    ])
    def test_hub_next_to_an_integer(self, n, p, delta, sizes):
        model = SubgraphModel(complete_graph(3), n, p)
        assert _hub_sizes(variational._hub(model, Fraction(delta)).graph) == sizes

    @pytest.mark.parametrize("value", [0, 1, 2, 7, 8, 9, 63, 64, 65, 10 ** 40, 10 ** 40 + 1])
    @pytest.mark.parametrize("e", [1, 2, 3, 6])
    def test_int_root(self, value, e):
        for v in (value, Fraction(value) + Fraction(1, 3)):
            root = variational._int_root(v, e)
            assert root ** e <= v < (root + 1) ** e

    def test_interval_builds_no_progression_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the interval construction must not reach this")

        monkeypatch.setattr(aps, "progression_masks", refuse)
        monkeypatch.setattr(variational, "model_mean", refuse)
        monkeypatch.setattr(models, "compile_model", refuse)
        witness = build_construction("interval", ApModel(1000, 3, Fraction(1, 10)), 1)
        assert witness.payload == IntegerSet.from_elements(range(1, 34))
        assert witness.conditional_mean == Fraction(673319, 1000) and witness.feasible


_PLANTERS = {"clique": variational._clique, "hub": variational._hub}


class TestClassSumMeans:
    """The clique and hub means, summed over the planted graph's vertex
    classes, equal the copy oracle and the kernel; E[X], the one-class
    case, equals the kernel's mean."""

    @settings(max_examples=80, deadline=None)
    @given(pattern=st.sampled_from(["Bw", "C~", "Cl", "Dhc", "EFz_", "EhEG", "K5"]),
           n=st.integers(2, 12),
           p=st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
           delta=st.fractions(Fraction(1, 5), 3, max_denominator=1000),
           kind=st.sampled_from(["clique", "hub"]))
    def test_equals_the_copy_oracle(self, pattern, n, p, delta, kind):
        graph = complete_graph(5) if pattern == "K5" else parse_graph6(pattern)
        model = SubgraphModel(graph, n, p)
        try:
            planted = _PLANTERS[kind](model, delta)
        except InfeasibleConstructionError:
            return
        mean = variational._Blowup((n,), frozenset()).mean(model)
        assert mean == model_mean(model)
        assert planted.mean(model) == conditional_expectation_subgraph(model, planted.graph)
        witness = build_construction(kind, model, delta)
        assert witness.payload == planted.graph
        assert witness.conditional_mean == planted.mean(model)
        assert witness.feasible == (witness.conditional_mean >= (1 + delta) * mean)

    @pytest.fixture
    def fresh_cache(self):
        """Drops the kernel's tables after the test: the largest is 100 MB."""
        yield
        models.compile_model.cache_clear()

    @pytest.mark.parametrize("kind", ["clique", "hub"])
    @pytest.mark.parametrize("r, n, p", [(3, 70, Fraction(1, 10)), (3, 100, Fraction(1, 10)),
                                         (4, 20, Fraction(1, 4)), (4, 40, Fraction(1, 4)),
                                         (5, 25, Fraction(1, 2))])
    def test_equals_the_kernel(self, r, n, p, kind, fresh_cache):
        model = SubgraphModel(complete_graph(r), n, p)
        witness = build_construction(kind, model, 1)
        assert witness.payload.num_edges > 0
        expected = models.conditional_mean_given_mask(model, model.to_mask(witness.payload))
        assert witness.conditional_mean == expected
        assert witness.feasible == (expected >= 2 * model_mean(model))

    def test_builds_no_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a clique or hub construction must not reach this")

        monkeypatch.setattr(models, "compile_model", refuse)
        monkeypatch.setattr(variational, "compile_model", refuse)
        monkeypatch.setattr(graphs, "edge_index_map", refuse)
        n, p = 1000, Fraction(1, 10)
        witness = build_construction("hub", SubgraphModel(complete_graph(3), n, p), 1)
        # E[triangles | G0] = p^3 [C(n,3) + r e (n-2) + r^2 (cherries) + r^3 t],
        # r = (1-p)/p, by expanding each present edge's 1/p as 1 + r
        host = witness.payload
        cherries = sum(math.comb(d, 2) for d in host.degrees())
        t = sum((host.adjacency[u] & host.adjacency[v]).bit_count() for u, v in host.edges) // 3
        r = (1 - p) / p
        expected = p ** 3 * (math.comb(n, 3) + r * host.num_edges * (n - 2)
                             + r ** 2 * cherries + r ** 3 * t)
        assert witness.conditional_mean == expected == Fraction(166163787, 500)
        assert witness.log_cost == host.num_edges * math.log(10)
        assert not witness.feasible


class TestBruteForce:
    def test_triangles_two_edges(self):
        model = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))
        witness = min_conditioning_witness(model, 0.9)
        assert witness.payload.num_edges == 2
        assert math.isclose(witness.log_cost, 2 * math.log(2))
        # one edge is not enough
        for e in complete_graph(4).edges:
            single = conditional_expectation_subgraph(model, Graph(4, frozenset({e})))
            assert single < Fraction(19, 10) * Fraction(1, 2)

    def test_delta_zero_empty(self):
        model = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))
        witness = min_conditioning_witness(model, 0.0)
        assert witness.payload.num_edges == 0 and witness.log_cost == 0

    def test_ap_example(self):
        model = ApModel(5, 3, Fraction(1, 2))
        witness = min_conditioning_witness(model, 3.0)
        assert witness.payload.elements() == [1, 2, 3]
        assert math.isclose(witness.log_cost, 3 * math.log(2))
        assert conditional_expectation_ap(model, witness.payload) == Fraction(9, 4)

    def test_infeasible_is_infinite(self):
        model = ApModel(5, 3, Fraction(1, 2))
        witness = min_conditioning_witness(model, 100.0)
        assert witness.log_cost == math.inf and not witness.feasible

    def test_budget_error(self):
        model = ApModel(14, 3, Fraction(1, 100))
        with pytest.raises(BudgetExceededError):
            min_conditioning_witness(model, 1e9, budget=100)

    def test_minimality_against_exhaustive(self):
        rng = random.Random(9)
        for _ in range(10):
            model = ApModel(rng.randint(4, 7), 3, Fraction(1, 2))
            delta = rng.uniform(0.3, 4)
            witness = min_conditioning_witness(model, delta)
            threshold = (1 + Fraction(delta)) * model_mean(model)
            best = None
            for mask in range(1 << model.N):
                if conditional_expectation_ap(model, IntegerSet(mask)) >= threshold:
                    size = bin(mask).count("1")
                    if best is None or size < best:
                        best = size
            if best is None:
                assert witness.log_cost == math.inf
            else:
                assert len(witness.payload) == best


class TestSubcube:
    def test_monotone_matches_subset_solver(self):
        model = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))
        for delta in (0.3, 0.9, 2.0):
            cube = min_subcube_witness(model, delta)
            flat = min_conditioning_witness(model, delta)
            assert math.isclose(cube.log_cost, flat.log_cost)
            ones, zeros = cube.payload
            assert zeros.mask == 0

    def test_subcube_dominates_subset(self):
        rng = random.Random(21)
        for _ in range(6):
            model = ApModel(rng.randint(4, 6), 3, Fraction(1, 3))
            delta = rng.uniform(0.3, 3)
            cube = min_subcube_witness(model, delta)
            flat = min_conditioning_witness(model, delta)
            assert cube.log_cost <= flat.log_cost + 1e-12

    def test_induced_path_mixed_witness(self):
        model = InducedSubgraphModel(path_graph(3), 4, Fraction(2, 3))
        witness = min_subcube_witness(model, 0.1)
        ones, zeros = witness.payload
        assert len(ones) == 1 and len(zeros) == 1
        assert witness.conditional_mean == 2
        # independent recheck of optimality: scan all subcubes directly,
        # with the slow Fraction loop the kernel replaced
        n = model.ground_size
        threshold = (1 + Fraction(1, 10)) * model_mean(model)
        best = math.inf
        for support in range(1 << n):
            sub = support
            while True:
                ones_m, zeros_m = sub, support & ~sub
                cost = bin(ones_m).count("1") * math.log(3) + \
                    bin(zeros_m).count("1") * math.log(3 / 2)
                if cost < best and conditional_mean_given_subcube(
                        model, ones_m, zeros_m) >= threshold:
                    best = cost
                if sub == 0:
                    break
                sub = (sub - 1) & support
        assert math.isclose(witness.log_cost, best)

    def test_infeasible(self):
        model = InducedSubgraphModel(path_graph(3), 4, Fraction(1, 2))
        witness = min_subcube_witness(model, 100.0)
        assert witness.log_cost == math.inf


def _classes(n):
    return [(i, j) for i in range(n + 1) for j in range(n + 1 - i)]


class TestCostRanks:
    """The subcube solver's exact cost classes."""

    def test_half_ranks_by_fixed_coordinates(self):
        # at p = 1/2 every coordinate fixed costs a factor 2, either way
        ranks = variational._cost_ranks(Fraction(1, 2), 6, 3 ** 6)
        for i, j in _classes(6):
            assert ranks[i, j] == i + j

    @pytest.mark.parametrize("budget, most_fixed", [(0, 0), (1, 0), (2001, 1), (2002, 2)])
    def test_table_stops_where_the_budget_does(self, budget, most_fixed):
        # the empty subcube, then 2 * 1000 subcubes with one coordinate fixed
        ranks = variational._cost_ranks(Fraction(1, 10), 1000, budget)
        assert ranks.shape == (most_fixed + 1, most_fixed + 1)

    def test_two_thirds_ranks_all_differ(self):
        ranks = variational._cost_ranks(Fraction(2, 3), 6, 3 ** 6)
        assert sorted(ranks[i, j] for i, j in _classes(6)) == list(range(len(_classes(6))))

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(2, 3), Fraction(1, 4),
                                   Fraction(3, 4), Fraction(1, 10), Fraction(9, 10)])
    def test_order_is_the_fraction_cost_order(self, p):
        n = 7
        ranks = variational._cost_ranks(p, n, 3 ** n)
        cost = {(i, j): 1 / (p ** i * (1 - p) ** j) for i, j in _classes(n)}
        for left in _classes(n):
            for right in _classes(n):
                assert (ranks[left] < ranks[right]) == (cost[left] < cost[right])
                assert (ranks[left] == ranks[right]) == (cost[left] == cost[right])


class TestTailUpperBound:
    def test_triangle_instance(self):
        model = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))
        phi = min_conditioning_witness(model, 1.0 + 0.9).log_cost
        bound = tail_log_upper_bound(model, 1.0, 0.9, phi)
        exact = -math.log(23 / 64)
        assert bound >= exact

    def test_infeasible_passthrough(self):
        model = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))
        assert tail_log_upper_bound(model, 1.0, 0.9, math.inf) == math.inf

    def test_degenerate_warning(self):
        model = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))
        with pytest.warns(RuntimeWarning):
            tail_log_upper_bound(model, 1.0, 50.0, 1.0)

    def test_warning_starts_exactly_at_eps_p_to_the_degree_one(self):
        # triangles at p = 1/2: the count is at most 8 E[X]
        model = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))
        with pytest.warns(RuntimeWarning):
            tail_log_upper_bound(model, 1.0, 8.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail_log_upper_bound(model, 1.0, math.nextafter(8.0, 0), 1.0)

    @pytest.mark.parametrize("model", [
        SubgraphModel(complete_graph(3), 4, Fraction(1, 2)),
        SubgraphModel(complete_graph(3), 6, Fraction(1, 10)),
        SubgraphModel(complete_graph(4), 5, Fraction(2, 3)),
        SubgraphModel(cycle_graph(4), 5, Fraction(1, 3)),
        SubgraphModel(path_graph(3), 5, Fraction(1, 4)),
        ApModel(10, 3, Fraction(1, 3)),
        ApModel(12, 4, Fraction(1, 2)),
        ApModel(20, 3, Fraction(1, 10)),
    ], ids=lambda model: f"{type(model).__name__}-D{model.degree}-p{model.p}")
    def test_closed_form_is_the_monomial_count_over_eps_mean(self, model):
        # every monomial has D coordinates, so the count's maximum is exactly p^-D E[X]
        ceiling = len(models.compile_model(model).present)
        mean = model_mean(model)
        assert ceiling == mean / model.p ** model.degree
        bound = tail_log_upper_bound(model, 1.0, 0.25, 2.0)
        assert math.isclose(bound, 2.0 + math.log(ceiling / (0.25 * float(mean))))

    def test_reads_no_compiled_model(self, monkeypatch):
        def refuse(model):
            raise AssertionError("the tail bound compiled the model")

        monkeypatch.setattr(models, "compile_model", refuse)
        monkeypatch.setattr(variational, "compile_model", refuse)
        # the closed form equals the monomial count over eps E[X] here
        model = SubgraphModel(complete_graph(3), 100, Fraction(1, 10))
        assert tail_log_upper_bound(model, 1, 0.5, 1.0) == 8.600902459542082
