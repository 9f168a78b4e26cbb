import json
import random
from decimal import Context, Decimal
from fractions import Fraction
from itertools import combinations

import pytest

from uptail.aps import ApModel, IntegerSet, conditional_expectation_ap
from uptail.cores import (
    PASSES_BITS,
    CoreParams,
    _stability_bound,
    _within_stability_bound,
    classify_core_edges,
    enumerate_cores,
    extract_core,
    logs_below_zero,
)
from uptail.graphs import (
    Graph,
    SubgraphModel,
    complete_graph,
)
from uptail.models import model_mean
from uptail.variational import BudgetExceededError

import oracles
from oracles import conditional_expectation_subgraph, is_core, item_gains


TRIANGLE = Graph(4, frozenset({(0, 1), (0, 2), (1, 2)}))


def _cond_mean(model, conditioning):
    if isinstance(conditioning, IntegerSet):
        return conditional_expectation_ap(model, conditioning)
    return conditional_expectation_subgraph(model, conditioning)


class TestIsCore:
    def setup_method(self):
        self.model = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))
        self.params = CoreParams(model=self.model, delta=1.0, eps=0.2, K=10.0,
                                 phi_plus=2.0)

    def test_empty_fails_bias(self):
        check = is_core(self.params, Graph(4))
        assert not check.bias_ok and not check.is_core

    def test_triangle_bias_holds(self):
        check = is_core(self.params, TRIANGLE)
        assert check.bias_ok

    def test_pendant_gain_failure(self):
        # a strict gain floor exposes the pendant edge
        params = CoreParams(model=self.model, delta=1.0, eps=0.2, K=1.0,
                            phi_plus=0.8)
        with_pendant = Graph(4, TRIANGLE.edges | {(0, 3)})
        gains = item_gains(self.model, with_pendant)
        floor = model_mean(self.model) / Fraction(4, 5)
        assert gains[(0, 3)] < floor  # 1/2 < 5/8
        assert not is_core(params, with_pendant).gain_ok

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CoreParams(model=self.model, delta=1.0, eps=0.7, K=1.0, phi_plus=1.0)
        with pytest.raises(ValueError):
            CoreParams(model=self.model, delta=1.0, eps=0.1, K=-1.0, phi_plus=1.0)


class TestExtractCore:
    def setup_method(self):
        self.model = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))

    def test_zero_slack_keeps_everything(self):
        g = Graph(4, TRIANGLE.edges | {(0, 3)})
        assert extract_core(self.model, g, 0) == g

    def test_pendant_removed(self):
        g = Graph(4, TRIANGLE.edges | {(0, 3)})
        core = extract_core(self.model, g, Fraction(5, 2))
        assert core.edges == TRIANGLE.edges

    def test_empty_input(self):
        assert extract_core(self.model, Graph(4), 1).num_edges == 0

    def test_postconditions_random(self):
        rng = random.Random(1234)
        passed = 0
        while passed < 200:
            if rng.random() < 0.5:
                n = rng.randint(4, 5)
                model = SubgraphModel(complete_graph(3), n,
                                      Fraction(rng.randint(1, 3), 4))
                pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
                chosen = frozenset(e for e in pairs if rng.random() < 0.5)
                conditioning = Graph(n, chosen)
                size = len(chosen)
            else:
                n = rng.randint(4, 10)
                model = ApModel(n, rng.choice([3, 4]), Fraction(rng.randint(1, 3), 4))
                conditioning = IntegerSet(rng.getrandbits(n))
                size = len(conditioning)
            if size == 0:
                continue
            s = Fraction(rng.randint(0, 8), rng.randint(1, 4))
            core = extract_core(model, conditioning, s)
            # (i) total loss at most s
            assert _cond_mean(model, core) >= _cond_mean(model, conditioning) - s
            # (ii) every remaining gain clears s / original size
            gains = item_gains(model, core)
            assert all(g >= s / size for g in gains.values())
            passed += 1


class TestEnumerateCores:
    def setup_method(self):
        self.model = SubgraphModel(complete_graph(3), 5, Fraction(1, 4))
        self.params = CoreParams(model=self.model, delta=1.0, eps=0.2, K=20.0,
                                 phi_plus=3.0)

    def test_all_witnesses_are_cores(self):
        report = enumerate_cores(self.params, 3)
        for witness in report.witnesses:
            assert is_core(self.params, witness).is_core

    def test_non_witnesses_fail(self):
        report = enumerate_cores(self.params, 2)
        found = {self.model.to_mask(w) for w in report.witnesses}
        for mask in oracles.masks_by_size(10, 2):
            conditioning = self.model.from_mask(mask)
            check = is_core(self.params, conditioning)
            assert check.is_core == (mask in found)

    def test_independent_recount_matches(self):
        report = enumerate_cores(self.params, 3)
        masks = (sum(1 << i for i in chosen) for chosen in combinations(range(10), 3))
        recount = sorted(mask for mask in masks
                         if is_core(self.params, self.model.from_mask(mask)).is_core)
        assert recount and recount == list(report.masks)

    def test_size_cap_gives_zero(self):
        params = CoreParams(model=self.model, delta=1.0, eps=0.2, K=1.0,
                            phi_plus=2.5)
        assert enumerate_cores(params, 3).count == 0

    def test_impossible_bias_gives_zero(self):
        params = CoreParams(model=self.model, delta=400.0, eps=0.2, K=20.0,
                            phi_plus=3.0)
        for m in (1, 2, 3):
            assert enumerate_cores(params, m).count == 0

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_cores(self.params, 5, budget=10)

    def test_report_json(self):
        report = enumerate_cores(self.params, 2)
        data = json.loads(report.to_json())
        assert data["size"] == 2 and data["count"] == len(data["witnesses"])
        # each witness is encoded from its mask as its sorted edge list
        assert data["witnesses"] == [sorted(map(list, w.edges)) for w in report.witnesses]

    def test_ap_report_json(self):
        model = ApModel(9, 3, Fraction(1, 3))
        params = CoreParams(model=model, delta=1.0, eps=0.2, K=20.0, phi_plus=3.0)
        report = enumerate_cores(params, 3)
        assert report.count > 0
        data = json.loads(report.to_json())
        assert data["witnesses"] == [w.elements() for w in report.witnesses]


class TestSeedToCore:
    def test_every_seed_contains_a_core(self):
        # seeds: biased (1+delta-eps) sets of bounded size; after peeling with
        # slack eps E[X], the result must satisfy the bias and gain conditions
        delta, eps = 1.0, 0.2
        for n, p in [(4, Fraction(1, 2)), (5, Fraction(1, 4)), (5, Fraction(1, 2))]:
            model = SubgraphModel(complete_graph(3), n, p)
            mean = model_mean(model)
            seed_floor = (1 + Fraction(delta) - Fraction(eps)) * mean
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            seeds = 0
            for mask in range(1 << len(pairs)):
                g = Graph(n, frozenset(pairs[i] for i in range(len(pairs))
                                       if mask >> i & 1))
                if conditional_expectation_subgraph(model, g) < seed_floor:
                    continue
                seeds += 1
                slack = Fraction(eps) * mean
                core = extract_core(model, g, slack)
                lhs = conditional_expectation_subgraph(model, core)
                assert lhs >= (1 + Fraction(delta) - 2 * Fraction(eps)) * mean
                size = max(g.num_edges, 1)
                assert all(gain >= slack / size
                           for gain in item_gains(model, core).values())
            assert seeds > 0


class TestClassifyCoreEdges:
    def setup_method(self):
        self.model = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))

    def test_k4(self):
        result = classify_core_edges(self.model, complete_graph(4))
        for record in result.values():
            assert (record.closing, record.one_sided, record.isolated) == (2, 0, 0)

    def test_single_edge(self):
        result = classify_core_edges(self.model, Graph(4, frozenset({(0, 1)})))
        record = result[(0, 1)]
        assert (record.closing, record.one_sided, record.isolated) == (0, 0, 2)

    def test_triangle(self):
        result = classify_core_edges(self.model, TRIANGLE)
        for record in result.values():
            assert (record.closing, record.one_sided, record.isolated) == (1, 0, 1)

    def test_decomposition_matches_exact_gain(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(4, 6)
            model = SubgraphModel(complete_graph(3), n, Fraction(rng.randint(1, 4), 5))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = Graph(n, frozenset(e for e in pairs if rng.random() < 0.5))
            if g.num_edges == 0:
                continue
            gains = item_gains(model, g)
            for edge, record in classify_core_edges(model, g).items():
                assert record.gain == gains[edge]
                assert record.closing + record.one_sided + record.isolated == n - 2

    def test_rejects_non_triangle_model(self):
        model = SubgraphModel(complete_graph(4), 5, Fraction(1, 2))
        with pytest.raises(ValueError):
            classify_core_edges(model, complete_graph(4))


class TestPassesIsExact:
    """count <= (1/p)^{eps m/2}, decided without rounding."""

    def test_a_rational_power_at_equality(self):
        # 8^{2/3} = 4 exactly; the float bound reads 3.9999999999999996
        model = ApModel(5, 3, Fraction(1, 8))
        assert _stability_bound(model, Fraction(1, 3), 4) < 4
        assert _within_stability_bound(4, Fraction(1, 8), Fraction(1, 3), 4)
        assert not _within_stability_bound(5, Fraction(1, 8), Fraction(1, 3), 4)

    def test_float_eps_is_its_binary_value(self):
        # the double 0.3 lies below 3/10, so 2^{0.3 * 20/2} falls short of 8,
        # while the float bound rounds to 8.0
        assert float(Fraction(1, 2) ** -1) ** (0.3 * 20 / 2) == 8.0
        assert not _within_stability_bound(8, Fraction(1, 2), 0.3, 20)
        assert _within_stability_bound(7, Fraction(1, 2), 0.3, 20)
        # the double 0.1 lies above 1/10: 2^{0.1 * 10} is a hair past 2
        assert _within_stability_bound(2, Fraction(1, 2), 0.1, 20)
        assert not _within_stability_bound(3, Fraction(1, 2), 0.1, 20)

    @pytest.mark.parametrize("count", [0, 1])
    def test_at_most_one_always_passes(self, count):
        assert _within_stability_bound(count, Fraction(1, 3), 0.2, 0)

    def test_unordered_past_the_size_limit(self):
        # (2^v)^{1/v} = 2 exactly, with v past the size limit: the two sides
        # are equal, so no precision orders them
        v = PASSES_BITS + 1
        with pytest.raises(BudgetExceededError, match="not ordered"):
            _within_stability_bound(2, Fraction(1, 2 ** v), Fraction(1, v), 2)
        assert not _within_stability_bound(3, Fraction(1, 2 ** v), Fraction(1, v), 2)

    @pytest.mark.parametrize("offset, below", [(Fraction(1, 10 ** 45), False),
                                               (Fraction(-1, 10 ** 45), True)])
    def test_logs_ordered_past_the_first_precision(self, offset, below):
        # ln 1 - ln 2 + x for x within 1e-45 of ln 2: 40 digits cannot order it
        ln2 = Fraction(Decimal(2).ln(Context(prec=120)))
        assert logs_below_zero([(1, 1), (-1, 2)], ln2 + offset, "x and ln 2") == below

    def test_logs_at_a_tie_are_unordered(self):
        with pytest.raises(BudgetExceededError, match="ln 4 and 2 ln 2 are not ordered"):
            logs_below_zero([(1, 4), (-2, 2)], 0, "ln 4 and 2 ln 2")

    def test_census_uses_the_exact_test(self):
        model = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))
        params = CoreParams(model=model, delta=1.0, eps=0.2, K=20.0, phi_plus=3.0)
        for m in range(1, 5):
            report = enumerate_cores(params, m)
            assert report.passes == _within_stability_bound(report.count, Fraction(1, 2), 0.2, m)
