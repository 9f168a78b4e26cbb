import math
import os
from fractions import Fraction

import pytest

from uptail.aps import ApModel, IntegerSet
from uptail.graphs import (
    Graph,
    SubgraphModel,
    complete_graph,
    cycle_graph,
    star_graph,
)
from uptail.models import model_mean
from uptail.montecarlo import (
    McConfig,
    detect_clique_event,
    detect_hub_event,
    empirical_mean,
    sample_tail,
    verify_clique_event,
    verify_hub_event,
)
from uptail.moments import exact_distribution
from uptail.variational import build_construction

from conftest import random_graph

TRI4 = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))


class TestSampling:
    def test_determinism(self):
        cfg = McConfig(model=TRI4, delta=1.0, samples=50_000, seed=77)
        assert sample_tail(cfg) == sample_tail(cfg)

    def test_worker_count_invariance(self):
        cfg = McConfig(model=TRI4, delta=1.0, samples=120_000, seed=3)
        base = sample_tail(cfg)
        os.environ["UPTAIL_THREADS"] = "4"
        try:
            assert sample_tail(cfg) == base
        finally:
            del os.environ["UPTAIL_THREADS"]

    def test_unbiasedness_at_oracle_scale(self):
        instances = [
            (TRI4, 1.0),
            (SubgraphModel(complete_graph(3), 5, Fraction(1, 4)), 2.0),
            (ApModel(8, 3, Fraction(1, 2)), 1.0),
        ]
        for model, delta in instances:
            dist = exact_distribution(model)
            exact = float(dist.tail_at_least((1 + Fraction(delta)) * model_mean(model)))
            for seed in range(20):
                estimate = sample_tail(McConfig(model=model, delta=delta,
                                                samples=20_000, seed=seed))
                spread = max(estimate.stderr, 1e-4)
                assert abs(estimate.p_hat - exact) <= 4 * spread

    def test_plant_full_host(self):
        cfg = McConfig(model=TRI4, delta=1.0, samples=2_000, seed=5,
                       plant=complete_graph(4))
        assert sample_tail(cfg).p_hat == 1.0

    def test_plant_subset_for_ap_model(self):
        model = ApModel(6, 3, Fraction(1, 3))
        plant = IntegerSet.from_elements([1, 2, 3])
        cfg = McConfig(model=model, delta=0.5, samples=50_000, seed=11, plant=plant)
        estimate = sample_tail(cfg)
        assert 0 < estimate.p_hat <= 1

    def test_planted_mean_consistency(self):
        from oracles import conditional_expectation_subgraph
        plants = [Graph(4, frozenset({(0, 1)})),
                  Graph(4, frozenset({(0, 1), (2, 3)})),
                  complete_graph(4)]
        for seed, plant in enumerate(plants):
            exact = float(conditional_expectation_subgraph(TRI4, plant))
            mean, stderr = empirical_mean(McConfig(model=TRI4, delta=1.0,
                                                   samples=120_000, seed=seed,
                                                   plant=plant))
            assert abs(mean - exact) <= 4 * max(stderr, 1e-9)

    def test_estimate_json(self):
        import json
        estimate = sample_tail(McConfig(model=TRI4, delta=1.0, samples=100, seed=1))
        data = json.loads(estimate.to_json())
        assert data["samples"] == 100 and data["seed"] == 1
        assert data["hits"] == round(data["p_hat"] * 100)


class TestCliqueDetection:
    def test_vacuous_at_zero(self):
        assert detect_clique_event(complete_graph(5), 0.3, 0.0, 0.5) == ()

    def test_planted_clique_found(self):
        witness = detect_clique_event(complete_graph(8), 0.3, 1.0, 0.5, r=3)
        assert witness is not None
        assert verify_clique_event(complete_graph(8), witness, 0.3, 1.0, 0.5, 3)

    def test_empty_graph_fails(self):
        assert detect_clique_event(Graph(8), 0.3, 1.0, 0.5) is None

    def test_clique_with_noise(self):
        noise = frozenset({(8, 9), (9, 10), (10, 11)})
        host = Graph(12, complete_graph(8).edges | noise)
        witness = detect_clique_event(host, 0.25, 1.0, 0.5, r=3)
        assert witness is not None and set(witness) >= set(range(8))
        assert verify_clique_event(host, witness, 0.25, 1.0, 0.5, 3)

    def test_soundness_on_random_graphs(self, rng):
        for _ in range(40):
            host = random_graph(rng, 10)
            eps = rng.uniform(0.1, 0.6)
            x = rng.uniform(0.1, 2.0)
            p = rng.uniform(0.2, 0.8)
            witness = detect_clique_event(host, eps, x, p, r=3)
            if witness is not None:
                assert verify_clique_event(host, witness, eps, x, p, 3)


class TestHubDetection:
    def test_vacuous_at_zero(self):
        assert detect_hub_event(cycle_graph(12), 0.3, 0.0, 0.5, 3) == ()

    def test_planted_hub_found(self):
        model = SubgraphModel(complete_graph(3), 60, Fraction(1, 2))
        hub = build_construction("hub", model, 3.0)
        witness = detect_hub_event(hub.payload, 0.3, 3.0, 0.5, 3)
        assert witness is not None
        assert verify_hub_event(hub.payload, witness, 0.3, 3.0, 0.5, 3)

    def test_sparse_regular_graph_fails(self):
        assert detect_hub_event(cycle_graph(12), 0.3, 2.0, 0.5, 3) is None

    def test_star_is_a_hub(self):
        host = star_graph(30)
        # excess level chosen so the required cut is below 30 edges
        witness = detect_hub_event(host, 0.5, 0.4, 0.3, 3)
        if witness is not None:
            assert verify_hub_event(host, witness, 0.5, 0.4, 0.3, 3)

    def test_soundness_on_random_graphs(self, rng):
        for _ in range(40):
            host = random_graph(rng, 12)
            eps = rng.uniform(0.1, 0.6)
            x = rng.uniform(0.1, 2.0)
            p = rng.uniform(0.2, 0.8)
            witness = detect_hub_event(host, eps, x, p, 3)
            if witness is not None:
                assert verify_hub_event(host, witness, eps, x, p, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(model=TRI4, delta=1.0, samples=0, seed=1)
