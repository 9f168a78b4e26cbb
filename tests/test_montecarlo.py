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
    CHUNK,
    DRAW_ROWS,
    McConfig,
    _chunk_values,
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
import oracles

TRI4 = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))

AP40 = ApModel(40, 3, Fraction(1, 5))
# (model, plant): triangles at n = 12 have 66 coordinates, two words; the
# last case plants every element, 380 progressions present in each row
KERNEL_B_CASES = [
    (SubgraphModel(complete_graph(3), 8, Fraction(1, 2)), None),
    (SubgraphModel(complete_graph(3), 8, Fraction(1, 2)), Graph(8, frozenset({(0, 1), (1, 2)}))),
    (SubgraphModel(complete_graph(4), 9, Fraction(1, 3)), None),
    (SubgraphModel(complete_graph(4), 9, Fraction(1, 3)), Graph(9, frozenset({(2, 7)}))),
    (SubgraphModel(complete_graph(3), 12, Fraction(1, 4)), None),
    (SubgraphModel(complete_graph(3), 12, Fraction(1, 4)), Graph(12, frozenset({(0, 1), (10, 11)}))),
    (AP40, None),
    (AP40, IntegerSet.from_elements([1, 2, 40])),
    (AP40, IntegerSet.from_elements(range(1, 41))),
]


def _plant_bits(model, plant):
    return 0 if plant is None else model.to_mask(plant)


class TestKernelB:
    """The byte-row chunk evaluator against the ``.all(axis=1)`` oracle."""

    @pytest.mark.parametrize("count", [1, 7, CHUNK])
    @pytest.mark.parametrize("model,plant", KERNEL_B_CASES)
    def test_chunk_values_match_oracle(self, model, plant, count):
        bits = _plant_bits(model, plant)
        values = _chunk_values(model, bits, 11, 5, count)
        expected = oracles.chunk_values(model, bits, 11, 5, count)
        assert values.dtype == expected.dtype and (values == expected).all()

    @pytest.mark.parametrize("seed, chunk_index, count", [
        (11, 5, DRAW_ROWS - 1), (11, 5, DRAW_ROWS + 1),
        *((2 ** 64 + 3, 0, count) for count in (1, DRAW_ROWS - 1, DRAW_ROWS + 1, CHUNK)),
    ])
    @pytest.mark.parametrize("model,plant", KERNEL_B_CASES)
    def test_chunk_values_across_draw_blocks(self, model, plant, seed, chunk_index, count):
        # the sampler compares raw words in blocks of DRAW_ROWS samples; the
        # oracle draws the whole chunk as floats and compares them with p
        bits = _plant_bits(model, plant)
        values = _chunk_values(model, bits, seed, chunk_index, count)
        expected = oracles.chunk_values(model, bits, seed, chunk_index, count)
        assert values.dtype == expected.dtype and (values == expected).all()

    @pytest.mark.parametrize("p", [Fraction(1, 10 ** 400), Fraction(10 ** 20 - 1, 10 ** 20)],
                             ids=["p-rounds-to-0", "p-rounds-to-1"])
    def test_chunk_values_where_p_rounds_to_0_or_1(self, p):
        model = ApModel(5, 3, p)
        values = _chunk_values(model, 0, 3, 1, 100)
        assert (values == oracles.chunk_values(model, 0, 3, 1, 100)).all()
        assert set(values.tolist()) == {0 if p < Fraction(1, 2) else 4}

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("model,plant", KERNEL_B_CASES)
    def test_hits_match_oracle(self, model, plant, threads, monkeypatch):
        monkeypatch.setenv("UPTAIL_THREADS", threads)
        samples, seed = 2 * CHUNK + 7, 4
        bits = _plant_bits(model, plant)
        values = [oracles.chunk_values(model, bits, seed, i, min(CHUNK, samples - i * CHUNK))
                  for i in range(3)]
        target = 2 * oracles.model_mean(model)
        hits = sum(int((v >= math.ceil(target)).sum()) for v in values)
        estimate = sample_tail(McConfig(model=model, delta=1.0, samples=samples,
                                        seed=seed, plant=plant))
        assert estimate.hits == hits


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

    @pytest.mark.parametrize("model", [
        SubgraphModel(complete_graph(3), 2, Fraction(1, 2)),
        SubgraphModel(complete_graph(3), 1, Fraction(1, 2)),
        ApModel(2, 3, Fraction(1, 2)),
    ], ids=["triangles-n2", "triangles-n1", "ap-N2-k3"])
    def test_empty_table_reaches_the_tail_on_every_sample(self, model, monkeypatch):
        # X = 0 = (1+delta) E[X] on every outcome, as the exact pmf {0: 1} says
        monkeypatch.setenv("UPTAIL_THREADS", "2")
        estimate = sample_tail(McConfig(model=model, delta=1.0, samples=CHUNK + 10, seed=1))
        assert (estimate.hits, estimate.p_hat) == (CHUNK + 10, 1.0)
        assert exact_distribution(model).pmf == {0: 1}

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


    def test_size_floor_is_compared_exactly(self):
        # the floor (1 - 1/2) 27^(1/3) 8 (1/4) is exactly 3; in floats
        # 27 ** (1/3) is 3.0000000000000004 and the triangle fell short
        host = Graph(8, complete_graph(3).edges)
        args = (Fraction(1, 2), 27, Fraction(1, 4))
        assert detect_clique_event(host, *args, r=3) == (0, 1, 2)
        assert verify_clique_event(host, (0, 1, 2), *args, 3)
        assert detect_clique_event(host, Fraction(1, 2), 27 + Fraction(1, 10 ** 9),
                                   Fraction(1, 4), r=3) is None

    def test_order_below_two_is_refused(self):
        with pytest.raises(ValueError, match="r must be at least 2"):
            detect_clique_event(complete_graph(4), 0.3, 1.0, 0.5, r=1)

    @pytest.mark.parametrize("p", [0, 1, -1, Fraction(3, 2)])
    def test_p_outside_the_unit_interval_is_refused(self, p):
        # at p = 0 the hub event held on a single vertex
        with pytest.raises(ValueError, match=r"p must lie in \(0,1\)"):
            detect_hub_event(complete_graph(8), 0.1, 1, p, 3)
        with pytest.raises(ValueError, match=r"p must lie in \(0,1\)"):
            verify_clique_event(complete_graph(8), (0, 1, 2), 0.1, 1, p, 3)


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


    def test_quota_is_decided_exactly(self):
        # floor((1 - 9/10) * 10) is 1, and no vertex of the matching has
        # degree (1 - 9/10) * 30 = 3; the float quota floored to 0
        matching = Graph(30, frozenset((i, i + 15) for i in range(15)))
        args = (Fraction(9, 10), Fraction(124, 100), Fraction(1, 2), 3)
        assert detect_hub_event(matching, *args) is None
        assert not verify_hub_event(matching, tuple(range(10)), *args)

    def test_cut_floor_is_compared_exactly(self):
        # the centre of a 10-leaf star on 11 vertices crosses 10 edges; at
        # l = x n p^2 / 3 = 1 + 81/121 the cut floor (1/2) 11 (1 + (9/11)) is
        # exactly 10, and any larger x asks for more
        star = Graph(11, frozenset((0, i) for i in range(1, 11)))
        x = Fraction(2424, 1331)
        assert verify_hub_event(star, (0,), Fraction(1, 2), x, Fraction(1, 2), 3)
        assert detect_hub_event(star, Fraction(1, 2), x, Fraction(1, 2), 3) == (0,)
        assert not verify_hub_event(star, (0,), Fraction(1, 2), x + Fraction(1, 10 ** 12),
                                    Fraction(1, 2), 3)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(model=TRI4, delta=1.0, samples=0, seed=1)
