"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from uptail.aps import ApModel, IntegerSet, extremal_ap_count, progression_masks
from uptail.bounds import bruteforce_alpha_halves, fractional_independence, run_bound_battery
from uptail.cores import CoreParams, enumerate_cores, extract_core
from uptail.graphs import (
    Graph,
    SubgraphModel,
    complete_graph,
)
from uptail.models import model_mean, row_masks
from uptail.moments import (
    exact_distribution,
    factorial_moments,
    factorial_moments_from_dist,
    poisson_markov_bounds,
    stability_inequality_check,
)
from uptail.montecarlo import McConfig, sample_tail
from uptail.variational import (
    InfeasibleConstructionError,
    build_construction,
    clique_hub_crossover,
    min_conditioning_witness,
    min_planting_cost,
)

from conftest import random_graph
from oracles import conditional_expectation_subgraph, is_core, item_gains, mixture_cost_grid


def _report(number, label, detail, started):
    print(f"ACCEPTANCE {number:>2} PASS  {label}: {detail}  "
          f"[{time.time() - started:.2f}s]")


def test_criterion_01_extremal_ap_exhaustive():
    started = time.time()
    n = 16
    outcomes = np.arange(1 << n, dtype=np.uint32)
    sizes = np.bitwise_count(outcomes)
    violations = 0
    for k in (3, 4):
        table = np.array([extremal_ap_count(m, k) for m in range(n + 1)])
        counts = np.zeros(1 << n, dtype=np.int32)
        for mask in row_masks(progression_masks(n, k)):
            counts[(outcomes & np.uint32(mask)) == mask] += 1
        violations += int((counts > table[sizes]).sum())
    elapsed = time.time() - started
    assert violations == 0
    assert elapsed < 120
    _report(1, "extremal AP inequality", f"2x{1 << n} subsets, 0 violations", started)


def test_criterion_02_planting_cost_grid_agreement():
    started = time.time()
    xs = np.linspace(0.0, 1.0, 100_000)
    deltas = np.linspace(0.05, 5.0, 100)
    cs = np.linspace(0.1, 10.0, 100)
    chunklen = 25
    worst = 0.0

    def fourth_root(a, out):
        return np.sqrt(np.sqrt(a, out=out), out=out)

    def sqrt_out(a, out):
        return np.sqrt(a, out=out)

    def cbrt_out(a, out):
        return np.cbrt(a, out=out)

    roots = {3: sqrt_out, 4: cbrt_out, 5: fourth_root}
    buf_t = np.empty((chunklen, xs.size))
    buf_fl = np.empty_like(buf_t)
    for r in (3, 4, 5):
        pre = (1 - xs) ** (2 / r)
        root = roots[r]
        for c in cs:
            t_base = xs * (float(c) / r)
            for lo in range(0, deltas.size, chunklen):
                chunk = deltas[lo:lo + chunklen]
                t = np.multiply.outer(chunk, t_base, out=buf_t[:chunk.size])
                fl = np.floor(t, out=buf_fl[:chunk.size])
                frac = np.subtract(t, fl, out=t)
                rooted = root(frac, out=frac)
                hub_term = np.add(fl, rooted, out=fl)
                hub_term *= 1.0 / float(c)
                psi = np.add(np.multiply.outer(chunk ** (2 / r) / 2, pre), hub_term,
                             out=hub_term)
                grid_mins = psi.min(axis=1)
                for delta, raw_min in zip(chunk, grid_mins):
                    best = min_planting_cost(r, float(delta), float(c))
                    candidates = [0.0, 1.0]
                    if best.mix_point is not None:
                        candidates.append(best.mix_point)
                    grid_min = min(float(raw_min),
                                   float(mixture_cost_grid(r, float(delta), float(c),
                                                           candidates).min()))
                    gap = abs(best.phi - grid_min)
                    worst = max(worst, gap)
                    assert gap <= 1e-9, (r, delta, c, gap)
    elapsed = time.time() - started
    assert elapsed < 60
    _report(2, "closed form vs psi grid", f"r in 3..5, worst gap {worst:.2e}", started)


def test_criterion_03_crossover_constant():
    started = time.time()
    root = clique_hub_crossover(3)
    assert abs(root - 3.375) <= 1e-9
    _report(3, "clique/hub crossover", f"delta* = {root:.12f}", started)


def test_criterion_04_exact_oracle():
    started = time.time()
    model = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))
    dist = exact_distribution(model)
    assert dist.tail_at_least(1) == Fraction(23, 64)
    moments = factorial_moments(model, 2)
    assert moments.from_dist[2] == Fraction(3, 8)
    assert moments.from_tuples[2] == Fraction(3, 8)
    _report(4, "exact oracle", "P(X>=1)=23/64, M_2=3/8", started)


def test_criterion_05_markov_and_stability_exact():
    started = time.time()
    markov_checked = stability_checked = 0
    for n in (4, 5):
        for p in (Fraction(1, 4), Fraction(1, 2)):
            model = SubgraphModel(complete_graph(3), n, p)
            dist = exact_distribution(model)
            mean = model_mean(model)
            for delta in (0.5, 1.0, 2.0, 3.0):
                threshold = (1 + Fraction(delta)) * mean
                exact_tail = dist.tail_at_least(threshold)
                moments = factorial_moments_from_dist(dist, int(threshold))
                for bound in poisson_markov_bounds(threshold, moments):
                    markov_checked += 1
                    if exact_tail > 0:
                        assert bound <= -math.log(float(exact_tail)) + 1e-9
                    # a zero tail is consistent with any finite bound
                for eps in (0.1, 0.25, 0.45):
                    for ell in (1, 2, 3):
                        lhs, bound, holds, _ = stability_inequality_check(
                            model, delta, eps, ell)
                        stability_checked += 1
                        assert holds
    elapsed = time.time() - started
    assert elapsed < 300
    _report(5, "Markov/stability inequalities",
            f"{markov_checked} Markov + {stability_checked} stability checks, 0 violations",
            started)


def test_criterion_06_bound_suite_and_alpha():
    started = time.time()
    summary = run_bound_battery(1000, seed=20260809)
    assert summary["pairs"] == 1000 and summary["violations"] == 0
    checked = 0
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        halves = bruteforce_alpha_halves(n, range(1 << len(pairs)))
        for mask in range(1 << len(pairs)):
            g = Graph(n, frozenset(pairs[i] for i in range(len(pairs))
                                   if mask >> i & 1))
            assert fractional_independence(g) == Fraction(int(halves[mask]), 2)
            checked += 1
    rng = random.Random(606)
    for _ in range(500):
        g = random_graph(rng, 7)
        pairs = list(combinations(range(g.n), 2))
        mask = sum(1 << i for i, e in enumerate(pairs) if e in g.edges)
        halves = bruteforce_alpha_halves(g.n, [mask])
        assert fractional_independence(g) == Fraction(int(halves[0]), 2)
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 180
    _report(6, "bound suite + half-integral oracle",
            f"1000 bound pairs, {checked} alpha* agreements", started)


def test_criterion_07_core_machinery():
    started = time.time()
    rng = random.Random(707)
    done = 0
    while done < 200:
        if rng.random() < 0.5:
            n = rng.randint(4, 5)
            model = SubgraphModel(complete_graph(3), n, Fraction(rng.randint(1, 3), 4))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            conditioning = Graph(n, frozenset(e for e in pairs if rng.random() < 0.5))
            size = conditioning.num_edges
            cond_mean = lambda c: conditional_expectation_subgraph(model, c)
        else:
            n = rng.randint(5, 10)
            model = ApModel(n, rng.choice([3, 4]), Fraction(rng.randint(1, 3), 4))
            conditioning = IntegerSet(rng.getrandbits(n))
            size = len(conditioning)
            from uptail.aps import conditional_expectation_ap
            cond_mean = lambda c: conditional_expectation_ap(model, c)
        if size == 0:
            continue
        s = Fraction(rng.randint(0, 10), rng.randint(1, 5))
        core = extract_core(model, conditioning, s)
        assert cond_mean(core) >= cond_mean(conditioning) - s
        assert all(g >= s / size for g in item_gains(model, core).values())
        done += 1

    model = SubgraphModel(complete_graph(3), 6, Fraction(1, 4))
    params = CoreParams(model=model, delta=1.0, eps=0.2, K=25.0, phi_plus=4.0)
    total = 0
    for m in range(1, 5):
        first = enumerate_cores(params, m)
        masks = (sum(1 << i for i in chosen) for chosen in combinations(range(15), m))
        assert sorted(mask for mask in masks
                      if is_core(params, model.from_mask(mask)).is_core) == list(first.masks)
        total += first.count
    _report(7, "core machinery",
            f"200 peeling postconditions, recount of {total} cores matches", started)


def test_criterion_08_constructions_feasible_and_dominated():
    started = time.time()
    compared = 0
    for n in (4, 5):
        for p in (Fraction(1, 4), Fraction(1, 2)):
            model = SubgraphModel(complete_graph(3), n, p)
            mean = model_mean(model)
            for delta in (0.5, 1.0, 2.0):
                witnesses = []
                for kind in ("clique", "hub"):
                    try:
                        witnesses.append(build_construction(kind, model, delta))
                    except InfeasibleConstructionError:
                        continue
                solved = min_conditioning_witness(model, delta)
                for witness in witnesses:
                    lhs = conditional_expectation_subgraph(model, witness.payload)
                    assert witness.conditional_mean == lhs
                    assert witness.feasible == (lhs >= (1 + Fraction(delta)) * mean)
                    if witness.feasible:
                        assert solved.log_cost <= witness.log_cost + 1e-9
                        compared += 1
    for n in (8, 12):
        for p in (Fraction(1, 4), Fraction(1, 2)):
            model = ApModel(n, 3, p)
            mean = model_mean(model)
            for delta in (0.5, 1.0, 2.0):
                try:
                    witness = build_construction("interval", model, delta)
                except InfeasibleConstructionError:
                    continue
                from uptail.aps import conditional_expectation_ap
                lhs = conditional_expectation_ap(model, witness.payload)
                assert witness.conditional_mean == lhs
                assert witness.feasible == (lhs >= (1 + Fraction(delta)) * mean)
                if witness.feasible:
                    solved = min_conditioning_witness(model, delta)
                    assert solved.log_cost <= witness.log_cost + 1e-9
                    compared += 1
    assert compared > 0
    _report(8, "constructions feasible and dominated",
            f"{compared} feasible constructions dominated by the solver", started)


def test_criterion_09_monte_carlo_calibration():
    started = time.time()
    model = SubgraphModel(complete_graph(3), 4, Fraction(1, 2))
    estimate = sample_tail(McConfig(model=model, delta=1.0, samples=10 ** 6,
                                    seed=20260809))
    gap = abs(estimate.p_hat - 23 / 64)
    elapsed = time.time() - started
    assert gap <= 0.005
    assert elapsed < 60
    _report(9, "Monte Carlo calibration",
            f"1e6 samples, |p_hat - 23/64| = {gap:.2e}", started)
