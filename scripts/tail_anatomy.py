#!/usr/bin/env python3
"""Anatomy of the upper tail of a small counting model.

For each delta on a grid, compares:
  exact      -log P(X >= (1+delta)E[X]) from full enumeration
  markov     best factorial-moment lower bound over valid t
  plant      cost of the optimal conditioning set (brute force)
  plant+cor  plant + boundedness correction (an upper bound on exact)
  mc         seeded Monte Carlo estimate of the tail

markov <= exact and exact <= plant+cor are decided in rationals on every
row, and the script raises if either fails.

Usage: python tail_anatomy.py [--model triangles|ap] [--n 5] [--N 10]
                              [--p 1/4] [--samples 200000] [--quick]
"""

import argparse
import math
import sys
import time
from fractions import Fraction

from uptail.aps import ApModel
from uptail.graphs import SubgraphModel, complete_graph
from uptail.models import model_mean
from uptail.moments import exact_distribution, factorial_moments_from_dist, poisson_markov_bounds
from uptail.montecarlo import McConfig, sample_tail
from uptail.variational import min_conditioning_witness, tail_log_upper_bound


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--model", choices=["triangles", "ap"], default="triangles")
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--N", type=int, default=10)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--p", default="1/4")
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=20260809)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    p = Fraction(args.p)
    if args.model == "triangles":
        model = SubgraphModel(complete_graph(3), args.n, p)
        label = f"triangles n={args.n} p={p}"
    else:
        model = ApModel(args.N, args.k, p)
        label = f"{args.k}-APs N={args.N} p={p}"

    deltas = [0.5, 1.0, 2.0] if args.quick else [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0]
    t0 = time.time()
    dist = exact_distribution(model)
    mean = model_mean(model)
    print("=" * 72)
    print(f"  UPPER-TAIL ANATOMY: {label}   E[X] = {mean} = {float(mean):.4f}")
    print("=" * 72)
    print(f"  {'delta':>6} {'exact':>9} {'markov':>9} {'plant':>9} "
          f"{'plant+cor':>10} {'mc':>9} {'mc_hits':>8}")

    for delta in deltas:
        threshold = (1 + Fraction(delta)) * mean
        tail = dist.tail_at_least(threshold)
        exact = -math.log(float(tail)) if tail > 0 else math.inf

        t_cap = int(threshold)
        moments = factorial_moments_from_dist(dist, t_cap)
        markov = max(poisson_markov_bounds(threshold, moments), default=-math.inf)
        # markov <= exact, in rationals: tail * (x)_t <= M_t for each t
        falling = Fraction(1)
        for t in range(1, t_cap + 1):
            falling *= threshold - (t - 1)
            if tail * falling > moments[t]:
                raise AssertionError(f"moment bound at t={t} beats the exact tail "
                                     f"at delta={delta}")

        witness = min_conditioning_witness(model, delta)
        plant = witness.log_cost
        wide = min_conditioning_witness(model, delta * 1.5)
        corrected = tail_log_upper_bound(model, delta, delta / 2, wide.log_cost)
        # exact <= plant+cor, in rationals: tail >= eps p^(|I| + D), I the witness at 1.5 delta
        if wide.feasible:
            size = model.to_mask(wide.payload).bit_count()
            if tail < Fraction(delta / 2) * p ** (size + model.degree):
                raise AssertionError(f"the exact tail beats plant+cor at delta={delta}")

        est = sample_tail(McConfig(model=model, delta=delta,
                                   samples=args.samples, seed=args.seed))
        mc = -math.log(est.p_hat) if est.p_hat > 0 else math.inf

        def fmt(x):
            if math.isfinite(x):
                return f"{x:9.4f}"
            return f"{'-':>9}" if x < 0 else f"{'inf':>9}"

        print(f"  {delta:>6.2f} {fmt(exact)} {fmt(markov)} {fmt(plant)} "
              f"{fmt(corrected):>10} {fmt(mc)} {est.hits:>8}")

    print(f"\n  sanity: markov <= exact <= plant+cor on every row above")
    print(f"  total time: {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
