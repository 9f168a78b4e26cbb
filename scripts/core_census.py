#!/usr/bin/env python3
"""Entropic-stability audit at enumerable scale.

Counts cores of each size for a small triangle or AP model against the
(1/p)^{eps m / 2} budget and prints the per-size verdicts, then shows the
per-edge gain decomposition for the largest core found (triangle models).

Usage: python core_census.py [--model triangles|ap] [--n 5] [--p 1/4]
                             [--delta 1.0] [--eps 0.2] [--K 20] [--phi-plus 3]
                             [--mmax 4]
"""

import argparse
import sys
import time
from fractions import Fraction

from uptail.aps import ApModel
from uptail.cores import CoreParams, classify_core_edges, enumerate_cores
from uptail.graphs import SubgraphModel, complete_graph


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--model", choices=["triangles", "ap"], default="triangles")
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--N", type=int, default=12)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--p", default="1/4")
    ap.add_argument("--delta", type=float, default=1.0)
    ap.add_argument("--eps", type=float, default=0.2)
    ap.add_argument("--K", type=float, default=20.0)
    ap.add_argument("--phi-plus", dest="phi_plus", type=float, default=3.0)
    ap.add_argument("--mmax", type=int, default=4)
    args = ap.parse_args()

    p = Fraction(args.p)
    if args.model == "triangles":
        model = SubgraphModel(complete_graph(3), args.n, p)
        ground = args.n * (args.n - 1) // 2
        label = f"triangles n={args.n}"
    else:
        model = ApModel(args.N, args.k, p)
        ground = args.N
        label = f"{args.k}-APs N={args.N}"

    params = CoreParams(model=model, delta=args.delta, eps=args.eps,
                        K=args.K, phi_plus=args.phi_plus)
    print("=" * 64)
    print(f"  CORE CENSUS: {label} p={p} delta={args.delta} eps={args.eps}")
    print(f"  size cap K*phi+ = {args.K * args.phi_plus:.1f}, ground set {ground}")
    print("=" * 64)
    print(f"  {'m':>3} {'cores':>7} {'budget':>12} {'verdict':>8} {'secs':>6}")

    t0 = time.time()
    biggest = None
    for m in range(1, args.mmax + 1):
        t1 = time.time()
        report = enumerate_cores(params, m)
        verdict = "ok" if report.passes else "OVER"
        print(f"  {m:>3} {report.count:>7} {report.stability_bound:>12.3f} "
              f"{verdict:>8} {time.time() - t1:>6.2f}")
        if report.witnesses:
            biggest = report.witnesses[-1]

    if args.model == "triangles" and biggest is not None:
        print(f"\n  gain decomposition for one size-{biggest.num_edges} core:")
        print(f"  {'edge':>8} {'closing':>8} {'one-sided':>10} {'isolated':>9} {'gain':>10}")
        for edge, rec in classify_core_edges(model, biggest).items():
            print(f"  {str(edge):>8} {rec.closing:>8} {rec.one_sided:>10} "
                  f"{rec.isolated:>9} {str(rec.gain):>10}")

    print(f"\n  total time: {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
