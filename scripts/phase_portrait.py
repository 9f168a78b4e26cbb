#!/usr/bin/env python3
"""Region structure of the optimal clique/hub planting mixture.

Sweeps the (delta, c) plane for a given clique order, prints a coarse
character map of the argmin regions (c = clique, h = hub, m = mixed,
t = tie), and optionally writes the full CSV.

Usage: python phase_portrait.py [--r 3] [--rows 30] [--cols 60] [--out pd.csv]
"""

import argparse
import sys

from uptail.variational import clique_hub_crossover, phase_diagram_csv, phase_diagram_rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--r", type=int, default=3)
    ap.add_argument("--rows", type=int, default=30, help="delta resolution")
    ap.add_argument("--cols", type=int, default=60, help="c resolution")
    ap.add_argument("--delta-max", type=float, default=5.0)
    ap.add_argument("--c-max", type=float, default=10.0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    deltas = [args.delta_max * (i + 1) / args.rows for i in range(args.rows)]
    cs = [args.c_max * (j + 1) / args.cols for j in range(args.cols)]
    rows = phase_diagram_rows(args.r, deltas, cs)
    by_cell = {(d, c): label for d, c, _, label in rows}

    glyph = {"clique": "c", "hub": "h", "tie": "t"}
    print(f"argmin regions for r={args.r}  "
          f"(delta down {deltas[0]:.2f}..{deltas[-1]:.2f}, "
          f"c right {cs[0]:.2f}..{cs[-1]:.2f})")
    print(f"crossover at c=inf: delta* = {clique_hub_crossover(args.r):.9f}")
    print()
    for d in reversed(deltas):
        line = "".join(glyph.get(by_cell[(d, c)], "m") for c in cs)
        print(f"  {d:5.2f} |{line}|")
    print()
    counts = {}
    for _, _, _, label in rows:
        key = label.split(":")[0]
        counts[key] = counts.get(key, 0) + 1
    total = len(rows)
    for key in sorted(counts):
        print(f"  {key:>7}: {counts[key]:>6} cells ({100 * counts[key] / total:.1f}%)")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(phase_diagram_csv(args.r, deltas, cs) + "\n")
        print(f"\n  wrote {total} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
