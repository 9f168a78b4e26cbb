"""Set-up of one workload: import uptail and touch every distinct model.

Run as a script it performs the set-up once in a fresh interpreter and
prints ``{"setup_s": ...}``; ``run.py`` starts it a few times to take the
median set-up time.  ``run.py`` also calls ``setup`` in its own process.

Usage: python3 perfbench/probe.py --workload NAME --seed N
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# the benchmark directory sits at the root of the checkout it measures
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def have_source():
    return os.path.isfile(os.path.join(SRC, "uptail", "cli.py"))


def _model(uptail, spec):
    from fractions import Fraction
    spec = dict(spec)
    kind, p = spec["model"], Fraction(1, 2)
    if kind == "ap":
        return uptail.ApModel(int(spec["N"]), int(spec["k"]), p)
    if kind == "induced":
        return uptail.InducedSubgraphModel(uptail.parse_graph6(spec["pattern"]), int(spec["n"]), p)
    order = 3 if kind == "triangles" else int(spec["r"])       # "clique"
    return uptail.SubgraphModel(uptail.graphs.complete_graph(order), int(spec["n"]), p)


def _touch(uptail, model):
    """Build the tables a query on ``model`` reads: copies, monomial or
    placement masks, progressions.  Names that no longer exist are skipped."""
    import uptail.models as models
    if isinstance(model, uptail.InducedSubgraphModel):
        names = [(models, "placement_masks")]
    elif isinstance(model, uptail.ApModel):
        names = [(models, "monomial_masks")]
    else:
        names = [(uptail.graphs, "model_copies"), (models, "monomial_masks")]
    for module, name in names:
        fn = getattr(module, name, None)
        if fn is not None:
            fn(model)


def setup(specs):
    """Import uptail and touch each model; returns (seconds, uptail module)."""
    started = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import uptail
    import uptail.cli  # noqa: F401
    import uptail.graphs  # noqa: F401
    for spec in specs:
        _touch(uptail, _model(uptail, spec))
    return time.perf_counter() - started, uptail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if not have_source():
        print(f"no uptail source under {SRC}", file=sys.stderr)
        return 2
    specs = workloads.model_specs(workloads.query_list(args.workload, args.seed))
    seconds, _ = setup(specs)
    print(json.dumps({"setup_s": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
