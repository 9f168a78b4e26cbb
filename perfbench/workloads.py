"""Seeded query lists for the two benchmark workloads.

``search`` runs the subset and subcube solvers, the core census and the
stability check: nearly all of its time goes to the exact conditional mean
over coordinate masks.  ``bulk`` runs everything that never calls that
kernel: exact distributions and moments over all outcomes, Monte Carlo
sampling, large-n planted constructions over the copy tables, closed-form
rates and the bound batteries.  A change to the mask kernel should move
``search`` and leave ``bulk`` alone; a change to enumeration, sampling or the
copy walk should do the opposite.

Each workload is a fixed multiset of CLI queries.  The seed picks, for every
slot, one of a few variants (Monte Carlo seeds, conditioning sets, host
graphs, battery seeds, rate parameters) and shuffles the order.  The
variants of a slot were grouped by the number of Python calls one answer
makes, and agree within 5% (`mc detect`, `check alpha`, `check bounds`, each
`cores extract` group) or by construction (`mc sample`, whose variants
differ only in the seed).  The amount of work per pass therefore hardly
depends on the seed, while the inputs the program sees do.  The closed-form
rates are the exception: each of their 25 copies draws a family, but every
rate answer takes a few milliseconds, most of it argument parsing.

Every variant except the closed-form rates has a reference answer recorded
in ``reference.json`` (see ``record.py``); rates are checked against an
independent grid minimum instead, so they can be drawn from continuous
seeded parameters.
"""

from __future__ import annotations

import random

# Conditioning sets for `cores extract` (triangles, n = 6 and n = 5), in
# groups of equal cost: about 42k, 36k and 33k Python calls per answer.
_EXTRACT_N6_HEAVY = ["0-1,0-2,1-2,0-3,3-4", "0-1,0-2,1-2,2-3,3-4,4-5"]
_EXTRACT_N6_LIGHT = ["0-1,0-2,0-3,1-2,1-3,2-3", "0-1,1-2,2-3,3-4,4-5,0-5",
                     "0-1,0-2,1-2,3-4,3-5,4-5"]
_EXTRACT_N5 = ["0-1,0-2,1-2,0-3", "0-1,0-2,1-2,1-3,2-3", "0-1,1-2,2-3,3-4,0-4"]

# Host graphs for `mc detect` (graph6): complete, dense and sparse random
# graphs on 8 to 12 vertices.
_DETECT_GRAPHS = ["G~~~~{", "GzNx|k", "GHCB^g", "I~hmt~}Tw", "IQx_m[tdO",
                  "KvvzNvz~{zQ^", "K?J?MEyOWFqn"]

# Connected regular patterns for `rate regular`: triangle, K4, C4, C5, K33, C6.
_REGULAR_PATTERNS = ["Bw", "C~", "Cl", "Dhc", "EFz_", "EhEG"]

_MC_SEEDS = ["1", "2", "3", "5", "8"]
# `check bounds` seeds whose batteries cost the same (the others differ by 40%)
_BOUNDS_SEEDS = ["3", "5"]


def _slot(count, variants):
    return (count, tuple(variants))


def _search_slots():
    # (copies per pass, query): the light solver queries repeat so that the
    # list holds 100 queries and a pass stays near four seconds
    brute = [
        (6, "phi brute --model triangles --n 6 --p 1/4 --delta 2"),
        (3, "phi brute --model triangles --n 6 --p 1/2 --delta 1"),
        (6, "phi brute --model triangles --n 7 --p 1/4 --delta 1"),
        (4, "phi brute --model triangles --n 7 --p 1/4 --delta 2"),
        (4, "phi brute --model triangles --n 7 --p 1/2 --delta 0.5"),
        (6, "phi brute --model clique --r 4 --n 6 --p 1/2 --delta 1"),
        (6, "phi brute --model clique --r 4 --n 6 --p 1/4 --delta 2"),
        (6, "phi brute --model ap --N 16 --k 3 --p 1/4 --delta 1"),
        (4, "phi brute --model ap --N 16 --k 3 --p 1/4 --delta 3"),
        (2, "phi brute --model ap --N 16 --k 3 --p 1/2 --delta 1"),
    ]
    other = [
        (2, "phi subcube --model triangles --n 5 --p 1/2 --delta 1"),
        (1, "phi subcube --model triangles --n 5 --p 1/4 --delta 1"),
        (1, "phi subcube --model induced --pattern Bg --n 5 --p 2/3 --delta 0.1"),
        (2, "cores enumerate --model triangles --n 6 --p 1/4 --delta 1 --eps 0.2 "
            "--K 25 --phi-plus 4 --m 2"),
        (1, "cores enumerate --model triangles --n 6 --p 1/4 --delta 3 --eps 0.2 "
            "--K 25 --phi-plus 4 --m 3"),
        (1, "cores enumerate --model triangles --n 6 --p 1/4 --delta 4 --eps 0.3 "
            "--K 25 --phi-plus 4 --m 4"),
        (3, "check stability --model triangles --n 5 --p 1/2 --delta 1 --eps 0.2 --ell 2"),
        (1, "check stability --model triangles --n 6 --p 1/2 --delta 1 --eps 0.2 --ell 1"),
    ]
    n6 = "cores extract --model triangles --n 6 --p 1/4 --s 5/2 --edges "
    n5 = "cores extract --model triangles --n 5 --p 1/2 --s 3/2 --edges "
    slots = [_slot(count, [q]) for count, q in brute + other]
    slots += [
        _slot(14, [n6 + e for e in _EXTRACT_N6_HEAVY]),
        _slot(14, [n6 + e for e in _EXTRACT_N6_LIGHT]),
        _slot(13, [n5 + e for e in _EXTRACT_N5]),
    ]
    return slots


def _bulk_slots():
    # exact enumeration: X over all 2^N outcomes in numpy, pmf in Fractions
    enumerate_ = [
        (1, "dist exact --model clique --r 4 --n 7 --p 1/4"),
        (1, "dist exact --model triangles --n 7 --p 1/4"),
        (1, "dist exact --model ap --N 20 --k 3 --p 1/3"),
        (2, "dist exact --model ap --N 16 --k 3 --p 1/2"),
        (2, "dist exact --model triangles --n 6 --p 1/2"),
        (2, "dist exact --model clique --r 4 --n 6 --p 1/3"),
        (2, "dist exact --model induced --pattern Bg --n 6 --p 1/2"),
        (2, "dist exact --model induced --pattern Bg --n 6 --p 1/3"),
        (1, "moments --model ap --N 12 --k 3 --p 1/3 --tmax 3"),
        (2, "moments --model triangles --n 5 --p 1/2 --tmax 4"),
        (2, "moments --model triangles --n 6 --p 1/2 --tmax 3"),
        (2, "moments --model clique --r 4 --n 6 --p 1/2 --tmax 3"),
        (1, "check extremal-ap --n 16 --kmax 4"),
        (4, "check extremal-ap --n 12 --kmax 4"),
    ]
    # large-n constructions over the copy tables
    construct = [
        (1, f"phi construct --model triangles --n {n} --p 1/10 --kind {kind} --delta 1")
        for n in (30, 50, 70) for kind in ("clique", "hub")
    ] + [
        (1, f"phi construct --model clique --r 4 --n 20 --p 1/4 --kind {kind} --delta 1")
        for kind in ("clique", "hub")
    ] + [(1, "phi construct --model ap --N 1000 --k 3 --p 1/10 --kind interval --delta 1")]
    slots = [_slot(count, [q]) for count, q in enumerate_ + construct]
    # Monte Carlo at one thread, with and without planting
    tri8 = "--model triangles --n 8 --p 1/4"
    tri12 = "--model triangles --n 12 --p 1/10"
    ap = "--model ap --N 40 --k 3 --p 1/5"
    slots += [
        _slot(1, _mc(tri8, 1_000_000)),
        _slot(4, _mc(tri8, 100_000)),
        _slot(2, _mc("--model clique --r 4 --n 9 --p 1/3", 100_000)),
        _slot(1, _mc(tri12, 100_000)),
        _slot(1, _mc(tri12, 100_000, " --plant-edges 0-1")),
        _slot(1, _mc(ap, 100_000)),
        _slot(1, _mc(ap, 100_000, " --plant-elements 1,2")),
        _slot(26, [f"mc detect --graph {g} --event {event} --eps 0.3 --x 1 --p-real 0.5 --r 3"
                   for g in _DETECT_GRAPHS for event in ("clique", "hub")]),
    ]
    # closed forms and bound batteries
    slots += [
        _slot(1, ["phase-diagram --r 3 --delta-grid 0.05:5:0.05 --c-grid 0.1:10:0.1",
                  "phase-diagram --r 4 --delta-grid 0.05:5:0.05 --c-grid 0.1:10:0.1"]),
        _slot(1, ["phase-diagram --r 3 --delta-grid 0.1:2:0.1 --c-grid 0.5:5:0.5",
                  "phase-diagram --r 5 --delta-grid 0.1:2:0.1 --c-grid 0.5:5:0.5"]),
        _slot(1, [f"check bounds --pairs 200 --seed {s}" for s in _BOUNDS_SEEDS]),
        _slot(1, [f"check alpha --max-n 5 --random 10 --seed {s}" for s in _MC_SEEDS]),
        _slot(25, [_rate_clique, _rate_regular, _rate_ap]),
    ]
    return slots


def _mc(model, samples, plant=""):
    return [f"mc sample {model} --delta 1 --samples {samples} --seed {s}{plant}"
            for s in _MC_SEEDS]


def _rate_clique(rng):
    r = rng.choice((3, 4, 5))
    delta = rng.uniform(0.05, 5.0)
    c = "inf" if rng.random() < 0.2 else repr(rng.uniform(0.1, 10.0))
    return f"rate clique --r {r} --delta {delta!r} --c {c}"


def _rate_regular(rng):
    pattern = rng.choice(_REGULAR_PATTERNS)
    delta = rng.uniform(0.05, 5.0)
    c = rng.choice(("0", "inf"))
    return f"rate regular --pattern {pattern} --delta {delta!r} --c {c}"


def _rate_ap(rng):
    return f"rate ap --delta {rng.uniform(0.05, 5.0)!r}"


WORKLOADS = {
    "search": _search_slots,
    "bulk": _bulk_slots,
}

# Monte Carlo is pinned to one thread so that `bulk` measures the
# single-thread sampling kernel.
THREADS = "1"


def query_list(workload, seed):
    """The ordered query list of one run: a list of argv lists."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    queries = []
    for count, variants in WORKLOADS[workload]():
        for _ in range(count):
            choice = rng.choice(variants)
            queries.append(choice(rng) if callable(choice) else choice)
    rng.shuffle(queries)
    return [q.split() for q in queries]


def reference_pool(workload):
    """Every fixed query string a workload can send (rates excluded)."""
    pool = []
    for _, variants in WORKLOADS[workload]():
        pool.extend(v for v in variants if not callable(v))
    return sorted(set(pool))


def flags(argv):
    """Value of each ``--flag value`` pair of a query."""
    return dict(zip(argv, argv[1:]))


def model_specs(queries):
    """Distinct models the queries build, as sorted tuples of (flag, value)."""
    specs = set()
    for argv in queries:
        if "--model" not in argv:
            continue
        values = flags(argv)
        spec = {"model": values["--model"]}
        for key in ("--n", "--N", "--k", "--r", "--pattern"):
            if key in values:
                spec[key[2:]] = values[key]
        if spec["model"] == "ap":
            spec.setdefault("k", "3")
        specs.add(tuple(sorted(spec.items())))
    return sorted(specs)
