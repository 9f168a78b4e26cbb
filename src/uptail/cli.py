"""Command-line front end: each verb parses and checks its flags, makes one
library call and prints the result through ``_emit``.

Exit codes: 0 success, 1 a check that fails, 2 usage error, 3 budget
exceeded.  Exact quantities are printed as "num/den" strings; p, like every
threshold outside the rate commands, is accepted as a rational "a/b" (or a
decimal, converted exactly).  The rate commands take finite decimals, and
--c also "inf".
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction

from . import bounds as bounds_mod
from . import cores as cores_mod
from . import moments as moments_mod
from . import montecarlo as mc_mod
from . import variational as var_mod
from .aps import ApModel, IntegerSet
from .graphs import Graph, InducedSubgraphModel, SubgraphModel, complete_graph, parse_graph6
from .variational import BudgetExceededError


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _finite_real(text):
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _real_or_inf(text):
    return math.inf if text.strip().lower() == "inf" else _finite_real(text)


# The most values of one grid, counted as floor((stop - start)/step) + 1,
# and the most rows of a phase diagram: past either the command exits 3
# before it computes a row.
GRID_POINTS = 1 << 20


def _parse_grid(text):
    """start:stop:step, endpoints inclusive up to rounding, each value
    rounded to 12 decimals; a grid whose rounded values repeat is refused."""
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a start:stop:step range: {text!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError(f"not a finite range: {text!r}")
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"bad range: {text!r}")
    steps = (stop - start) / step       # may overflow to inf
    if steps >= GRID_POINTS:
        # argparse lets this error through, to run's budget handler
        raise BudgetExceededError(f"grid {text!r} has {steps + 1:.4g} values, "
                                  f"more than {GRID_POINTS}")
    values = []
    i = 0
    while True:
        value = start + i * step
        if value > stop + step * 1e-9:
            break
        value = round(value, 12)
        if values and value == values[-1]:
            raise argparse.ArgumentTypeError(f"values repeat at 12 decimals: {text!r}")
        values.append(value)
        i += 1
    return values


class SystemExit2(Exception):
    """Usage error raised past argparse's own checks."""


# the flags each model kind needs besides --p (--k has a default)
_MODEL_FLAGS = {"triangles": ("n",), "clique": ("r", "n"), "pattern": ("pattern", "n"),
                "induced": ("pattern", "n"), "ap": ("N",)}


def _build_model(args):
    kind = args.model
    for flag in _MODEL_FLAGS[kind]:
        if getattr(args, flag) is None:
            raise SystemExit2(f"--{flag} is required for {kind} models")
    if kind == "ap":
        return ApModel(args.N, args.k, args.p)
    if kind == "induced":
        return InducedSubgraphModel(parse_graph6(args.pattern), args.n, args.p)
    pattern = parse_graph6(args.pattern) if kind == "pattern" else \
        complete_graph(3 if kind == "triangles" else args.r)
    return SubgraphModel(pattern, args.n, args.p)


def _edge(token):
    a, b = token.split("-")
    return int(a), int(b)


def _parse_conditioning(model, edges, elements, prefix="--"):
    """The conditioning set given by the ``{prefix}edges`` flag (graph
    models, like 0-1,0-2) or the ``{prefix}elements`` flag (AP models, like
    1,2,3)."""
    subset = model.witness_kind == "subset"
    flag, text = (f"{prefix}elements", elements) if subset else (f"{prefix}edges", edges)
    if not text:
        raise SystemExit2(f"{flag} is required for {'AP' if subset else 'graph'} conditioning")
    items = []
    for token in text.split(","):
        try:
            items.append(int(token) if subset else _edge(token))
        except ValueError:
            raise SystemExit2(f"{flag}: bad token {token!r}") from None
    return IntegerSet.from_elements(items) if subset else Graph(model.n, frozenset(items))


def _frac_str(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Verbs: each returns its payload (JSON-ready, or text) and whether it passed
# ---------------------------------------------------------------------------

def _cmd_rate(args):
    if args.family == "clique":
        result = var_mod.min_planting_cost(args.r, args.delta, args.c)
        return {"phi": result.phi, "argmins": list(result.argmins),
                "normalization": "n^2 p^(r-1) log(1/p)"}, True
    if args.delta < 0:
        raise SystemExit2("--delta must be nonnegative")
    if args.family == "regular":
        pattern = parse_graph6(args.pattern)
        if len(set(pattern.degrees())) != 1 or not pattern.is_connected():
            raise SystemExit2("rate regular needs a connected regular pattern")
        if args.c != 0 and not math.isinf(args.c):
            raise SystemExit2("rate regular supports only --c 0 and --c inf")
        rate, theta = var_mod.regular_rate(pattern, args.delta, args.c)
        return {"rate": rate, "theta": theta, "normalization": "n^2 p^Delta log(1/p)"}, True
    return {"localised_rate": math.sqrt(args.delta),                   # family "ap"
            "localised_normalization": "N p^(k/2) log(1/p)",
            "poisson_rate_per_mean": var_mod.poisson_rate(args.delta, 1.0)}, True


def _cmd_phi(args):
    model = _build_model(args)
    if args.solver == "brute":
        witness = var_mod.min_conditioning_witness(model, args.delta, budget=args.budget)
    elif args.solver == "subcube":
        witness = var_mod.min_subcube_witness(model, args.delta, budget=args.budget)
    else:
        witness = var_mod.build_construction(args.kind, model, args.delta)
    return witness.to_json(), True


def _cmd_dist(args):
    return moments_mod.exact_distribution(_build_model(args)).to_json(), True


def _cmd_moments(args):
    result = moments_mod.factorial_moments(_build_model(args), args.tmax)
    return {"from_dist": [_frac_str(x) for x in result.from_dist],
            "from_tuples": None if result.from_tuples is None
            else [_frac_str(x) for x in result.from_tuples]}, True


def _cmd_cores(args):
    model = _build_model(args)
    if args.action == "enumerate":
        params = cores_mod.CoreParams(model=model, delta=args.delta, eps=args.eps,
                                      K=args.K, phi_plus=args.phi_plus)
        return cores_mod.enumerate_cores(params, args.m, budget=args.budget).to_json(), True
    conditioning = _parse_conditioning(model, args.edges, args.elements)  # action "extract"
    core = cores_mod.extract_core(model, conditioning, args.s)
    key = "elements" if model.witness_kind == "subset" else "edges"
    return {key: model.mask_items(model.to_mask(core))}, True


def _cmd_mc(args):
    if args.action == "sample":
        model = _build_model(args)
        plant = None
        if args.plant_edges or args.plant_elements:
            plant = _parse_conditioning(model, args.plant_edges, args.plant_elements, "--plant-")
        cfg = mc_mod.McConfig(model=model, delta=args.delta, samples=args.samples,
                              seed=args.seed, plant=plant)
        return mc_mod.sample_tail(cfg).to_json(), True
    if not 0 < args.p_real < 1:                                 # action "detect"
        raise SystemExit2("--p-real must lie in (0, 1)")
    graph = parse_graph6(args.graph)
    if args.event == "clique":
        witness = mc_mod.detect_clique_event(graph, args.eps, args.x, args.p_real, r=args.r)
    else:
        witness = mc_mod.detect_hub_event(graph, args.eps, args.x, args.p_real, args.r)
    return {"event": args.event, "found": witness is not None,
            "witness": list(witness) if witness is not None else None}, True


def _cmd_check(args):
    if args.battery == "extremal-ap":
        if args.kmax < 3:
            raise SystemExit2("--kmax must be at least 3")
        started = time.time()
        violations = moments_mod.extremal_ap_violations(args.n, args.kmax)
        return {"n": args.n, "k_range": [3, args.kmax], "subsets_per_k": 1 << args.n,
                "violations": violations,
                "seconds": round(time.time() - started, 3)}, violations == 0
    if args.battery == "alpha":
        if args.max_n < 0:
            raise SystemExit2("--max-n must be nonnegative")
        summary = bounds_mod.check_alpha(args.max_n, args.random, args.seed)
        return summary, summary["mismatches"] == 0
    if args.battery == "bounds":
        summary = bounds_mod.run_bound_battery(args.pairs, args.seed)
        return summary, summary["violations"] == 0
    if args.battery == "stability":
        model = _build_model(args)
        if not 0 < args.eps <= 1 + args.delta:
            raise SystemExit2("--eps must lie in (0, 1 + delta]")
        lhs, bound, holds, blockers = moments_mod.stability_inequality_check(
            model, args.delta, args.eps, args.ell)
        return {"lhs": _frac_str(lhs), "bound": bound, "holds": holds,
                "qualifying_sets": blockers}, holds
    family = moments_mod.janson_family(args.t, args.s, args.family, args.count,  # "janson"
                                       args.seed)
    exact, bound, holds = moments_mod.hypergeometric_janson_check(
        family, args.t, args.s, args.eps)
    return {"exact": _frac_str(exact), "bound": bound, "holds": holds}, holds


def _cmd_phase_diagram(args):
    rows = len(args.delta_grid) * len(args.c_grid)
    if rows > GRID_POINTS:
        raise BudgetExceededError(f"the diagram has {rows} rows, more than {GRID_POINTS}")
    return var_mod.phase_diagram_csv(args.r, args.delta_grid, args.c_grid), True


_DISPATCH = {
    "rate": _cmd_rate,
    "phi": _cmd_phi,
    "dist": _cmd_dist,
    "moments": _cmd_moments,
    "cores": _cmd_cores,
    "mc": _cmd_mc,
    "check": _cmd_check,
    "phase-diagram": _cmd_phase_diagram,
}


def _emit(args, payload):
    text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The CLI parser and its leaf index, built once per process: parsing
    leaves both unchanged.  The index maps each command path (``phi brute``,
    ``moments``) to its leaf parser and the dests the full tree sets for
    that path (``verb`` and ``family``, ``solver``, ``action`` or
    ``battery``)."""
    out = argparse.ArgumentParser(add_help=False)       # every verb's --out
    out.add_argument("--out")
    model = argparse.ArgumentParser(add_help=False)     # the model flags, besides --out
    model.add_argument("--model", required=True,
                       choices=["triangles", "clique", "pattern", "induced", "ap"])
    model.add_argument("--n", type=int, default=None, help="host vertex count")
    model.add_argument("--N", type=int, default=None, help="AP ground-set size")
    model.add_argument("--k", type=int, default=3, help="progression length")
    model.add_argument("--r", type=int, default=None, help="clique order")
    model.add_argument("--pattern", default=None, help="pattern graph in graph6")
    model.add_argument("--p", type=_fraction, required=True,
                       help="success probability, rational a/b or decimal")
    modelled = [model, out]

    parser = argparse.ArgumentParser(prog="uptail",
                                     description="upper-tail machinery at desk scale")
    sub = parser.add_subparsers(dest="verb", required=True)
    branches = {}   # verb -> the subparsers action under it

    rate = sub.add_parser("rate", help="closed-form rate evaluation")
    rate_sub = branches["rate"] = rate.add_subparsers(dest="family", required=True)
    rc = rate_sub.add_parser("clique", parents=[out])
    rc.add_argument("--r", type=int, required=True)
    rc.add_argument("--delta", type=_finite_real, required=True)
    rc.add_argument("--c", type=_real_or_inf, required=True)
    rr = rate_sub.add_parser("regular", parents=[out])
    rr.add_argument("--pattern", required=True)
    rr.add_argument("--delta", type=_finite_real, required=True)
    rr.add_argument("--c", type=_real_or_inf, required=True)
    ra = rate_sub.add_parser("ap", parents=[out])
    ra.add_argument("--delta", type=_finite_real, required=True)

    phi = sub.add_parser("phi", help="minimum-cost conditioning solvers")
    phi_sub = branches["phi"] = phi.add_subparsers(dest="solver", required=True)
    for name in ("brute", "subcube"):
        sp = phi_sub.add_parser(name, parents=modelled)
        sp.add_argument("--delta", type=_fraction, required=True)
        sp.add_argument("--budget", type=int, default=1 << 22)
    pc = phi_sub.add_parser("construct", parents=modelled)
    pc.add_argument("--kind", choices=["clique", "hub", "interval"], required=True)
    pc.add_argument("--delta", type=_fraction, required=True)

    dist = sub.add_parser("dist", help="exact distributions")
    branches["dist"] = dist.add_subparsers(dest="action", required=True)
    branches["dist"].add_parser("exact", parents=modelled)

    mom = sub.add_parser("moments", help="factorial moments, both routes", parents=modelled)
    mom.add_argument("--tmax", type=int, default=4)

    cores = sub.add_parser("cores", help="core census and extraction")
    cores_sub = branches["cores"] = cores.add_subparsers(dest="action", required=True)
    ce = cores_sub.add_parser("enumerate", parents=modelled)
    ce.add_argument("--delta", type=_fraction, required=True)
    ce.add_argument("--eps", type=_fraction, required=True)
    ce.add_argument("--K", type=_fraction, required=True)
    ce.add_argument("--phi-plus", dest="phi_plus", type=_fraction, required=True)
    ce.add_argument("--m", type=int, required=True)
    ce.add_argument("--budget", type=int, default=5_000_000)
    cx = cores_sub.add_parser("extract", parents=modelled)
    cx.add_argument("--s", type=_fraction, required=True, help="total slack, rational")
    cx.add_argument("--edges", default=None, help="comma list like 0-1,0-2")
    cx.add_argument("--elements", default=None, help="comma list like 1,2,3")

    mc = sub.add_parser("mc", help="Monte Carlo sampling and detection")
    mc_sub = branches["mc"] = mc.add_subparsers(dest="action", required=True)
    ms = mc_sub.add_parser("sample", parents=modelled)
    ms.add_argument("--delta", type=_fraction, required=True)
    ms.add_argument("--samples", type=int, required=True)
    ms.add_argument("--seed", type=int, required=True)
    ms.add_argument("--plant-edges", default=None)
    ms.add_argument("--plant-elements", default=None)
    md = mc_sub.add_parser("detect", parents=[out])
    md.add_argument("--graph", required=True, help="host graph in graph6")
    md.add_argument("--event", choices=["clique", "hub"], required=True)
    md.add_argument("--eps", type=_fraction, required=True)
    md.add_argument("--x", type=_fraction, required=True)
    md.add_argument("--p-real", type=_fraction, required=True)
    md.add_argument("--r", type=int, default=3)

    check = sub.add_parser("check", help="verification batteries")
    check_sub = branches["check"] = check.add_subparsers(dest="battery", required=True)
    ca = check_sub.add_parser("extremal-ap", parents=[out])
    ca.add_argument("--n", type=int, default=16)
    ca.add_argument("--kmax", type=int, default=4)
    cb = check_sub.add_parser("bounds", parents=[out])
    cb.add_argument("--pairs", type=int, default=1000)
    cb.add_argument("--seed", type=int, default=1)
    cal = check_sub.add_parser("alpha", parents=[out])
    cal.add_argument("--max-n", dest="max_n", type=int, default=5)
    cal.add_argument("--random", type=int, default=500)
    cal.add_argument("--seed", type=int, default=1)
    cs = check_sub.add_parser("stability", parents=modelled)
    cs.add_argument("--delta", type=_fraction, required=True)
    cs.add_argument("--eps", type=_fraction, required=True)
    cs.add_argument("--ell", type=int, required=True)
    cj = check_sub.add_parser("janson", parents=[out])
    cj.add_argument("--t", type=int, required=True)
    cj.add_argument("--s", type=int, required=True)
    cj.add_argument("--eps", type=_fraction, required=True)
    cj.add_argument("--family", default="pairs", choices=["pairs", "triples", "random"])
    cj.add_argument("--count", type=int, default=6)
    cj.add_argument("--seed", type=int, default=1)

    pd = sub.add_parser("phase-diagram", help="grid sweep of the planting cost", parents=[out])
    pd.add_argument("--r", type=int, required=True)
    pd.add_argument("--delta-grid", dest="delta_grid", type=_parse_grid, required=True)
    pd.add_argument("--c-grid", dest="c_grid", type=_parse_grid, required=True)

    leaves = {(verb,): (node, {"verb": verb})
              for verb, node in sub.choices.items() if verb not in branches}
    for verb, below in branches.items():
        for name, leaf in below.choices.items():
            leaves[verb, name] = leaf, {"verb": verb, below.dest: name}
    return parser, leaves


def _parse(argv):
    """The full tree's namespace for ``argv``, parsed by the leaf parser of
    its command path alone: the same namespace, help and leaf errors at a
    fraction of the cost.  Whenever the path names no leaf, or the leaf
    leaves tokens over, the full tree parses, so every usage error prints
    as it always has."""
    parser, leaves = _build_parser()
    found = leaves.get(tuple(argv[:2])) or leaves.get(tuple(argv[:1]))
    if found:
        leaf, dests = found
        args, extra = leaf.parse_known_args(argv[len(dests):])
        if not extra:
            vars(args).update(dests)
            return args
    return parser.parse_args(argv)


def run(argv):
    try:
        args = _parse(argv)
        payload, passed = _DISPATCH[args.verb](args)
    except SystemExit as exc:           # argparse's usage errors and --help
        return exc.code if exc.code is not None else 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args, payload)
    return 0 if passed else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
