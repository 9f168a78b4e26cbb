"""Closed-form planting costs for clique counts, minimiser classification,
planted constructions, and brute-force solvers for the minimum-cost
conditioning problem in subset and subcube form.

Closed forms live in floating point; witnesses carry exact rational
conditional means so that feasibility is never a rounding question.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, islice, product

import numpy as np

from .aps import ApModel, IntegerSet, ap_mean, conditional_expectation_ap, extremal_ap_count
from .graphs import Graph, SubgraphModel, automorphism_count
from .models import _masks_by_size, compile_model, model_mean

ARGMIN_TOL = 1e-9
# Relative width of the float-rounding band around an integer excess level
# (8 ulps), enough for the few roundings in computing x delta c / r.
LEVEL_RTOL = 8 * sys.float_info.epsilon


class BudgetExceededError(RuntimeError):
    """Search ran past its budget; ``best_so_far`` holds any partial result."""

    def __init__(self, message, best_so_far=None):
        super().__init__(message)
        self.best_so_far = best_so_far


class InfeasibleConstructionError(ValueError):
    """The requested planted structure does not fit in the ground set."""


# ---------------------------------------------------------------------------
# Closed-form planting costs
# ---------------------------------------------------------------------------

def _snap_level(t):
    """The excess level t = x delta c / r (a float or an array), with each
    value within float rounding of a positive integer k, |t - k| <= LEVEL_RTOL
    * t, set to k.  The band is relative because the hub term has infinite
    slope just above every integer, zero included: a snap by e removes up to
    e^(1/(r-1)) / c from the cost."""
    nearest = (t + 0.5) // 1
    off = t - nearest
    # t - off is exactly nearest wherever the snap applies (Sterbenz); the
    # arithmetic form, unlike np.where, keeps a float a Python float
    return t - off * (abs(off) <= LEVEL_RTOL * t)


@dataclass(frozen=True)
class MinimiserSet:
    phi: float
    argmins: tuple
    mix_point: float | None = None   # the interior candidate, when defined


def min_planting_cost(r, delta, c):
    """Minimum of the mixture cost with its attaining x values.

    c = 0 and c = inf are evaluated through their uniform limits.  The excess
    level delta c / r is snapped by ``_snap_level``, which moves phi by at
    most (delta * LEVEL_RTOL)^(2/r) / 2.
    """
    if r < 3:
        raise ValueError("r must be at least 3")
    if delta <= 0:
        raise ValueError("delta must be positive")
    clique_cost = delta ** (2 / r) / 2
    if c == 0:
        return MinimiserSet(phi=clique_cost, argmins=(0.0,), mix_point=None)
    if math.isinf(c):
        hub_cost = delta / r
        phi = min(clique_cost, hub_cost)
        argmins = tuple(x for x, v in ((0.0, clique_cost), (1.0, hub_cost))
                        if v <= phi + ARGMIN_TOL)
        return MinimiserSet(phi=phi, argmins=argmins, mix_point=None)
    if c < 0:
        raise ValueError("c must be nonnegative")
    t = _snap_level(delta * c / r)
    floor_t = math.floor(t)
    frac_t = t - floor_t
    hub_cost = (floor_t + frac_t ** (1 / (r - 1))) / c
    # a level snapped up to an integer puts the mix point at most an ulp past 1
    mix_point = min(1.0, r * floor_t / (delta * c)) if t > 0 else 0.0
    mixed_cost = floor_t / c + (r * frac_t / c) ** (2 / r) / 2
    candidates = [(0.0, clique_cost), (mix_point, mixed_cost), (1.0, hub_cost)]
    phi = min(v for _, v in candidates)
    argmins = sorted({round(x, 15) for x, v in candidates if v <= phi + ARGMIN_TOL})
    return MinimiserSet(phi=phi, argmins=tuple(argmins), mix_point=mix_point)


def phase_diagram_rows(r, delta_grid, c_grid):
    """(delta, c, phi, label) over the grid, labelled by the minimiser:
    clique (x = 0), hub (x = 1), mixed:<x>, or tie."""
    rows = []
    for delta in delta_grid:
        for c in c_grid:
            result = min_planting_cost(r, delta, c)
            if len(result.argmins) > 1:
                label = "tie"
            else:
                x = result.argmins[0]
                label = "clique" if x == 0 else "hub" if x == 1 else f"mixed:{x:.6g}"
            rows.append((delta, c, result.phi, label))
    return rows


def _grid_text(value):
    """A grid value in 12 significant digits when they read back as the
    same float, and in full otherwise, so distinct values print distinctly."""
    text = f"{value:.12g}"
    return text if float(text) == value else repr(value)


def phase_diagram_csv(r, delta_grid, c_grid):
    """The phase diagram as CSV text under the header delta,c,phi,argmin_label."""
    lines = ["delta,c,phi,argmin_label"]
    lines += [f"{_grid_text(d)},{_grid_text(c)},{phi:.12g},{label}"
              for d, c, phi, label in phase_diagram_rows(r, delta_grid, c_grid)]
    return "\n".join(lines)


def clique_hub_crossover(r):
    """The delta at which the pure-clique and pure-hub costs cross (c = inf):
    delta^(2/r) / 2 = delta / r at delta* = (r/2)^(r/(r-2))."""
    if r < 3:
        raise ValueError("r must be at least 3")
    return (r / 2) ** (r / (r - 2))


def poisson_rate(delta, mean):
    """((1+d) log(1+d) - d) * mean."""
    if delta < 0 or mean < 0:
        raise ValueError("delta and mean must be nonnegative")
    if delta == 0:
        return 0.0
    return ((1 + delta) * math.log(1 + delta) - delta) * mean


# ---------------------------------------------------------------------------
# Independence polynomial (reporting aid for the regular-pattern rate)
# ---------------------------------------------------------------------------

def independence_polynomial(graph):
    """Coefficients [i_0, i_1, ...]: number of independent sets by size."""
    counts = [0] * (graph.n + 1)
    adj = graph.adjacency
    verts = list(range(graph.n))

    def grow(idx, chosen, forbidden):
        counts[chosen] += 1
        for v in verts[idx:]:
            if not forbidden >> v & 1:
                grow(v + 1, chosen + 1, forbidden | adj[v] | 1 << v)

    grow(0, 0, 0)
    return counts


def theta_root(graph, delta):
    """Positive solution of (independence polynomial)(theta) = 1 + delta."""
    coeffs = independence_polynomial(graph)

    def poly(x):
        return sum(ck * x ** k for k, ck in enumerate(coeffs))

    lo, hi = 0.0, 1.0
    while poly(hi) < 1 + delta:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if poly(mid) < 1 + delta:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return (lo + hi) / 2


def regular_rate(pattern, delta, c):
    """(rate, theta) of a connected regular pattern: the clique cost
    delta^{2/v_H}/2 at c = 0, and the least of it and theta at c = inf."""
    if c != 0 and not math.isinf(c):
        raise ValueError("the regular rate is defined at c = 0 and c = inf")
    clique_cost = delta ** (2 / pattern.n) / 2
    theta = theta_root(pattern, delta)
    return (clique_cost if c == 0 else min(clique_cost, theta)), theta


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    kind: str                     # subset | subcube | graph
    payload: object               # IntegerSet | (IntegerSet ones, IntegerSet zeros) | Graph
    log_cost: float
    conditional_mean: Fraction | None
    feasible: bool

    def to_json(self):
        if self.kind == "graph" and self.payload is not None:
            payload = {"n": self.payload.n, "edges": sorted(map(list, self.payload.edges))}
        elif self.kind == "subset" and self.payload is not None:
            payload = {"elements": self.payload.elements()}
        elif self.kind == "subcube" and self.payload is not None:
            ones, zeros = self.payload
            payload = {"fixed_one": ones.elements(), "fixed_zero": zeros.elements()}
        else:
            payload = None
        mean = None if self.conditional_mean is None else \
            f"{self.conditional_mean.numerator}/{self.conditional_mean.denominator}"
        return json.dumps({
            "kind": self.kind,
            "payload": payload,
            "log_cost": self.log_cost if math.isfinite(self.log_cost) else "inf",
            "conditional_mean": mean,
            "feasible": self.feasible,
        }, sort_keys=True)


def _int_root(value, e):
    """The largest integer s >= 0 with s^e <= value (value >= 0), by
    bisection in integers."""
    value = math.floor(value)
    lo, hi = 0, 1 << value.bit_length() // e + 1     # hi^e > value
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** e <= value:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class _Blowup:
    """A graph on vertices 0..n-1 cut into consecutive classes of the given
    sizes, two distinct vertices of classes c <= d adjacent exactly when
    (c, d) is in ``joined``.  One description gives a planted graph's
    payload and its exact conditional mean."""

    sizes: tuple
    joined: frozenset

    @cached_property
    def graph(self):
        starts = [0, *accumulate(self.sizes)]
        blocks = [range(lo, hi) for lo, hi in zip(starts, starts[1:])]
        edges = set()
        for c, d in self.joined:
            edges.update(combinations(blocks[c], 2) if c == d else product(blocks[c], blocks[d]))
        return Graph(starts[-1], frozenset(edges))

    def mean(self, model):
        """E[X | this graph present] for a subgraph model, exact:
        (1/|Aut H|) sum over maps phi of V(H) to the classes of
        prod_c (|c|)_{|phi^-1(c)|} p^(e_H - #edges phi sends to joined
        pairs).  The falling factorials count the injective maps V(H) -> [n]
        with those classes, and each copy is the image of |Aut H| maps.  The
        sum has (#classes)^{v_H} terms whatever n is."""
        pattern = model.pattern
        maps_by_missing = [0] * (pattern.num_edges + 1)
        for phi in product(range(len(self.sizes)), repeat=pattern.n):
            maps = math.prod(math.perm(size, phi.count(c)) for c, size in enumerate(self.sizes))
            if maps:
                missing = sum((min(phi[u], phi[v]), max(phi[u], phi[v])) not in self.joined
                              for u, v in pattern.edges)
                maps_by_missing[missing] += maps
        total = sum(maps * model.p ** m for m, maps in enumerate(maps_by_missing))
        return total / automorphism_count(pattern)


def _clique(model, delta):
    """The least s with s^{2 v_H} >= (1+delta)^2 n^{2 v_H} p^{2 e_H}, planted
    as a clique on vertices 0..s-1: classes of s and n - s vertices."""
    if not isinstance(model, SubgraphModel):
        raise TypeError("clique construction applies to subgraph models")
    if len(set(model.pattern.degrees())) != 1:
        raise InfeasibleConstructionError("clique sizing needs a regular pattern")
    power = 2 * model.pattern.n
    target = (1 + delta) ** 2 * model.n ** power * model.p ** (2 * model.pattern.num_edges)
    size = _int_root(target, power)
    size += size ** power < target
    if size > model.n:
        raise InfeasibleConstructionError(f"clique needs {size} vertices, host has {model.n}")
    return _Blowup((size, model.n - size), frozenset({(0, 0)}))


def _hub(model, delta):
    """A core of floor(ell) vertices joined to every outside vertex, ell =
    delta n p^{r-1} / r, plus a star from vertex 0 to the largest s outside
    vertices with s^{r-1} <= (ell - core) |outside|^{r-1}: classes vertex 0,
    the core 1..core, the star's leaves and the other outside vertices."""
    if not isinstance(model, SubgraphModel):
        raise TypeError("hub construction applies to subgraph models")
    r = model.pattern.n
    if model.pattern.num_edges != r * (r - 1) // 2:
        raise InfeasibleConstructionError("hub sizing needs a complete pattern")
    ell = delta * model.n * model.p ** (r - 1) / r
    hub_size = math.floor(ell)
    if hub_size + 1 >= model.n:
        raise InfeasibleConstructionError(
            f"hub core of {hub_size} vertices leaves no outside vertices")
    outside = model.n - 1 - hub_size
    leaves = _int_root((ell - hub_size) * outside ** (r - 1), r - 1)
    return _Blowup((1, hub_size, leaves, outside - leaves),
                   frozenset({(0, 2), (1, 2), (1, 3)}))


def _interval(model, delta):
    """The shortest initial interval whose progression count reaches
    delta p^k E_N / (1 - p^k), E_N the count of [N]."""
    if not isinstance(model, ApModel):
        raise TypeError("interval construction applies to AP models")
    p, k = model.p, model.k
    target = delta * p ** k * extremal_ap_count(model.N, k) / (1 - p ** k)
    size = next((m for m in range(model.N + 1) if extremal_ap_count(m, k) >= target), None)
    if size is None:
        raise InfeasibleConstructionError("no initial interval inside [N] reaches the target")
    return IntegerSet.from_elements(range(1, size + 1))


def _planted_witness(model, payload, size, delta, conditional_mean, mean):
    """A planted structure's witness: cost size * log(1/p), ``size`` its
    number of coordinates, feasible when its conditional mean reaches
    (1+delta) times the mean."""
    return Witness(kind=model.witness_kind, payload=payload,
                   log_cost=size * math.log(1 / float(model.p)),
                   conditional_mean=conditional_mean,
                   feasible=conditional_mean >= (1 + delta) * mean)


def build_construction(kind, model, delta):
    """Plant a clique, a hub, or an initial interval sized for excess delta.

    Every size is decided in exact arithmetic.  The witness carries the
    exact conditional mean; ``feasible`` records whether the target
    (1+delta) multiple of the mean is actually met.  No construction builds
    the model's table.  A clique or hub graph is described by its vertex
    classes, and E[X | graph] and E[X] (the one-class case) are sums over
    the maps of the pattern's vertices to those classes, at a cost that
    does not grow with n.  An interval's means come from the strided
    progression counts of ``aps``.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    delta = Fraction(delta)
    if kind == "interval":
        subset = _interval(model, delta)
        return _planted_witness(model, subset, len(subset), delta,
                                conditional_expectation_ap(model, subset), ap_mean(model))
    if kind in ("clique", "hub"):
        planted = (_clique if kind == "clique" else _hub)(model, delta)
        return _planted_witness(model, planted.graph, planted.graph.num_edges, delta,
                                planted.mean(model), _Blowup((model.n,), frozenset()).mean(model))
    raise ValueError(f"unknown construction kind {kind!r}")


# ---------------------------------------------------------------------------
# Brute-force solvers
# ---------------------------------------------------------------------------

def min_conditioning_witness(model, delta, budget=1 << 22):
    """Smallest set of forced-on coordinates pushing the conditional mean to
    (1+delta) times the mean; ties broken by smallest bitmask."""
    if not model.monotone:
        raise TypeError("subset search applies to monotone models")
    compiled = compile_model(model)
    n = compiled.n_coords
    bound = compiled.scaled_bound((1 + Fraction(delta)) * model_mean(model))
    masks = (mask for size in range(n + 1) for mask in _masks_by_size(n, size))
    scan = islice(masks, max(budget, 0))
    while chunk := list(islice(scan, compiled.batch_rows)):
        sums = compiled.scaled_means(chunk)
        hits = np.flatnonzero(sums >= bound)
        if hits.size:
            mask = chunk[hits[0]]
            return Witness(kind=model.witness_kind, payload=model.from_mask(mask),
                           log_cost=mask.bit_count() * math.log(1 / float(model.p)),
                           conditional_mean=Fraction(int(sums[hits[0]]), compiled.scale),
                           feasible=True)
    if budget < 1 << n:
        raise BudgetExceededError(
            f"examined {max(budget, 0)} subsets without concluding", best_so_far=None)
    return Witness(kind=model.witness_kind, payload=None, log_cost=math.inf,
                   conditional_mean=None, feasible=False)


def _subcubes(n_coords):
    """(ones, zeros) of every subcube: by number of fixed coordinates, then
    by support, then with ones from the whole support down through its
    submasks."""
    for size in range(n_coords + 1):
        for support in _masks_by_size(n_coords, size):
            sub = support
            while True:
                yield sub, support ^ sub
                if sub == 0:
                    break
                sub = (sub - 1) & support


def _cost_ranks(p, n_coords, budget):
    """[i, j] -> rank of the cost class (i ones, j zeros) by its exact cost
    p^-i (1-p)^-j, equal costs sharing a rank, for i + j <= n, the most
    coordinates fixed in the first ``budget`` subcubes of the scan.  Scaled
    by (a (b-a))^n, p = a/b, the costs are integers."""
    a, b = p.numerator, p.denominator
    n, scanned = 0, 1       # the subcubes with at most n coordinates fixed
    while n < n_coords and scanned < budget:
        n += 1
        scanned += math.comb(n_coords, n) << n
    classes = [(i, j) for i in range(n + 1) for j in range(n + 1 - i)]
    keys = [b ** (i + j) * a ** (n - i) * (b - a) ** (n - j) for i, j in classes]
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    ranks = np.zeros((n + 1, n + 1), dtype=np.intp)
    ranks[tuple(zip(*classes))] = [rank[key] for key in keys]
    return ranks


def min_subcube_witness(model, delta, budget=1 << 22):
    """Cheapest subcube (coordinates fixed to 0/1) with conditional mean at
    least (1+delta) times the mean; cost weighs ones by log(1/p) and zeros by
    log(1/(1-p)).  The first feasible subcube in scan order of the least exact
    cost class wins: each chunk sends only the subcubes ranked below the best
    to the kernel, and keeps its first feasible one of least rank."""
    compiled = compile_model(model)
    ranks = _cost_ranks(model.p, compiled.n_coords, budget)
    bound = compiled.scaled_bound((1 + Fraction(delta)) * model_mean(model))
    best = None     # (rank, ones, zeros, scaled conditional mean)
    scan = islice(_subcubes(compiled.n_coords), max(budget, 0))
    while chunk := list(islice(scan, compiled.batch_rows)):
        ones_list, zeros_list = zip(*chunk)
        ones, zeros = compiled.words(ones_list), compiled.words(zeros_list)
        rank = ranks[np.bitwise_count(ones).sum(axis=1), np.bitwise_count(zeros).sum(axis=1)]
        rows = np.flatnonzero(rank < best[0]) if best else np.arange(len(chunk))
        sums = compiled.scaled_means(ones[rows], zeros[rows])
        hits = np.flatnonzero(sums >= bound)
        if hits.size:
            hit = hits[np.argmin(rank[rows[hits]])]
            row = rows[hit]
            best = (rank[row], ones_list[row], zeros_list[row], int(sums[hit]))
    witness = Witness(kind="subcube", payload=None, log_cost=math.inf,
                      conditional_mean=None, feasible=False)
    if best:
        _, ones, zeros, total = best
        p = float(model.p)
        witness = Witness(kind="subcube", payload=(IntegerSet(ones), IntegerSet(zeros)),
                          log_cost=(ones.bit_count() * math.log(1 / p)
                                    + zeros.bit_count() * math.log(1 / (1 - p))),
                          conditional_mean=Fraction(total, compiled.scale), feasible=True)
    if budget < 3 ** compiled.n_coords:
        raise BudgetExceededError(f"examined {max(budget, 0)} subcubes without concluding",
                                  best_so_far=witness)
    return witness


def tail_log_upper_bound(model, delta, eps, phi_value):
    """Planting cost plus the boundedness correction: an upper bound on the
    negative log upper-tail probability (monotone models).

    Each monomial has at most D = ``model.degree`` coordinates, so the count
    is at most p^-D E[X], with equality for the subgraph and AP models, and
    the correction log(max X / (eps E[X])) is at most D log(1/p) + log(1/eps).
    """
    if not model.monotone:
        raise TypeError("the tail bound applies to monotone models")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if math.isinf(phi_value):
        return math.inf
    if Fraction(eps) * model.p ** model.degree >= 1:
        warnings.warn("eps * p^degree reaches 1: eps * mean may reach the maximum of the "
                      "count, and the bound degenerates", RuntimeWarning, stacklevel=2)
    return phi_value + model.degree * math.log(1 / float(model.p)) + math.log(1 / eps)
