"""Exact distributions on the p-biased hypercube, factorial moments both
ways, the Markov-side Poisson bound, the hypergeometric second-moment
check, and the exact check of the blocked-tail moment inequality.

Everything probabilistic here is an exact rational, and every verdict is
decided exactly; floats only appear in the reported bound values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_

import numpy as np

from .aps import ApModel, extremal_ap_count
from .cores import logs_below_zero
from .models import compile_model, model_mean, row_masks
from .variational import BudgetExceededError

MAX_COORDS = 22
BLOCK_BITS = 15         # 2^15 outcomes per enumeration block: 32 KB of rows per coordinate
JANSON_BUDGET = 1 << 24  # membership tests one hypergeometric Janson check may make


@dataclass(frozen=True)
class ExactDist:
    pmf: dict               # value -> Fraction
    n_outcomes: int

    def tail_at_least(self, threshold):
        """P(X >= threshold), exact for a rational threshold."""
        threshold = Fraction(threshold)
        return sum((pr for v, pr in self.pmf.items() if v >= threshold), Fraction(0))

    def to_json(self):
        import json
        return json.dumps(
            {str(v): f"{pr.numerator}/{pr.denominator}" for v, pr in sorted(self.pmf.items())},
            sort_keys=True)


def exact_distribution(model):
    """Full enumeration of the 2^N outcomes into an exact pmf of the count."""
    n = model.ground_size
    if n > MAX_COORDS:
        raise BudgetExceededError(f"{n} coordinates exceed the {MAX_COORDS}-coordinate cap")
    # X never exceeds the number of monomials: one count per (X, coordinates on)
    size = (len(compile_model(model).rows) + 1) * (n + 1)
    counts = np.zeros(size, dtype=np.int64)
    for _, ones, values in outcome_blocks(model):
        counts += np.bincount(values * (n + 1) + ones, minlength=size)

    p = Fraction(model.p)
    q = 1 - p
    weight = [p ** j * q ** (n - j) for j in range(n + 1)]
    pmf = {}
    for index in np.flatnonzero(counts).tolist():
        v, j = divmod(index, n + 1)
        pmf[v] = pmf.get(v, Fraction(0)) + int(counts[index]) * weight[j]
    assert sum(pmf.values()) == 1
    return ExactDist(pmf=pmf, n_outcomes=1 << n)


def outcome_blocks(model):
    """(first outcome, coordinates on, X) per block of consecutive outcomes,
    2^BLOCK_BITS at a time, over all 2^N outcomes in order; outcome o sets
    coordinate i to bit i of o."""
    n = model.ground_size
    values = compile_model(model).values
    low = min(n, BLOCK_BITS)
    offsets = np.arange(1 << low, dtype=np.uint32)
    ones = np.bitwise_count(offsets).astype(np.int64)
    rows = np.empty((n, 1 << low), dtype=np.uint8)
    for i in range(low):
        rows[i] = offsets >> i & 1
    for first in range(0, 1 << n, 1 << low):
        for i in range(low, n):
            rows[i] = first >> i & 1
        yield first, ones + first.bit_count(), values(rows)


def extremal_ap_violations(n, k_max):
    """The subsets of {1..n} holding more k-term progressions than an
    interval of their size, summed over k = 3..k_max."""
    if n > MAX_COORDS:
        raise BudgetExceededError(f"{n} elements exceed the {MAX_COORDS}-coordinate cap")
    violations = 0
    for k in range(3, k_max + 1):
        table = np.array([extremal_ap_count(m, k) for m in range(n + 1)])
        for _, sizes, counts in outcome_blocks(ApModel(n, k, Fraction(1, 2))):
            violations += int((counts > table[sizes]).sum())
    return violations


# ---------------------------------------------------------------------------
# Factorial moments
# ---------------------------------------------------------------------------

def factorial_moments_from_dist(dist, t_max):
    return [sum((Fraction(math.perm(v, t)) * pr for v, pr in dist.pmf.items()), Fraction(0))
            for t in range(t_max + 1)]


def factorial_moments_tuple_sum(model, t_max, budget=2_000_000):
    """M_t as the sum over ordered t-tuples of distinct monomials of
    p^{|union|}; exact, no early exit.  The unions of t-sets of monomials,
    each standing for t! tuples, are counted per size as integers, and each
    size is weighted by p^size once.  ``budget`` caps the tuples through t."""
    if not model.monotone:
        raise TypeError("tuple-sum moments are defined for monotone models")
    masks = row_masks(compile_model(model).rows)
    p = model.p
    moments = [Fraction(1)]
    tuples = 0
    for t in range(1, t_max + 1):
        tuples += math.perm(len(masks), t)
        if tuples > budget:
            raise BudgetExceededError(f"more than {budget} tuples at t={t}")
        by_size = [0] * (model.ground_size + 1)
        for chosen in combinations(masks, t):
            by_size[reduce(or_, chosen).bit_count()] += 1
        moments.append(math.factorial(t) * sum(
            (count * p ** size for size, count in enumerate(by_size) if count), Fraction(0)))
    return moments


@dataclass(frozen=True)
class FactorialMoments:
    from_dist: list
    from_tuples: list | None


def factorial_moments(model, t_max):
    """Both computations of M_0..M_{t_max}; the tuple route degrades to None
    past its budget."""
    dist = exact_distribution(model)
    from_dist = factorial_moments_from_dist(dist, t_max)
    try:
        from_tuples = factorial_moments_tuple_sum(model, t_max)
    except BudgetExceededError:
        from_tuples = None
    return FactorialMoments(from_dist=from_dist, from_tuples=from_tuples)


def poisson_markov_bounds(threshold, moments):
    """log ff(threshold, t) - log M_t for t = 1..len(moments) - 1, read off
    the factorial moments M_0..M_t of an integer-valued nonnegative count:
    each is a lower bound on -log P(X >= threshold), inf where M_t = 0."""
    if len(moments) - 1 > threshold:
        raise ValueError("t must satisfy 1 <= t <= threshold")
    x = float(threshold)
    bounds = []
    log_ff = 0
    for t in range(1, len(moments)):
        log_ff += math.log(x - (t - 1))
        bounds.append(log_ff - math.log(moments[t]) if moments[t] > 0 else math.inf)
    return bounds


# ---------------------------------------------------------------------------
# Hypergeometric second-moment (Janson-style) check
# ---------------------------------------------------------------------------

def check_janson_budget(t, s, members):
    """Refuse, before any work, a Janson check on a family of ``members``
    sets whose tests (each s-subset of range(t) against every member, and
    every pair of members) would pass ``JANSON_BUDGET``."""
    if not 0 <= s <= t:
        raise ValueError("s must lie between 0 and t")
    if (math.comb(t, s) + members) * max(1, members) > JANSON_BUDGET:
        raise BudgetExceededError(f"checking C({t},{s}) subsets against {members} sets "
                                  f"exceeds {JANSON_BUDGET} tests")


def janson_family(t, s, kind, count, seed):
    """Every pair or every triple of range(t) (``kind`` "pairs", "triples"),
    or else ``count`` seeded random subsets of it; refused before it is built
    when the check of the s-subsets against it would pass the budget."""
    size = {"pairs": 2, "triples": 3}.get(kind)
    members = count if size is None else math.comb(max(t, 0), size)
    check_janson_budget(t, s, members)
    if size is not None:
        return [list(c) for c in combinations(range(t), size)]
    rng = random.Random(seed)
    family = []
    for _ in range(count):
        size = rng.randint(1, max(1, t // 2))
        family.append(sorted(rng.sample(range(t), size)))
    return family


def hypergeometric_janson_check(family, t, s, eps):
    """Exact lower-tail probability of the hypergeometric cover count versus
    the 2 exp(-eps^2 mu^2 / (2(mu+Delta))) bound.

    ``family`` lists subsets of range(t); S is a uniform s-subset; Z counts
    members contained in S.  Returns (exact, bound, holds): the bound is
    reported as a float, and ``holds`` is decided exactly.
    """
    members = [frozenset(b) for b in family]
    check_janson_budget(t, s, len(members))
    ratio = Fraction(s, t) if t else Fraction(0)
    mu = sum((ratio ** len(b) for b in members), Fraction(0))
    delta_term = Fraction(0)
    for i, b1 in enumerate(members):
        for j, b2 in enumerate(members):
            if i != j and b1 & b2:
                delta_term += ratio ** len(b1 | b2)
    cut = (1 - Fraction(eps)) * mu
    # the s-subsets S with Z <= cut
    hits = sum(sum(b <= pack for b in members) <= cut
               for pack in map(set, combinations(range(t), s)))
    total = math.comb(t, s)
    spread = mu + delta_term
    x = Fraction(eps) ** 2 * mu ** 2 / (2 * spread) if spread else Fraction(0)
    exponent = -float(eps) ** 2 * float(mu) ** 2 / (2 * float(spread)) if spread else 0.0
    # hits/total <= 2 exp(-x) is ln hits - ln(2 total) + x <= 0; exp(-x) is
    # irrational for rational x != 0, and 2 > 1 at x = 0: the sides never tie
    holds = hits == 0 or logs_below_zero([(1, hits), (-1, 2 * total)], x,
                                         "the exact tail and 2 exp(-x)")
    return Fraction(hits, total), 2 * math.exp(exponent), holds


# ---------------------------------------------------------------------------
# Exact verification of the blocked-tail moment inequality
# ---------------------------------------------------------------------------

def stability_inequality_check(model, delta, eps, ell):
    """P(X >= (1+delta)E[X] and no qualifying set fully present) versus
    ((1+delta-eps)/(1+delta))^ell (monotone models): the left side is exact,
    and whether it holds is decided against the exact bound, which is
    returned as a float.

    Qualifying sets are those of at most degree*ell coordinates whose
    conditional mean reaches (1+delta-eps)E[X].
    """
    if not model.monotone:
        raise TypeError("the stability check applies to monotone models")
    n = model.ground_size
    if n > MAX_COORDS:
        raise BudgetExceededError(f"{n} coordinates exceed the {MAX_COORDS}-coordinate cap")
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    mean = model_mean(model)
    compiled = compile_model(model)
    bias_bound = compiled.scaled_bound((1 + Fraction(delta) - Fraction(eps)) * mean)
    size_cap = min(n, model.degree * ell)
    blocked = np.zeros(1 << n, dtype=bool)
    # consecutive masks, 2^BLOCK_BITS at a time; n <= MAX_COORDS fits one word
    for first in range(0, 1 << n, 1 << BLOCK_BITS):
        masks = np.arange(first, min(first + (1 << BLOCK_BITS), 1 << n))
        masks = masks[np.bitwise_count(masks) <= size_cap]
        sums = compiled.scaled_means(masks.astype(np.uint64)[:, None])
        blocked[masks[sums >= bias_bound]] = True
    blockers = int(blocked.sum())
    # an outcome is blocked when it contains a qualifying set: close the
    # marks upwards one coordinate at a time
    for i in range(n):
        halves = blocked.reshape(-1, 2, 1 << i)
        halves[:, 1] |= halves[:, 0]
    tail_bound = math.ceil((1 + Fraction(delta)) * mean)
    counts = np.zeros(n + 1, dtype=np.int64)
    for first, ones, values in outcome_blocks(model):
        kept = (values >= tail_bound) & ~blocked[first:first + len(values)]
        counts += np.bincount(ones[kept], minlength=n + 1)
    p = Fraction(model.p)
    q = 1 - p
    lhs = sum((int(c) * p ** j * q ** (n - j) for j, c in enumerate(counts) if c), Fraction(0))
    # the bound is reported as a float, and decided exactly
    exact_bound = ((1 + Fraction(delta) - Fraction(eps)) / (1 + Fraction(delta))) ** ell
    bound = ((1 + float(delta) - float(eps)) / (1 + float(delta))) ** ell
    return lhs, bound, lhs <= exact_bound, blockers
