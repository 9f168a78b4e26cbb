"""Greedy core extraction, the exhaustive core census (the core predicate
decided in batches by the exact kernel), the exact test of its stability
bound, and the exact per-edge gain decomposition for the triangle model:
each core edge's completing vertices, split by how many of its endpoints
they meet in the core.

A conditioning object is an IntegerSet for AP models and a subgraph of K_n
for subgraph models; everything is reduced to coordinate masks internally.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice

from .graphs import SubgraphModel, are_isomorphic, complete_graph
from .models import _masks_by_size, compile_model, model_mean
from .variational import BudgetExceededError

PASSES_BITS = 1 << 12   # size, in bits, within which a census's ``passes`` is decided


@dataclass(frozen=True)
class CoreParams:
    model: object
    delta: float
    eps: float
    K: float            # size/gain constant, supplied by the user
    phi_plus: float     # the value standing in for the (delta+eps)-level cost

    def __post_init__(self):
        if not 0 < self.eps < 0.5:
            raise ValueError("eps must lie in (0, 1/2)")
        if self.K <= 0 or self.phi_plus <= 0:
            raise ValueError("K and phi_plus must be positive")


def _single_item_masks(mask):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _removal_rows(mask):
    """The mask, then the mask with each forced item released in turn."""
    return [mask] + [mask & ~low for low in _single_item_masks(mask)]


def _gains_by_bit(compiled, mask):
    """b^D E[X | mask] and, per one-item mask, b^D times the drop of the
    conditional mean when that item is released; exact integers."""
    full, *rest = compiled.scaled_means(_removal_rows(mask)).tolist()
    return full, {low: full - s for low, s in zip(_single_item_masks(mask), rest)}


def extract_core(model, conditioning, s):
    """Peel items whose gain falls below s/|I_original| until none is left.

    The threshold is fixed by the ORIGINAL size throughout the peeling, so
    the total loss telescopes to at most s.  Ties go to the smallest gain,
    then the smallest coordinate.
    """
    s = Fraction(s)
    if s < 0:
        raise ValueError("s must be nonnegative")
    mask = model.to_mask(conditioning)
    original_size = bin(mask).count("1")
    if original_size == 0:
        return conditioning
    compiled = compile_model(model)
    # a scaled gain is below s/|I| exactly when it is below this bound
    threshold = compiled.scaled_bound(s / original_size)
    while mask:
        _, gains = _gains_by_bit(compiled, mask)
        removable = [(g, low) for low, g in gains.items() if g < threshold]
        if not removable:
            break
        _, victim = min(removable, key=lambda t: (t[0], t[1]))
        mask &= ~victim
    return model.from_mask(mask)


@dataclass(frozen=True)
class CoreReport:
    model: object
    size: int
    count: int
    masks: tuple            # the witnesses' coordinate masks, increasing
    stability_bound: float
    passes: bool

    @property
    def witnesses(self):
        """The witnesses as conditioning objects, built on each read."""
        return tuple(map(self.model.from_mask, self.masks))

    def to_json(self):
        head = json.dumps({
            "size": self.size,
            "count": self.count,
            "stability_bound": self.stability_bound,
            "passes": self.passes,
        }, sort_keys=True)
        # a block of witnesses at a time: a census can hold thousands, and one
        # json.dumps over all of them holds every token of the output at once
        blocks = (json.dumps(list(map(self.model.mask_items, self.masks[i:i + 256])))[1:-1]
                  for i in range(0, len(self.masks), 256))
        return f'{head[:-1]}, "witnesses": [{", ".join(blocks)}]}}'


def enumerate_cores(params, m, budget=5_000_000):
    """Exhaustive scan of all size-m conditioning sets against the core
    predicate."""
    model = params.model
    n = model.ground_size
    if m > n:
        return CoreReport(model=model, size=m, count=0, masks=(),
                          stability_bound=_stability_bound(model, params.eps, m), passes=True)
    if math.comb(n, m) > budget:
        raise BudgetExceededError(
            f"C({n},{m}) = {math.comb(n, m)} subsets exceed the budget {budget}")
    mean = model_mean(model)
    compiled = compile_model(model)
    bias_floor = compiled.scaled_bound((1 + Fraction(params.delta) - Fraction(params.eps)) * mean)
    gain_floor = compiled.scaled_bound(mean / (Fraction(params.K) * Fraction(params.phi_plus)))
    size_ok = m <= params.K * params.phi_plus
    found = []
    if size_ok:
        masks = _masks_by_size(n, m)
        # each mask and its m one-item removals, many masks per batch
        per_batch = max(1, compiled.batch_rows // (m + 1))
        while chunk := list(islice(masks, per_batch)):
            sums = compiled.scaled_means(
                [row for mask in chunk for row in _removal_rows(mask)]).reshape(len(chunk), m + 1)
            full = sums[:, :1]
            is_core_row = (full[:, 0] >= bias_floor) & (full - sums[:, 1:] >= gain_floor).all(axis=1)
            found.extend(mask for mask, ok in zip(chunk, is_core_row.tolist()) if ok)
    return CoreReport(model=model, size=m, count=len(found), masks=tuple(sorted(found)),
                      stability_bound=_stability_bound(model, params.eps, m),
                      passes=_within_stability_bound(len(found), model.p, params.eps, m))


def _stability_bound(model, eps, m):
    # the value printed, in floats from the rounded eps; ``passes`` is exact
    return float(1 / Fraction(model.p)) ** (float(eps) * m / 2)


def _within_stability_bound(count, p, eps, m):
    """count <= (1/p)^{eps m/2}, decided exactly.  With p = a/b and
    eps m/2 = u/v this is count^v a^u <= b^u, compared in integers when
    both sides fit in PASSES_BITS bits.  Otherwise (a float eps has v near
    2^54) it is the sign of v ln count - u ln b + u ln a (``logs_below_zero``)."""
    p, x = Fraction(p), Fraction(eps) * m / 2
    a, b, u, v = p.numerator, p.denominator, x.numerator, x.denominator
    if count <= 1:
        return True                 # the bound is at least 1
    if max(v * count.bit_length() + u * a.bit_length(), u * b.bit_length()) <= PASSES_BITS:
        return count ** v * a ** u <= b ** u
    return logs_below_zero([(v, count), (-u, b), (u, a)], 0,
                           f"{count} cores and (1/p)^(eps m/2)")


def logs_below_zero(terms, constant, sides):
    """Whether sum(c ln k for c, k in terms) + constant < 0 (integers k > 0,
    a rational constant), from correctly rounded decimal logs at up to
    PASSES_BITS bits of precision, once the sum exceeds a proven bound on the
    rounding error; BudgetExceededError, naming the ``sides``, if none does."""
    constant = Fraction(constant)
    # ln k < bit_length(k), so the parts' magnitudes sum to less than size
    size = sum(abs(c) * k.bit_length() for c, k in terms) + math.ceil(abs(constant))
    digits = 40
    while digits * 10 <= PASSES_BITS * 3:           # 10^digits < 2^PASSES_BITS
        with localcontext() as ctx:
            ctx.prec = digits
            gap = sum((c * Decimal(k).ln() for c, k in terms),
                      Decimal(constant.numerator) / constant.denominator)
            # logs, products and the quotient, within 2h size together
            # (h = 10^(1-digits)/2 of each magnitude), and len(terms) sums leave
            # gap within (len(terms) + 2) h size; the test keeps a factor of 2
            if abs(gap) > Decimal((len(terms) + 2) * size).scaleb(1 - digits):
                return gap < 0
        digits *= 2
    raise BudgetExceededError(f"{sides} are not ordered within {PASSES_BITS} bits")


# ---------------------------------------------------------------------------
# Exact per-edge gain decomposition (triangle model)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeClass:
    closing: int            # third vertices adjacent to both endpoints
    one_sided: int          # third vertices adjacent to exactly one endpoint
    isolated: int           # remaining third vertices
    gain: Fraction          # (1-p)(closing + one_sided p + isolated p^2)


def classify_core_edges(model, core_graph):
    """For each core edge, split the n-2 completing vertices by how they meet
    the core."""
    if not isinstance(model, SubgraphModel) or not are_isomorphic(model.pattern, complete_graph(3)):
        raise ValueError("edge classification is defined for the triangle model")
    n, p = model.n, model.p
    result = {}
    for u, v in sorted(core_graph.edges):
        closing = one_sided = 0
        for w in range(n):
            if w in (u, v):
                continue
            hits = core_graph.has_edge(u, w) + core_graph.has_edge(v, w)
            if hits == 2:
                closing += 1
            elif hits == 1:
                one_sided += 1
        isolated = (n - 2) - closing - one_sided
        gain = (1 - p) * (closing + one_sided * p + isolated * p ** 2)
        result[(u, v)] = EdgeClass(closing=closing, one_sided=one_sided,
                                   isolated=isolated, gain=gain)
    return result
