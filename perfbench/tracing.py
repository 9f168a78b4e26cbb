"""Spans around the calls into each uptail module's public functions.

``Tracer.install`` replaces every target function by a recording wrapper in
*every* loaded ``uptail`` module that holds it, because `variational`,
`cores`, `moments` and `montecarlo` bind names such as
``conditional_mean_given_mask`` with ``from .models import ...``; patching
only the defining module would count none of those calls.  Names imported
inside a function body are looked up in the defining module at call time,
so they are covered as well.  A target that no longer exists is reported as
absent instead of failing the run.

A span is ``(name, start, end, parent, query, note)``; spans stay in memory
and the per-layer numbers are computed from them after the run.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# (span name, defining module, function name)
TARGETS = (
    ("models.cond_mean", "models", "conditional_mean_given_mask"),
    ("models.cond_mean", "models", "conditional_mean_given_subcube"),
    ("models.model_mean", "models", "model_mean"),
    ("graphs.copies", "graphs", "model_copies"),
    ("graphs.cond_exp", "graphs", "conditional_expectation_subgraph"),
    ("graphs.embeddings", "graphs", "enumerate_embeddings"),
    ("aps.cond_exp", "aps", "conditional_expectation_ap"),
    ("aps.progressions", "aps", "progression_masks"),
    ("variational.brute", "variational", "min_conditioning_witness"),
    ("variational.subcube", "variational", "min_subcube_witness"),
    ("variational.construct", "variational", "build_construction"),
    ("variational.closed_form", "variational", "min_planting_cost"),
    ("variational.closed_form", "variational", "theta_root"),
    ("cores.enumerate", "cores", "enumerate_cores"),
    ("cores.extract", "cores", "extract_core"),
    ("moments.exact_dist", "moments", "exact_distribution"),
    ("moments.tuple_moments", "moments", "factorial_moments_tuple_sum"),
    ("moments.stability", "moments", "stability_inequality_check"),
    ("montecarlo.sample", "montecarlo", "sample_tail"),
    ("bounds.embedding_bound", "bounds", "embedding_bound"),
    ("bounds.frac_indep", "bounds", "fractional_independence"),
)

NAME, START, END, PARENT, QUERY, NOTE = range(6)
ERROR = "error"


def _note(tracer, name, args, result):
    """What a span remembers beyond its times: for a conditional mean, the
    model (by id, kept alive in ``tracer.models``) and the number of
    coordinates forced on; the outcome count of a distribution; the samples
    of a sampler."""
    if name == "models.cond_mean" and args:
        tracer.models.setdefault(id(args[0]), args[0])
        ones = args[1] if len(args) > 1 and isinstance(args[1], int) else None
        return (id(args[0]), None if ones is None else bin(ones).count("1"))
    if name == "moments.exact_dist":
        return getattr(result, "n_outcomes", None)
    if name == "montecarlo.sample":
        return getattr(result, "samples", None)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.query = None
        self.models = {}
        self.absent = {}          # span name -> reason
        self._patched = []        # (module, attribute, original)

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            # finished spans are tuples of atoms, which the garbage
            # collector stops tracking, so long runs do not slow it down
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, self.query, ERROR)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[index] = (name, start, end, parent, self.query,
                            _note(self, name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package="uptail", targets=TARGETS):
        """Wrap every target wherever a loaded ``package`` module binds it."""
        loaded = [m for key, m in list(sys.modules.items())
                  if m is not None and (key == package or key.startswith(package + "."))]
        found, missing = set(), {}
        for name, module_name, attr in targets:
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                missing.setdefault(name, []).append(f"{package}.{module_name}.{attr}")
                continue
            found.add(name)
            wrapper = self.wrap(name, original)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        for name, functions in missing.items():
            if name not in found:
                self.absent[name] = f"{', '.join(functions)} not found"

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()


@dataclass
class SpanTotals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    errors: int = 0


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def totals(spans, selves, keep):
    """SpanTotals per span name over the spans whose query passes ``keep``."""
    out = {}
    for span, own in zip(spans, selves):
        if not keep(span[QUERY]):
            continue
        t = out.setdefault(span[NAME], SpanTotals())
        t.calls += 1
        t.self_s += own
        t.total_s += span[END] - span[START]
        t.errors += span[NOTE] == ERROR
    return out


def top_level_seconds(spans, keep):
    """Summed duration of spans with no traced parent, per query id."""
    out = {}
    for span in spans:
        if span[PARENT] < 0 and keep(span[QUERY]):
            out[span[QUERY]] = out.get(span[QUERY], 0.0) + span[END] - span[START]
    return out


def children_named(spans, parent_name, child_name, keep, where=None):
    """Number of ``child_name`` spans directly under each ``parent_name``
    span (index -> count), counting only children that pass
    ``where(parent, child)`` when it is given."""
    counts = {}
    for i, span in enumerate(spans):
        if span[NAME] == parent_name and keep(span[QUERY]):
            counts[i] = 0
    for span in spans:
        if span[NAME] == child_name and span[PARENT] in counts:
            if where is None or where(spans[span[PARENT]], span):
                counts[span[PARENT]] += 1
    return counts
