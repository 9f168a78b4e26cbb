"""uptail benchmark: one workload, one process, one query at a time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload search --seed 1 --seconds 36 --trace 0

The workload's seeded query list (``workloads.py``) is sent in-process
through ``uptail.cli.run(argv)`` with stdout captured, one query at a time,
pass after pass, until ``--seconds`` have been spent answering and checking
and at least two passes are done.  Every list holds at least 100 queries, so
at least ten timed answers lie beyond the 90th percentile.  Every answer is
checked (``answers.py``); checking is not timed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median of
the set-ups of fresh interpreters (``probe.py``), one started after every
pass so that the samples span the run, and at least seven; ``wall_s`` is
the mean time of one pass (the host's speed drifts over tens of seconds, and
a mean over the run follows the drift less than a median of a few passes
does); the latency percentiles pool every answer of the run;
``peak_rss_mb`` is this process's peak resident set.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced passes (``tracing.py``),
normalised per pass of the query list, together with the tracing overhead.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import answers  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

P50, P90 = 50, 90
BEYOND = 10               # samples that must lie beyond the highest percentile
MIN_PASSES = 2
SETUP_PROBES = 7          # fewest fresh interpreters whose set-up time is sampled
PROBE_TIMEOUT_S = 170
FRONTIER_COORDS = 21      # phi brute, triangles at n = 7: 2^21 masks
SETUP_SPANS = ("graphs.copies", "aps.progressions")   # first touch, timed in set-up

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "models.cond_mean.calls": "count",
    "models.cond_mean.self_s": "s",
    "models.cond_mean.us_per_call": "us",
    "models.cond_mean.monomial_visits": "count",
    "models.model_mean.calls": "count",
    "models.model_mean.self_s": "s",
    "graphs.copies.self_s": "s",
    "graphs.cond_exp.calls": "count",
    "graphs.cond_exp.self_s": "s",
    "graphs.embeddings.calls": "count",
    "graphs.embeddings.self_s": "s",
    "aps.cond_exp.calls": "count",
    "aps.cond_exp.self_s": "s",
    "aps.progressions.self_s": "s",
    "variational.brute.calls": "count",
    "variational.brute.self_s": "s",
    "variational.brute.masks_per_answer": "count",
    "variational.brute.frontier_projected_s": "s",
    "variational.subcube.calls": "count",
    "variational.subcube.self_s": "s",
    "variational.subcube.evals_per_answer": "count",
    "variational.construct.self_s": "s",
    "variational.closed_form.calls": "count",
    "variational.closed_form.self_s": "s",
    "cores.enumerate.self_s": "s",
    "cores.enumerate.hit_ratio": "ratio",
    "cores.extract.self_s": "s",
    "moments.exact_dist.calls": "count",
    "moments.exact_dist.self_s": "s",
    "moments.exact_dist.outcomes_per_s": "1/s",
    "moments.tuple_moments.self_s": "s",
    "moments.tuple_moments.discarded": "count",
    "moments.stability.self_s": "s",
    "montecarlo.sample.self_s": "s",
    "montecarlo.sample.samples_per_s": "1/s",
    "montecarlo.scaling_2t": "ratio",
    "bounds.embedding_bound.calls": "count",
    "bounds.embedding_bound.self_s": "s",
    "bounds.frac_indep.calls": "count",
    "bounds.frac_indep.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

def min_samples(percent, beyond=BEYOND):
    """Fewest samples that leave ``beyond`` of them above the percentile."""
    return math.ceil(beyond * 100 / (100 - percent))


def nearest_rank(values, percent):
    """Nearest-rank percentile: the smallest value with at least ``percent``
    per cent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percent * len(ordered) / 100))
    return ordered[rank - 1]


def samples_beyond(count, percent):
    return count - max(1, math.ceil(percent * count / 100))


# ---------------------------------------------------------------------------
# Running queries
# ---------------------------------------------------------------------------

class Execution:
    __slots__ = ("argv", "seconds", "code", "stdout", "error", "traced", "ident")

    def __init__(self, argv, seconds, code, stdout, ident):
        self.argv, self.seconds, self.code, self.stdout = argv, seconds, code, stdout
        self.ident, self.error, self.traced = ident, None, False


def answer(cli, argv, ident):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    except Exception:  # a crash is a failed query, not a failed run
        code = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    return Execution(argv, time.perf_counter() - started, code, out.getvalue(), ident)


class Checker:
    """Checks answers once per distinct (query, exit code, output)."""

    def __init__(self, references):
        self.references = references
        self.memo = {}

    def __call__(self, execution):
        key = (" ".join(execution.argv), execution.code, execution.stdout)
        if key not in self.memo:
            self.memo[key] = answers.check(execution.argv, execution.code, execution.stdout,
                                           self.references.get(key[0]))
        execution.error = self.memo[key]
        return execution.error


def run_passes(cli, queries, seconds, check, tracer=None, between=None):
    """Answer the query list pass after pass for ``seconds`` of answering and
    checking.  With a tracer, even passes are untraced and odd passes traced.
    ``between`` is called after each pass, and its time is not counted.
    Returns the list of passes, each a list of Executions."""
    passes = []
    ident = 0
    spent = 0.0
    while len(passes) < MIN_PASSES or spent < seconds:
        started = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        done = []
        try:
            for argv in queries:
                if traced:
                    tracer.query = ident
                execution = answer(cli, argv, ident)
                execution.traced = traced
                done.append(execution)
                ident += 1
        finally:
            if traced:
                tracer.query = None
                tracer.uninstall()
        for execution in done:
            check(execution)
        passes.append(done)
        spent += time.perf_counter() - started
        if between is not None:
            between()
    return passes


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def probe_setup(workload, seed):
    """Set-up time measured in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def pass_seconds(one_pass):
    """Time spent answering one pass of the query list (checking excluded)."""
    return sum(e.seconds for e in one_pass)


def end_to_end(passes, setup_samples):
    latencies = [e.seconds for p in passes for e in p]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.mean(pass_seconds(p) for p in passes),
        "query_p50_ms": nearest_rank(latencies, P50) * 1e3,
        "query_p90_ms": nearest_rank(latencies, P90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def is_frontier(values):
    """Whether a query's flags name the ROADMAP frontier model, triangles at n = 7."""
    return values.get("--model") == "triangles" and values.get("--n") == "7"


def _monomial_count(uptail, model):
    models = uptail.models
    for name in ("monomial_masks", "placement_masks"):
        fn = getattr(models, name, None)
        if fn is None:
            continue
        try:
            return len(fn(model))
        except TypeError:
            continue
    return None


def per_layer(uptail, tracer, passes, scaling):
    """Per-layer metrics of the traced passes, per pass of the query list."""
    spans = tracer.spans
    selves = tracing.self_times(spans)
    traced = [e for p in passes for e in p if e.traced]
    by_id = {e.ident: e for e in traced}
    n_traced = sum(1 for p in passes if p[0].traced)
    in_query = by_id.__contains__
    run = tracing.totals(spans, selves, in_query)
    setup = tracing.totals(spans, selves, lambda q: q == "setup")
    empty = tracing.SpanTotals()
    absent = dict(tracer.absent)

    def get(name):
        return run.get(name, empty)

    m = {}
    for metric in PER_LAYER:
        name, kind = metric.rsplit(".", 1)
        if name in SETUP_SPANS:
            m[metric] = setup.get(name, empty).self_s
        elif kind in ("calls", "self_s"):
            m[metric] = getattr(get(name), kind) / n_traced

    cond = get("models.cond_mean")
    m["models.cond_mean.us_per_call"] = cond.total_s / cond.calls * 1e6 if cond.calls else 0.0
    counts, visits = {}, 0
    for span in spans:
        if span[tracing.NAME] == "models.cond_mean" and in_query(span[tracing.QUERY]) \
                and span[tracing.NOTE] != tracing.ERROR:
            key = span[tracing.NOTE][0]
            if key not in counts:
                counts[key] = _monomial_count(uptail, tracer.models[key])
            visits += counts[key] or 0
    if None in counts.values():
        absent["models.cond_mean.monomial_visits"] = "model monomials not readable"
    m["models.cond_mean.monomial_visits"] = visits / n_traced

    def query_of(span):
        return by_id[span[tracing.QUERY]]

    # masks the subset solver tested: its conditional-mean calls
    masks = tracing.children_named(spans, "variational.brute", "models.cond_mean", in_query)
    m["variational.brute.masks_per_answer"] = \
        sum(masks.values()) / len(masks) if masks else 0.0
    frontier = [(spans[i][tracing.END] - spans[i][tracing.START], count)
                for i, count in masks.items()
                if is_frontier(workloads.flags(query_of(spans[i]).argv))]
    if frontier and sum(k for _, k in frontier):
        per_mask = sum(s for s, _ in frontier) / sum(k for _, k in frontier)
        m["variational.brute.frontier_projected_s"] = per_mask * (1 << FRONTIER_COORDS)
    else:
        m["variational.brute.frontier_projected_s"] = 0.0
        absent.setdefault("variational.brute.frontier_projected_s",
                          "no phi brute answers for triangles at n = 7 in this workload")

    evals = tracing.children_named(spans, "variational.subcube", "models.cond_mean", in_query)
    m["variational.subcube.evals_per_answer"] = \
        sum(evals.values()) / len(evals) if evals else 0.0

    # masks the core census scanned: its conditional means of m forced-on
    # coordinates (the others are the per-item gains of a scanned mask)
    def full_mask(parent, child):
        size = int(workloads.flags(query_of(parent).argv)["--m"])
        return child[tracing.NOTE] != tracing.ERROR and child[tracing.NOTE][1] == size

    scanned = tracing.children_named(spans, "cores.enumerate", "models.cond_mean", in_query,
                                     full_mask)
    censuses = [query_of(spans[i]) for i in scanned]
    hits = sum(json.loads(e.stdout)["count"] for e in censuses if not e.error)
    total = sum(scanned.values())
    m["cores.enumerate.hit_ratio"] = hits / total if total else 0.0

    def rate(name):
        items = [(s[tracing.NOTE], s[tracing.END] - s[tracing.START]) for s in spans
                 if s[tracing.NAME] == name and in_query(s[tracing.QUERY])
                 and isinstance(s[tracing.NOTE], int)]
        seconds = sum(t for _, t in items)
        return sum(n for n, _ in items) / seconds if seconds else 0.0

    m["moments.exact_dist.outcomes_per_s"] = rate("moments.exact_dist")
    m["montecarlo.sample.samples_per_s"] = rate("montecarlo.sample")
    m["moments.tuple_moments.discarded"] = get("moments.tuple_moments").errors / n_traced
    m["montecarlo.scaling_2t"] = scaling if scaling is not None else 0.0
    if scaling is None:
        absent["montecarlo.scaling_2t"] = "no mc sample queries in this workload"

    top = tracing.top_level_seconds(spans, in_query)
    m["cli.self_s"] = sum(e.seconds - top.get(e.ident, 0.0) for e in traced) / n_traced
    untraced = statistics.median(pass_seconds(p) for p in passes if not p[0].traced)
    traced_wall = statistics.median(pass_seconds(p) for p in passes if p[0].traced)
    m["trace.overhead_frac"] = traced_wall / untraced - 1

    for metric in PER_LAYER:
        layer = metric.rsplit(".", 1)[0]
        if layer in tracer.absent:
            absent.setdefault(metric, tracer.absent[layer])
    return m, absent


def thread_scaling(cli, queries):
    """Time of the list's mc sample queries at one thread over their time at
    UPTAIL_THREADS=2, each query answered at both settings back to back."""
    mc = [argv for argv in queries if argv[:2] == ["mc", "sample"]]
    if not mc:
        return None
    seconds = {"1": 0.0, "2": 0.0}
    try:
        for argv in mc:
            for threads in seconds:
                os.environ["UPTAIL_THREADS"] = threads
                seconds[threads] += answer(cli, argv, None).seconds
    finally:
        os.environ["UPTAIL_THREADS"] = workloads.THREADS
    return seconds["1"] / seconds["2"]


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def git_sha(root):
    """Commit of the checkout read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args, passes, load_start):
    import numpy
    root = probe.ROOT
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "UPTAIL_THREADS": os.environ.get("UPTAIL_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_seconds": [pass_seconds(p) for p in passes],
        "queries_per_pass": len(passes[0]),
        "answers_timed": sum(len(p) for p in passes),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="uptail benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def load_references(workload):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def main(argv=None):
    args = parse_args(argv)
    if not probe.have_source():
        print(f"no uptail source at {probe.SRC}: the benchmark must sit in a checkout of uptail",
              file=sys.stderr)
        return 2
    load_start = os.getloadavg()[0]
    os.environ["UPTAIL_THREADS"] = workloads.THREADS
    queries = workloads.query_list(args.workload, args.seed)
    specs = workloads.model_specs(queries)
    check = Checker(load_references(args.workload))

    tracer = None
    if args.trace:
        _, uptail = probe.setup([])
        tracer = tracing.Tracer()
        tracer.install()
        tracer.query = "setup"
        try:
            probe.setup(specs)
        finally:
            tracer.query = None
            tracer.uninstall()
    else:
        _, uptail = probe.setup(specs)

    # set-up is sampled after every pass, so that its median spans the run
    setup_samples = []

    def sample_setup():
        setup_samples.append(probe_setup(args.workload, args.seed))

    between = None if args.trace else sample_setup
    passes = run_passes(uptail.cli, queries, args.seconds, check, tracer, between)
    while between is not None and len(setup_samples) < SETUP_PROBES:
        sample_setup()
    if args.trace:
        scaling = thread_scaling(uptail.cli, queries)
        metrics, absent = per_layer(uptail, tracer, passes, scaling)
        units = PER_LAYER
    else:
        metrics, absent, units = end_to_end(passes, setup_samples), {}, END_TO_END

    executions = [e for p in passes for e in p]
    failures = [e for e in executions if e.error]
    record = run_record(args, passes, load_start)
    record["setup_samples_s"] = None if args.trace else setup_samples
    record["absent"] = absent
    record["failures"] = sorted({f"{' '.join(e.argv)}: {e.error}" for e in failures})[:20]
    record["samples_beyond_p90"] = samples_beyond(len(executions), P90)
    for name, value in metrics.items():
        note = f"  (absent: {absent[name]})" if name in absent else ""
        print(f"{args.workload:10s} {name:42s} {value:16.6f} {units[name]}{note}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(executions),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
