"""Tests of the benchmark's own machinery, on tiny query lists.

Run from the root of the checkout: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import answers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# Percentile rule
# ---------------------------------------------------------------------------

def test_min_samples_leaves_ten_beyond_p90():
    assert run.min_samples(90) == 100
    assert run.min_samples(50) == 20
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(99, 90) == 9


def test_nearest_rank():
    values = list(range(100, 0, -1))          # 1..100, unsorted
    assert run.nearest_rank(values, 90) == 90
    assert run.nearest_rank(values, 50) == 50
    assert run.nearest_rank([7.0], 90) == 7.0
    assert run.nearest_rank([3, 1, 2], 50) == 2


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_query_list_has_ten_beyond_p90(workload):
    queries = workloads.query_list(workload, 1)
    assert len(queries) >= run.min_samples(run.P90)
    assert run.samples_beyond(len(queries), run.P90) >= run.BEYOND


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_query_lists_are_seeded(workload):
    a, b = workloads.query_list(workload, 3), workloads.query_list(workload, 3)
    assert a == b
    assert a != workloads.query_list(workload, 4)
    # the seed changes order and variants, never the amount of work per slot
    assert len(a) == len(workloads.query_list(workload, 4))


def test_wall_is_the_mean_pass_and_percentiles_pool_every_answer():
    def pass_of(*seconds):
        return [run.Execution(["q"], s, 0, "", i) for i, s in enumerate(seconds)]

    passes = [pass_of(*[0.01] * 50), pass_of(*[0.02] * 50), pass_of(*[0.03] * 49, 1.0)]
    e2e = run.end_to_end(passes, [3.0, 1.0, 2.0, 9.0, 0.5])
    assert e2e["setup_s"] == 2.0                      # median of the set-ups
    assert math.isclose(e2e["wall_s"], (0.5 + 1.0 + 2.47) / 3)
    assert math.isclose(e2e["query_p50_ms"], 20.0)
    assert math.isclose(e2e["query_p90_ms"], 30.0)


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------

def _span(name, start, end, parent, query=0, note=None):
    return (name, start, end, parent, query, note)


SPANS = [
    _span("a", 0.0, 10.0, -1),        # 0: children 1 and 3
    _span("b", 1.0, 4.0, 0),          # 1: child 2
    _span("c", 2.0, 3.0, 1),          # 2
    _span("c", 5.0, 6.0, 0),          # 3
    _span("a", 20.0, 21.0, -1, 1, tracing.ERROR),
    _span("a", 30.0, 31.0, -1, "setup"),
]


def test_self_time_subtracts_direct_children_only():
    selves = tracing.self_times(SPANS)
    assert selves[:4] == [6.0, 2.0, 1.0, 1.0]
    # self times of a tree add up to the root's duration
    assert sum(selves[:4]) == SPANS[0][tracing.END] - SPANS[0][tracing.START]


def test_totals_filter_by_query_and_count_errors():
    selves = tracing.self_times(SPANS)
    got = tracing.totals(SPANS, selves, lambda q: q in (0, 1))
    assert got["a"].calls == 2 and got["a"].self_s == 7.0 and got["a"].errors == 1
    assert got["a"].total_s == 11.0
    assert got["c"].calls == 2 and got["c"].self_s == 2.0
    setup = tracing.totals(SPANS, selves, lambda q: q == "setup")
    assert list(setup) == ["a"] and setup["a"].calls == 1


def test_top_level_and_children():
    keep = lambda q: q in (0, 1)  # noqa: E731
    assert tracing.top_level_seconds(SPANS, keep) == {0: 10.0, 1: 1.0}
    assert tracing.children_named(SPANS, "a", "c", keep) == {0: 1, 4: 0}
    late = lambda parent, child: child[tracing.START] > 4.0  # noqa: E731
    assert tracing.children_named(SPANS, "a", "b", keep, late) == {0: 0, 4: 0}
    assert tracing.children_named(SPANS, "a", "c", keep, late) == {0: 1, 4: 0}


# ---------------------------------------------------------------------------
# Answer comparison
# ---------------------------------------------------------------------------

def test_exact_fields_must_match():
    ref = {"conditional_mean": "37/32", "payload": {"edges": [[0, 1], [0, 2]]}}
    assert answers.compare_json(ref, json.loads(json.dumps(ref))) is None
    assert answers.compare_json(ref, {**ref, "conditional_mean": "37/33"})
    assert answers.compare_json(ref, {**ref, "payload": {"edges": [[0, 1]]}})
    assert answers.compare_json(ref, {"conditional_mean": "37/32"})
    assert answers.compare_json({"hits": 5}, {"hits": 5.0})    # an int stays an int
    assert answers.compare_json({"holds": True}, {"holds": 1})


def test_floats_within_tolerance():
    assert answers.compare_json({"x": 1.0}, {"x": 1.0 + 1e-12}) is None
    assert answers.compare_json({"x": 1.0}, {"x": 1.0 + 1e-6})
    assert answers.compare_json({"x": 0.0}, {"x": 1e-13}) is None


def test_skipped_fields_are_ignored():
    assert answers.compare_json({"violations": 0, "seconds": 0.4},
                                {"violations": 0, "seconds": 9.9}) is None
    assert answers.compare_json({"violations": 0, "seconds": 0.4},
                                {"violations": 1, "seconds": 0.4})


def test_exit_code_and_missing_reference_fail():
    ref = {"code": 0, "stdout": '{"a": 1}\n'}
    argv = ["dist", "exact"]
    assert answers.check(argv, 0, '{"a": 1}\n', ref) is None
    assert answers.check(argv, 3, '{"a": 1}\n', ref)
    assert answers.check(argv, 0, '{"a": 1}\n', None)


def test_rates_are_checked_against_an_independent_grid():
    argv = "rate clique --r 3 --delta 1.3 --c 2.7".split()
    phi = answers.grid_min_planting_cost(3, 1.3, 2.7)
    assert answers.check(argv, 0, json.dumps({"phi": phi, "argmins": [1.0]}), None) is None
    assert answers.check(argv, 0, json.dumps({"phi": phi - 1e-6, "argmins": [1.0]}), None)
    assert answers.check(argv, 2, "", None)
    ap = "rate ap --delta 1".split()
    good = {"localised_rate": 1.0, "poisson_rate_per_mean": 2 * math.log(2) - 1}
    assert answers.check(ap, 0, json.dumps(good), None) is None
    assert answers.check(ap, 0, json.dumps({**good, "localised_rate": 1.1}), None)


def test_regular_rate_uses_the_independence_polynomial():
    assert answers.independence_counts(*answers.decode_graph6("Bw")) == [1, 3, 0, 0]
    assert answers.independence_counts(*answers.decode_graph6("Cl")) == [1, 4, 2, 0, 0]
    argv = "rate regular --pattern Bw --delta 1 --c inf".split()
    out = {"rate": 1 / 3, "theta": 1 / 3}
    assert answers.check(argv, 0, json.dumps(out), None) is None
    assert answers.check(argv, 0, json.dumps({"rate": 0.4, "theta": 0.4}), None)


def test_clique_rate_argmins_are_the_minimisers():
    argv = "rate clique --r 3 --delta 1.3 --c 2.7".split()
    phi = answers.grid_min_planting_cost(3, 1.3, 2.7)
    assert answers.check(argv, 0, json.dumps({"phi": phi, "argmins": [0.0]}), None)
    assert answers.check(argv, 0, json.dumps({"phi": phi, "argmins": [0.5]}), None)
    assert answers.check(argv, 0, json.dumps({"phi": phi, "argmins": [0.0, 1.0]}), None)
    # c = inf: clique and hub tie where delta^(2/3) / 2 = delta / 3
    tie = 27 / 8
    argv = f"rate clique --r 3 --delta {tie!r} --c inf".split()
    assert answers.check(argv, 0, json.dumps({"phi": tie / 3, "argmins": [0.0, 1.0]}),
                         None) is None
    assert answers.check(argv, 0, json.dumps({"phi": tie / 3, "argmins": [1.0]}), None)


def test_the_snap_defect_reads_as_a_failure():
    # t = delta c / r lies 5e-10 above 1: snapping it to 1 drops sqrt(5e-10) / c
    argv = "rate clique --r 3 --delta 1.0000000005 --c 3".split()
    snapped = {"phi": 1 / 3, "argmins": [0.9999999995, 1.0]}
    assert "grid minimum" in answers.check(argv, 0, json.dumps(snapped), None)


def _phase_rows(r, cells):
    rows = ["delta,c,phi,argmin_label"]
    for d, c, label in cells:
        rows.append(f"{d:.12g},{c:.12g},{answers.grid_min_planting_cost(r, d, c):.12g},{label}")
    return rows


def test_phase_diagram_checks_every_row_and_label():
    import uptail.cli
    argv = "phase-diagram --r 3 --delta-grid 0.5:1:0.5 --c-grid 1:2:1".split()
    program = run.answer(uptail.cli, argv, 0)
    assert program.code == 0 and answers.check(argv, 0, program.stdout, None) is None
    rows = _phase_rows(3, [(0.5, 1.0, "clique"), (0.5, 2.0, "hub"),
                           (1.0, 1.0, "clique"), (1.0, 2.0, "hub")])
    assert answers.check(argv, 0, "\n".join(rows) + "\n", None) is None
    assert answers.check(argv, 0, "\n".join(rows[:-1]) + "\n", None)
    for i in range(1, len(rows)):
        bad = list(rows)
        d, c, phi, label = bad[i].split(",")
        bad[i] = f"{d},{c},{float(phi) * 1.001:.12g},{label}"
        assert "independent minimum" in answers.check(argv, 0, "\n".join(bad), None)
        bad[i] = f"{d},{c},{phi},{'hub' if label == 'clique' else 'clique'}"
        assert "not a minimiser" in answers.check(argv, 0, "\n".join(bad), None)
        bad[i] = f"{d},{c},{phi},tie"
        assert "one minimiser" in answers.check(argv, 0, "\n".join(bad), None)


def test_phase_diagram_mixed_label_names_the_integer_level():
    # r = 3, delta = 1.3, c = 2.5: t = 13/12, the level x = 12/13 wins
    x = 12 / 13
    argv = "phase-diagram --r 3 --delta-grid 1.3:1.3:1 --c-grid 2.5:2.5:1".split()
    rows = _phase_rows(3, [(1.3, 2.5, f"mixed:{x:.6g}")])
    assert answers.check(argv, 0, "\n".join(rows), None) is None
    rows = _phase_rows(3, [(1.3, 2.5, "mixed:0.9")])
    assert "not a minimiser" in answers.check(argv, 0, "\n".join(rows), None)


# ---------------------------------------------------------------------------
# Wrap-where-imported patching
# ---------------------------------------------------------------------------

@pytest.fixture
def fake_package(monkeypatch):
    home = types.ModuleType("fakepkg.models")

    def kernel(x):
        return x + 1

    def outer(x):
        return home.kernel(x) * 2      # looked up in the defining module

    home.kernel, home.outer = kernel, outer
    user = types.ModuleType("fakepkg.user")
    user.kernel = kernel                 # as after `from .models import kernel`
    user.call = lambda x: user.kernel(x)
    package = types.ModuleType("fakepkg")
    for name, module in (("fakepkg", package), ("fakepkg.models", home),
                         ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return home, user


def test_patching_reaches_every_importer(fake_package):
    home, user = fake_package
    tracer = tracing.Tracer()
    targets = (("m.kernel", "models", "kernel"), ("m.outer", "models", "outer"),
               ("m.gone", "models", "deleted_function"))
    tracer.install("fakepkg", targets)
    tracer.query = 7
    assert user.call(1) == 2
    assert home.outer(1) == 4
    tracer.uninstall()
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["m.kernel", "m.outer", "m.kernel"]
    assert tracer.spans[2][tracing.PARENT] == 1
    assert all(s[tracing.QUERY] == 7 for s in tracer.spans)
    assert "m.gone" in tracer.absent and "m.kernel" not in tracer.absent
    assert user.kernel is home.kernel and not hasattr(home.kernel, "__wrapped__")


def test_patching_only_the_defining_module_would_count_nothing():
    """Why importers are patched: variational binds the conditional mean
    with `from .models import ...`."""
    import uptail.cli
    import uptail.models
    import uptail.variational
    argv = "phi brute --model triangles --n 4 --p 1/2 --delta 0.9".split()

    home_only = tracing.Tracer()
    original = uptail.models.conditional_mean_given_mask
    uptail.models.conditional_mean_given_mask = home_only.wrap("models.cond_mean", original)
    try:
        run.answer(uptail.cli, argv, 0)
    finally:
        uptail.models.conditional_mean_given_mask = original
    assert not home_only.spans

    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.answer(uptail.cli, argv, 0)
    finally:
        tracer.uninstall()
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names.count("models.cond_mean") > 0 and "variational.brute" in names
    assert uptail.variational.conditional_mean_given_mask is original


def test_tiny_traced_run_reports_every_per_layer_metric():
    import uptail
    import uptail.cli
    queries = [q.split() for q in (
        "phi brute --model triangles --n 4 --p 1/2 --delta 0.9",
        "cores enumerate --model triangles --n 4 --p 1/2 --delta 1.25 --eps 0.2 --K 25 "
        "--phi-plus 4 --m 2",
        "dist exact --model triangles --n 4 --p 1/2",
        "mc sample --model triangles --n 4 --p 1/2 --delta 1 --samples 1000 --seed 1",
        "rate ap --delta 1",
    )]
    recorded = [run.answer(uptail.cli, q, None) for q in queries]
    check = run.Checker({" ".join(e.argv): {"code": e.code, "stdout": e.stdout}
                         for e in recorded})
    tracer = tracing.Tracer()
    between = []
    passes = run.run_passes(uptail.cli, queries, 0, check, tracer,
                            lambda: between.append(len(tracer.spans)))
    assert len(passes) == run.MIN_PASSES
    assert len(between) == run.MIN_PASSES and between[0] == 0 < between[1]
    assert not any(e.error for p in passes for e in p)
    metrics, absent = run.per_layer(uptail, tracer, passes, scaling=None)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["variational.brute.calls"] == 1
    # the witness {0-1, 0-2} is the first 2-edge mask in colex order:
    # 1 + 6 masks of sizes 0 and 1, then itself
    assert metrics["variational.brute.masks_per_answer"] == 8
    # C(6, 2) = 15 masks of 2 edges scanned (each also evaluates 2 gains),
    # 12 of them cores
    assert metrics["cores.enumerate.hit_ratio"] == 12 / 15
    assert metrics["moments.exact_dist.calls"] == 1
    assert metrics["models.cond_mean.calls"] > 0
    assert metrics["montecarlo.sample.samples_per_s"] > 0
    assert "montecarlo.scaling_2t" in absent
    assert set(run.end_to_end(passes, [1.0])) == set(run.END_TO_END)


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_every_fixed_query_has_a_reference():
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        references = json.load(fh)
    for workload in workloads.WORKLOADS:
        pool = set(workloads.reference_pool(workload))
        assert pool <= set(references[workload]), workload
        assert all(references[workload][q]["code"] == 0 for q in pool)
