"""The batched integer conditional-mean kernel against the slow Fraction
loops it replaced (``oracles``), bit for bit, and the batched solvers'
budget accounting against the sequential scans."""

import json
import math
import random
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from uptail import models, moments
from uptail.aps import ApModel, IntegerSet, progression_masks
from uptail.cli import run
from uptail.cores import CoreParams, enumerate_cores
from uptail.graphs import (
    Graph,
    InducedSubgraphModel,
    SubgraphModel,
    _placements,
    are_isomorphic,
    complete_graph,
    cycle_graph,
    parse_graph6,
    star_graph,
)
from uptail.models import (
    _words,
    compile_model,
    conditional_mean_given_mask,
    conditional_mean_given_subcube,
    model_mean,
    row_masks,
)
from uptail.moments import exact_distribution, outcome_blocks, stability_inequality_check
from uptail.variational import (
    BudgetExceededError,
    min_conditioning_witness,
    min_subcube_witness,
    tail_log_upper_bound,
)

import oracles
from conftest import path_graph

PS = (Fraction(1, 2), Fraction(1, 4), Fraction(2, 3))
MODELS = {
    "triangles-n5": lambda p: SubgraphModel(complete_graph(3), 5, p),
    "K4-n5": lambda p: SubgraphModel(complete_graph(4), 5, p),
    "ap-N12": lambda p: ApModel(12, 3, p),
    "induced-Bg-n5": lambda p: InducedSubgraphModel(parse_graph6("Bg"), 5, p),
}


def _oracle_ones(model, mask):
    if model.monotone:
        return oracles.conditional_mean_given_mask(model, mask)
    return oracles.conditional_mean_given_subcube(model, mask, 0)


def _small_subcubes(n, max_support):
    for size in range(max_support + 1):
        for support in oracles.masks_by_size(n, size):
            sub = support
            while True:
                yield sub, support ^ sub
                if sub == 0:
                    break
                sub = (sub - 1) & support


# name -> (model, ground size, degree, monotone, table length, sum of the
# present masks, sum of the absent masks)
PROTOCOL_CASES = {
    "triangles-n5": (SubgraphModel(complete_graph(3), 5, PS[0]), 10, 3, True, 10, 3069, 0),
    "K4-n6": (SubgraphModel(complete_graph(4), 6, PS[0]), 15, 6, True, 15, 196602, 0),
    "pattern-C4-n5": (SubgraphModel(parse_graph6("Cl"), 5, PS[0]), 10, 4, True, 15, 6138, 0),
    "induced-Bg-n5": (InducedSubgraphModel(parse_graph6("Bg"), 5, PS[0]),
                      10, 3, False, 30, 6138, 3069),
    "induced-B_-n5": (InducedSubgraphModel(parse_graph6("B_"), 5, PS[0]),
                      10, 3, False, 30, 3069, 6138),
    "ap-N12-k3": (ApModel(12, 3, PS[0]), 12, 3, True, 30, 24381, 0),
    "ap-N12-k4": (ApModel(12, 4, PS[0]), 12, 4, True, 18, 17115, 0),
    # empty tables: the degree still comes from the pattern or from k
    "triangles-n2": (SubgraphModel(complete_graph(3), 2, PS[0]), 1, 3, True, 0, 0, 0),
    "ap-N2-k3": (ApModel(2, 3, PS[0]), 2, 3, True, 0, 0, 0),
    # one placement per vertex, each touching no coordinate
    "induced-vertex-n4": (InducedSubgraphModel(Graph(1), 4, PS[2]), 6, 0, False, 4, 0, 0),
}


@pytest.mark.parametrize("name", sorted(PROTOCOL_CASES))
class TestModelProtocol:
    """The one surface every model offers, and what the callers read from it."""

    def test_coordinates_and_table(self, name):
        model, ground, degree, monotone, count, present_sum, absent_sum = PROTOCOL_CASES[name]
        assert (model.ground_size, model.degree, model.monotone) == (ground, degree, monotone)
        present_rows, absent_rows = model.table()
        assert (absent_rows is None) == monotone
        present = row_masks(present_rows)
        absent = () if monotone else row_masks(absent_rows)
        assert len(present) == count and sum(present) == present_sum
        assert sum(absent) == absent_sum and len(absent) == (0 if monotone else count)
        assert all(m.bit_count() + a.bit_count() == degree
                   for m, a in zip(present, absent or [0] * count))
        assert compile_model(model).degree == degree

    def test_codec_round_trip(self, name):
        model = PROTOCOL_CASES[name][0]
        rng = random.Random(5)
        for mask in [0, (1 << model.ground_size) - 1] + [rng.getrandbits(model.ground_size)
                                                         for _ in range(20)]:
            conditioning = model.from_mask(mask)
            assert model.to_mask(conditioning) == mask
            assert model.from_mask(model.to_mask(conditioning)) == conditioning

    def test_codec_rejects_foreign_conditioning(self, name):
        model = PROTOCOL_CASES[name][0]
        if model.witness_kind == "subset":
            with pytest.raises(TypeError, match="IntegerSet"):
                model.to_mask(Graph(3))
            with pytest.raises(ValueError, match=f"elements of 1..{model.N}"):
                model.to_mask(IntegerSet.from_elements([model.N + 1]))
        else:
            assert model.witness_kind == "graph"
            with pytest.raises(TypeError, match="Graph"):
                model.to_mask(IntegerSet(1))
            with pytest.raises(ValueError, match=rf"edges of K_{model.n}, not \(0, {model.n}\)"):
                model.to_mask(Graph(model.n + 2, frozenset({(0, model.n)})))

    def test_mean_and_kernel_read_only_the_compiled_model(self, name, monkeypatch):
        model = PROTOCOL_CASES[name][0]
        compiled = compile_model(model)
        reads = []
        table = type(model).table
        monkeypatch.setattr(type(model), "table", lambda self: reads.append(self) or table(self))
        mean = model_mean(model)
        full = (1 << model.ground_size) - 1
        assert conditional_mean_given_subcube(model, 0, 0) == mean
        compiled.scaled_means([0, full], [0, 0])
        if model.monotone:
            assert conditional_mean_given_mask(model, 0) == mean
            compiled.scaled_means([0, full])
            if mean:
                tail_log_upper_bound(model, 1, 0.5, 1.0)
        assert reads == []
        assert mean == oracles.model_mean(model)

    def test_tail_bound_is_monotone_only(self, name):
        model, _, degree, monotone, count, _, _ = PROTOCOL_CASES[name]
        if monotone:
            # the count is at most p^-D E[X]: no monomial has more than D coordinates
            bound = tail_log_upper_bound(model, 1, 0.5, 1.0)
            assert bound == 1.0 + degree * math.log(1 / float(model.p)) + math.log(1 / 0.5)
            if count:
                # here every monomial has D coordinates: the number of monomials over eps E[X]
                ratio = count / (0.5 * float(model_mean(model)))
                assert math.isclose(bound, 1.0 + math.log(ratio))
        else:
            with pytest.raises(TypeError, match="monotone"):
                tail_log_upper_bound(model, 1, 0.5, 1.0)


@pytest.mark.parametrize("query, qualifying", [
    ("--model triangles --n 2", 2),
    ("--model ap --N 2 --k 3", 4),
])
def test_empty_table_stability_caps_sets_by_model_degree(query, qualifying, capsys):
    # with an empty table every set qualifies; the size cap is degree * ell
    # with the model's degree, so all 2^n sets of at most 3 coordinates count
    code = run(["check", "stability", *query.split(), "--p", "1/2", "--delta", "1",
                "--eps", "0.2", "--ell", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["qualifying_sets"] == qualifying


@pytest.mark.parametrize("p", PS, ids=str)
@pytest.mark.parametrize("name", sorted(MODELS))
class TestAgainstOracle:
    def test_every_ones_mask(self, name, p):
        model = MODELS[name](p)
        compiled = compile_model(model)
        masks = list(range(1 << model.ground_size))
        if model.monotone:
            sums = compiled.scaled_means(masks)
        else:
            sums = compiled.scaled_means(masks, [0] * len(masks))
        for mask, total in zip(masks, sums.tolist()):
            assert Fraction(total, compiled.scale) == _oracle_ones(model, mask)

    def test_every_subcube_of_support_at_most_4(self, name, p):
        model = MODELS[name](p)
        compiled = compile_model(model)
        pairs = list(_small_subcubes(model.ground_size, 4))
        ones, zeros = zip(*pairs)
        sums = compiled.scaled_means(ones, zeros)
        for (one, zero), total in zip(pairs, sums.tolist()):
            assert Fraction(total, compiled.scale) == \
                oracles.conditional_mean_given_subcube(model, one, zero)

    def test_wrappers(self, name, p):
        model = MODELS[name](p)
        rng = random.Random(7)
        n = model.ground_size
        for _ in range(50):
            support = rng.getrandbits(n)
            ones = rng.getrandbits(n) & support
            zeros = support & ~ones
            assert conditional_mean_given_subcube(model, ones, zeros) == \
                oracles.conditional_mean_given_subcube(model, ones, zeros)
            if model.monotone:
                assert conditional_mean_given_mask(model, ones) == \
                    oracles.conditional_mean_given_mask(model, ones)
            else:
                with pytest.raises(TypeError):
                    conditional_mean_given_mask(model, ones)


class TestWideMasks:
    """More than 64 coordinates: masks span several uint64 words."""

    def test_ap_70_answer(self, capsys):
        code = run(["phi", "brute", "--model", "ap", "--N", "70", "--k", "3",
                    "--p", "1/2", "--delta", "0.05"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["payload"] == {"elements": [27]}
        assert data["conditional_mean"] == "625/4"

    @pytest.mark.parametrize("N", [64, 65, 70, 130])
    def test_random_masks(self, N):
        model = ApModel(N, 3, Fraction(1, 3))
        compiled = compile_model(model)
        assert compiled.present.shape[1] == -(-N // 64)
        rng = random.Random(N)
        ones = [rng.getrandbits(N) & rng.getrandbits(N) for _ in range(40)]
        ones += [1 << (N - 1), (1 << N) - 1, 0]
        zeros = [rng.getrandbits(N) & ~one for one in ones]
        for one, total in zip(ones, compiled.scaled_means(ones).tolist()):
            assert Fraction(total, compiled.scale) == \
                oracles.conditional_mean_given_mask(model, one)
        for one, zero, total in zip(ones, zeros, compiled.scaled_means(ones, zeros).tolist()):
            assert Fraction(total, compiled.scale) == \
                oracles.conditional_mean_given_subcube(model, one, zero)


    def test_monotone_zeros_past_64_coordinates(self):
        # triangles at n = 12: 66 coordinates in two words, and the one zero
        # row a monotone model stores as its absent table.  Every subcube of
        # support <= 1, and of support 2 with a coordinate among the last
        # four, around the word boundary (the oracle walk is slow)
        model = SubgraphModel(complete_graph(3), 12, Fraction(2, 3))
        compiled = compile_model(model)
        assert compiled.present.shape == (220, 2) and compiled.absent.shape == (1, 2)
        pairs = [(one, zero) for one, zero in _small_subcubes(66, 2)
                 if (one | zero).bit_count() < 2 or (one | zero) >> 62]
        ones, zeros = zip(*pairs)
        for (one, zero), total in zip(pairs, compiled.scaled_means(ones, zeros).tolist()):
            assert Fraction(total, compiled.scale) == \
                oracles.conditional_mean_given_subcube(model, one, zero)


class TestMonomialTable:
    """The one table of a model's monomials against independent builds, and
    the mean counted over it against the per-monomial sum."""

    MEAN_MODELS = {
        "triangles-n7": lambda p: SubgraphModel(complete_graph(3), 7, p),
        "K4-n8": lambda p: SubgraphModel(complete_graph(4), 8, p),
        "pattern-C4-n6": lambda p: SubgraphModel(parse_graph6("Cl"), 6, p),
        "induced-Bg-n6": lambda p: InducedSubgraphModel(parse_graph6("Bg"), 6, p),
        "induced-B_-n5": lambda p: InducedSubgraphModel(parse_graph6("B_"), 5, p),
        "ap-N30-k3": lambda p: ApModel(30, 3, p),
        "ap-N20-k4": lambda p: ApModel(20, 4, p),
    }

    @pytest.mark.parametrize("p", PS + (Fraction(1, 10),), ids=str)
    @pytest.mark.parametrize("name", sorted(MEAN_MODELS))
    def test_mean(self, name, p):
        model = self.MEAN_MODELS[name](p)
        assert model_mean(model) == oracles.model_mean(model)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("pattern", [complete_graph(3), complete_graph(4), cycle_graph(4),
                                         path_graph(3), star_graph(3)],
                             ids=["K3", "K4", "C4", "P3", "K13"])
    def test_subgraph_masks_are_every_copy(self, pattern, n):
        pairs = list(combinations(range(n), 2))
        expected = set()
        for chosen in combinations(range(len(pairs)), pattern.num_edges):
            sub = Graph(n, frozenset(pairs[i] for i in chosen))
            if are_isomorphic(sub.induced(sub.support()), pattern):
                expected.add(sum(1 << i for i in chosen))
        masks = row_masks(SubgraphModel(pattern, n, Fraction(1, 2)).table()[0])
        assert len(masks) == len(expected) and set(masks) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("pattern", [path_graph(3), Graph(3, frozenset({(0, 1)})),
                                         Graph(3), complete_graph(3), cycle_graph(4)],
                             ids=["P3", "K2+K1", "empty3", "K3", "C4"])
    def test_induced_placements_are_every_induced_copy(self, pattern, n):
        pairs = list(combinations(range(n), 2))
        expected = set()
        for verts in combinations(range(n), pattern.n):
            inside = [i for i, (u, v) in enumerate(pairs) if u in verts and v in verts]
            every = sum(1 << i for i in inside)
            for size in range(len(inside) + 1):
                for chosen in combinations(inside, size):
                    sub = Graph(n, frozenset(pairs[i] for i in chosen)).induced(verts)
                    if are_isomorphic(sub, pattern):
                        present = sum(1 << i for i in chosen)
                        expected.add((present, every & ~present))
        table = InducedSubgraphModel(pattern, n, Fraction(1, 2)).table()
        placements = tuple(zip(*map(row_masks, table)))
        assert len(placements) == len(expected) and set(placements) == expected


TABLE_CASES = {
    **{f"triangles-n{n}": SubgraphModel(complete_graph(3), n, PS[0]) for n in (*range(1, 9), 12)},
    **{f"{name}-n{n}": SubgraphModel(pattern, n, PS[0])
       for name, pattern in (("K4", complete_graph(4)), ("C4", cycle_graph(4)),
                             ("P3", path_graph(3)))
       for n in (3, 4, 6, 9)},
    **{f"induced-{code}-n{n}": InducedSubgraphModel(parse_graph6(code), n, PS[0])
       for code in ("Bg", "B_", "@") for n in (1, 2, 3, 5, 7)},
    **{f"ap-N{N}-k{k}": ApModel(N, k, PS[0])
       for k in (3, 4) for N in (*range(0, 14), 40, 64, 65, 100, 128, 129, 130)},
}


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
class TestTables:
    """The index-array tables against the Python-loop builders they
    replaced: the same monomials in the same order, and the same words."""

    def test_rows_are_the_oracle_masks_in_order(self, name):
        model = TABLE_CASES[name]
        present, absent = model.table()
        expected_present, expected_absent = oracles.table(model)
        assert row_masks(present) == expected_present
        assert (absent is None) == model.monotone
        if absent is None:
            assert present.shape == (len(expected_present), model.degree)
        else:
            assert row_masks(absent) == expected_absent
            assert present.shape[1] + absent.shape[1] == model.degree

    def test_packed_words_are_the_oracle_words(self, name):
        model = TABLE_CASES[name]
        compiled = compile_model(model)
        expected_present, expected_absent = oracles.table(model)
        n_words = max(1, -(-model.ground_size // 64))
        assert compiled.present.dtype == np.uint64
        assert np.array_equal(compiled.present, _words(expected_present, n_words))
        # a monotone model stores one zero row
        absent = (0,) if model.monotone else expected_absent
        assert np.array_equal(compiled.absent, _words(absent, n_words))

    def test_compiled_rows_are_the_oracle_rows(self, name):
        # present coordinates i, then absent coordinates j as n + j
        model = TABLE_CASES[name]
        n = model.ground_size
        present, absent = oracles.table(model)
        expected = [[i for i in range(n) if pm >> i & 1] + [n + j for j in range(n) if am >> j & 1]
                    for pm, am in zip(present, absent or [0] * len(present))]
        rows = compile_model(model).rows
        assert rows.dtype == np.int32 and rows.shape == (len(expected), model.degree)
        assert rows.tolist() == expected

    def test_monomials_are_the_table_length(self, name):
        model = TABLE_CASES[name]
        assert model.monomials == len(compile_model(model).rows)

    def test_mean_is_the_kernel_mean_with_nothing_forced(self, name):
        model = TABLE_CASES[name]
        compiled = compile_model(model)
        zeros = None if model.monotone else [0]
        kernel = Fraction(int(compiled.scaled_means([0], zeros)[0]), compiled.scale)
        assert model_mean(model) == kernel == oracles.model_mean(model)

    def test_mean_and_values_never_pack_words(self, name, monkeypatch):
        def refuse(*args):
            raise AssertionError("packed words")

        model = TABLE_CASES[name]
        n = model.ground_size
        compile_model.cache_clear()
        monkeypatch.setattr(models, "_pack", refuse)
        assert model_mean(model) == oracles.model_mean(model)
        # the first block's outcomes 0, 37, 74, ...: outcome o sets coordinate i to bit i of o
        first, ones, block = next(outcome_blocks(model))
        picked = range(0, len(block), 37)
        assert first == 0 and ones[picked].tolist() == [o.bit_count() for o in picked]
        assert block[picked].tolist() == [oracles.value_on_outcome(model, o) for o in picked]
        rng = random.Random(n)
        outcomes = [rng.getrandbits(n) for _ in range(20)] + [0, (1 << n) - 1]
        rows = np.array([[o >> i & 1 for o in outcomes] for i in range(n)], dtype=np.uint8)
        compiled = compile_model(model)
        assert compiled.values(rows.reshape(n, len(outcomes))).tolist() == \
            [oracles.value_on_outcome(model, o) for o in outcomes]
        assert "present" not in vars(compiled) and "absent" not in vars(compiled)


# The patterns the CLI places: triangles, cliques, and the graph6 patterns of
# the documented queries (``pattern`` and ``induced`` models, ``rate regular``)
CLI_PATTERNS = {
    "K3": complete_graph(3), "K4": complete_graph(4), "K5": complete_graph(5),
    **{code: parse_graph6(code)
       for code in ("@", "B_", "Bg", "Bw", "C~", "Cl", "Dhc", "EFz_", "EhEG")},
}


def _same_rows(built, reference):
    return built.dtype == np.int32 and np.array_equal(built, reference)


class TestInPlaceBuilders:
    """The in-place int32 table builders against the whole-array int64
    builders they replaced (``oracles``): the same rows in the same order."""

    @pytest.mark.parametrize("name", sorted(CLI_PATTERNS))
    def test_placements_equal_the_reference(self, name):
        for n in range(13):
            built = _placements(CLI_PATTERNS[name], n)
            reference = oracles.placement_rows(CLI_PATTERNS[name], n)
            assert all(map(_same_rows, built, reference)), n

    @pytest.mark.parametrize("n", [30, 50, 70])
    def test_triangles_at_large_n(self, n):
        built = _placements(complete_graph(3), n)
        assert all(map(_same_rows, built, oracles.placement_rows(complete_graph(3), n)))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_progressions_equal_the_reference(self, k):
        for n in range(101):
            assert _same_rows(progression_masks(n, k), oracles.progression_rows(n, k)), n

    def test_long_progression_table(self):
        assert _same_rows(progression_masks(1000, 3), oracles.progression_rows(1000, 3))

    @pytest.mark.parametrize("build", [lambda: progression_masks(1000, 3),
                                       lambda: _placements(complete_graph(3), 70)],
                             ids=["ap-N1000-k3", "triangles-n70"])
    def test_build_peaks_under_4_mb(self, build):
        # the tables are 3.0 MB and 0.7 MB; the int64 builds peaked at 16 and 9.2 MB
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


def _int64_edge():
    """Largest b with #monomials * b^3 < 2^63 for 3-APs in [5] (4 of them)."""
    b = round(2 ** (61 / 3))
    while 4 * b ** 3 >= 2 ** 63:
        b -= 1
    while 4 * (b + 1) ** 3 < 2 ** 63:
        b += 1
    return b


class TestScaledSums:
    """Sums in int64 up to #monomials * b^D < 2^63, Python ints beyond."""

    @pytest.mark.parametrize("model, argv, mean", [
        (SubgraphModel(complete_graph(5), 6, Fraction(1, 1000)),
         "phi brute --model clique --r 5 --n 6 --p 1/1000 --delta 1",
         "2001/500000000000000000000000000000"),
        # not monotone: the drop bin and the absent coordinates in object sums
        (InducedSubgraphModel(parse_graph6("Bg"), 4, Fraction(1, 10 ** 7)),
         "phi subcube --model induced --pattern Bg --n 4 --p 1/10000000 --delta 1/10",
         "200000009999997/500000000000000000000"),
    ], ids=["clique", "induced"])
    def test_answer_past_int64(self, model, argv, mean, capsys):
        compiled = compile_model(model)
        assert compiled.weights.dtype == object
        assert len(compiled.rows) * compiled.scale >= 2 ** 63
        code = run(argv.split())
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["conditional_mean"] == mean
        if model.monotone:
            ones = [ones for ones, zeros in _small_subcubes(model.ground_size, 3) if not zeros]
            sums = compiled.scaled_means(ones)
            expected = [oracles.conditional_mean_given_mask(model, mask) for mask in ones]
        else:
            ones, zeros = zip(*_small_subcubes(model.ground_size, 3))
            sums = compiled.scaled_means(ones, zeros)
            expected = list(map(partial(oracles.conditional_mean_given_subcube, model), ones, zeros))
        assert sums.dtype == object
        assert [Fraction(total, compiled.scale) for total in sums] == expected

    @pytest.mark.parametrize("step, dtype", [(0, np.int64), (1, object)])
    def test_both_sides_of_the_boundary(self, step, dtype):
        b = _int64_edge() + step
        model = ApModel(5, 3, Fraction(b - 1, b))
        compiled = compile_model(model)
        top = 4 * b ** 3
        assert (top < 2 ** 63) == (step == 0)
        assert compiled.weights.dtype == dtype
        sums = compiled.scaled_means(list(range(32))).tolist()
        assert sums[31] == top
        for mask, total in enumerate(sums):
            assert Fraction(total, compiled.scale) == oracles.conditional_mean_given_mask(model, mask)
        # thresholds at and above the largest possible sum
        assert compiled.scaled_bound(Fraction(4)) == top
        full = compiled.scaled_means([31])
        assert (full >= top).all() and not (full >= top + 1).any()
        assert not (compiled.scaled_means(list(range(32))) >= 2 ** 80).any()
        witness = min_conditioning_witness(model, 1e6, budget=32)
        assert not witness.feasible
        with pytest.raises(BudgetExceededError):
            min_conditioning_witness(model, 1e6, budget=31)


SUBSET_CASES = [
    (SubgraphModel(complete_graph(3), 6, Fraction(1, 2)), 1.0),
    (SubgraphModel(complete_graph(3), 6, Fraction(1, 4)), 2.0),
    (SubgraphModel(complete_graph(4), 6, Fraction(1, 4)), 2.0),
    (ApModel(16, 3, Fraction(1, 4)), 3.0),
]


class TestBudgets:
    """A budget of exactly the masks examined concludes; one less raises."""

    @pytest.mark.parametrize("rows", [None, 1, 7])
    @pytest.mark.parametrize("model, delta", SUBSET_CASES)
    def test_subset_solver(self, model, delta, rows, monkeypatch):
        if rows is not None:    # kernel steps of this many masks
            monkeypatch.setattr(models, "KERNEL_CELLS", rows * len(compile_model(model).present))
        examined, mask, mean = oracles.first_feasible_mask(model, delta)
        witness = min_conditioning_witness(model, delta, budget=examined)
        assert witness.feasible and witness.conditional_mean == mean
        assert model.to_mask(witness.payload) == mask
        assert witness.log_cost == bin(mask).count("1") * math.log(1 / float(model.p))
        with pytest.raises(BudgetExceededError, match=f"examined {examined - 1} subsets"):
            min_conditioning_witness(model, delta, budget=examined - 1)

    @pytest.mark.parametrize("rows", [None, 5])
    @pytest.mark.parametrize("model, delta", [
        (SubgraphModel(complete_graph(3), 5, Fraction(1, 2)), 1.0),
        (InducedSubgraphModel(parse_graph6("Bg"), 5, Fraction(2, 3)), 0.1),
        (ApModel(7, 3, Fraction(1, 3)), 2.0),
    ])
    def test_subcube_solver(self, model, delta, rows, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(models, "KERNEL_CELLS", rows * len(compile_model(model).present))
        total = 3 ** model.ground_size
        best, complete = oracles.subcube_scan(model, delta, total)
        assert complete
        witness = min_subcube_witness(model, delta, budget=total)
        assert _subcube_tuple(witness) == best
        for budget in (total - 1, total // 2, 1000, 1, 0):
            partial, complete = oracles.subcube_scan(model, delta, budget)
            assert not complete
            with pytest.raises(BudgetExceededError, match=f"examined {budget} subcubes") as info:
                min_subcube_witness(model, delta, budget=budget)
            assert _subcube_tuple(info.value.best_so_far) == partial

    @pytest.mark.parametrize("m", [2, 3])
    def test_core_census(self, m):
        model = SubgraphModel(complete_graph(3), 6, Fraction(1, 4))
        params = CoreParams(model=model, delta=1.0, eps=0.2, K=25, phi_plus=4)
        limit = math.comb(15, m)
        report = enumerate_cores(params, m, budget=limit)
        assert report.count == len(report.witnesses)
        with pytest.raises(BudgetExceededError):
            enumerate_cores(params, m, budget=limit - 1)


class TestInfeasibleBudgets:
    """With no feasible answer the solvers scan every subset (2^n) or every
    subcube (3^n): a budget of that many concludes, one less raises, and a
    negative one examines nothing."""

    @pytest.mark.parametrize("solver, model, noun, total", [
        (min_conditioning_witness, SubgraphModel(complete_graph(3), 4, Fraction(1, 2)),
         "subsets", 2 ** 6),
        (min_subcube_witness, InducedSubgraphModel(parse_graph6("Bg"), 4, Fraction(1, 2)),
         "subcubes", 3 ** 6),
    ])
    def test_budget_counts_the_scan(self, solver, model, noun, total):
        witness = solver(model, 100, budget=total)
        assert not witness.feasible and witness.payload is None
        for budget, examined in ((total - 1, total - 1), (-5, 0)):
            with pytest.raises(BudgetExceededError,
                               match=f"examined {examined} {noun} without concluding") as info:
                solver(model, 100, budget=budget)
            assert info.value.best_so_far == (witness if noun == "subcubes" else None)


class TestScanLevels:
    """The subset scan reads each size of at most ``KERNEL_CELLS`` masks
    over at most 64 coordinates whole from a cache, and walks the rest."""

    def test_cached_levels_are_the_walk(self):
        for n in range(22):
            for size in range(n + 1):
                count = math.comb(n, size)
                if count <= models.KERNEL_CELLS:
                    level = models._mask_level(n, size)
                    assert level.dtype == np.uint64 and level.shape == (count, 1)
                    assert not level.flags.writeable
                    assert level[:, 0].tolist() == list(models._masks_by_size(n, size)), (n, size)

    def test_cache_is_bounded(self):
        assert models._mask_level.cache_info().maxsize == 64

    @pytest.mark.parametrize("rows", [None, 7])
    @pytest.mark.parametrize("model, delta", SUBSET_CASES)
    def test_no_level_past_kernel_cells_is_cached(self, model, delta, rows, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(models, "KERNEL_CELLS", rows * len(compile_model(model).rows))
        cells = models.KERNEL_CELLS
        read = set()
        level = models._mask_level

        def recorded(n, size):
            read.add(size)
            return level(n, size)

        monkeypatch.setattr(models, "_mask_level", recorded)
        examined, mask, mean = oracles.first_feasible_mask(model, delta)
        witness = min_conditioning_witness(model, delta, budget=examined)
        assert model.to_mask(witness.payload) == mask and witness.conditional_mean == mean
        n = model.ground_size
        cached = {size for size in range(n + 1) if math.comb(n, size) <= cells}
        # a block may run past the witness's size into the next ones
        assert cached & set(range(mask.bit_count() + 1)) <= read <= cached

    def test_66_coordinates_exit_early(self):
        # triangles at n = 12: two words per mask, every size walked
        model = SubgraphModel(complete_graph(3), 12, Fraction(1, 2))
        examined, mask, mean = oracles.first_feasible_mask(model, Fraction(1, 10))
        assert model.ground_size == 66 and examined == 1 + 66 + math.comb(66, 2) + 1
        witness = min_conditioning_witness(model, Fraction(1, 10), budget=examined)
        assert model.to_mask(witness.payload) == mask and witness.conditional_mean == mean
        with pytest.raises(BudgetExceededError, match=f"examined {examined - 1} subsets"):
            min_conditioning_witness(model, Fraction(1, 10), budget=examined - 1)


def _subcube_tuple(witness):
    if not witness.feasible:
        return None
    ones, zeros = witness.payload
    return (witness.log_cost, ones.mask, zeros.mask, witness.conditional_mean)


# the one-vertex induced pattern: one placement per vertex, each touching no
# coordinate, so X = n on every outcome
VERTICES = InducedSubgraphModel(Graph(1), 4, Fraction(1, 3))

EVALUATOR_CASES = {
    "triangles-n5": SubgraphModel(complete_graph(3), 5, PS[0]),
    "K4-n5": SubgraphModel(complete_graph(4), 5, PS[1]),
    "ap-N12": ApModel(12, 3, PS[2]),
    "induced-Bg-n5": InducedSubgraphModel(parse_graph6("Bg"), 5, PS[0]),
    "induced-B_-n5": InducedSubgraphModel(parse_graph6("B_"), 5, PS[1]),
    "vertices-n4": VERTICES,
    "triangles-n2": SubgraphModel(complete_graph(3), 2, PS[0]),
    "ap-N2-k3": ApModel(2, 3, PS[0]),
    "induced-Bg-n2": InducedSubgraphModel(parse_graph6("Bg"), 2, PS[0]),
}


def _oracle_pmf(model):
    n = model.ground_size
    p = Fraction(model.p)
    pmf = {}
    for outcome in range(1 << n):
        ones = outcome.bit_count()
        value = oracles.value_on_outcome(model, outcome)
        pmf[value] = pmf.get(value, Fraction(0)) + p ** ones * (1 - p) ** (n - ones)
    return pmf


class TestOutcomeEvaluator:
    """X over a batch of outcomes, the one evaluator behind exact
    enumeration, the stability check and Monte Carlo, against the count on
    one outcome."""

    @pytest.mark.parametrize("name", sorted(EVALUATOR_CASES))
    def test_every_outcome(self, name):
        model = EVALUATOR_CASES[name]
        n = model.ground_size
        outcomes = np.arange(1 << n)
        rows = (outcomes >> np.arange(n)[:, None] & 1).astype(np.uint8)
        values = compile_model(model).values(rows)
        expected = [oracles.value_on_outcome(model, o) for o in range(1 << n)]
        assert values.dtype == np.int64 and values.tolist() == expected
        [(first, ones, block)] = outcome_blocks(model)
        assert first == 0 and ones.tolist() == [o.bit_count() for o in range(1 << n)]
        assert block.tolist() == expected

    def test_one_vertex_pattern_counts_every_vertex(self):
        compiled = compile_model(VERTICES)
        assert model_mean(VERTICES) == 4
        assert conditional_mean_given_subcube(VERTICES, 0b11, 0b100) == 4
        assert compiled.scaled_means([0, 5], [0, 2]).tolist() == [4, 4]
        assert compiled.values(np.zeros((6, 3), dtype=np.uint8)).tolist() == [4, 4, 4]
        assert exact_distribution(VERTICES).pmf == {4: 1}

    @pytest.mark.parametrize("model, blocks", [
        (SubgraphModel(complete_graph(3), 6, Fraction(1, 3)), 1),
        (ApModel(16, 3, Fraction(1, 3)), 2),
    ], ids=["triangles-n6", "ap-N16"])
    def test_distribution_on_each_side_of_the_block_edge(self, model, blocks):
        firsts = [first for first, _, _ in outcome_blocks(model)]
        assert firsts == [i << moments.BLOCK_BITS for i in range(blocks)]
        assert exact_distribution(model).pmf == _oracle_pmf(model)

    @pytest.mark.parametrize("model", [
        SubgraphModel(complete_graph(3), 5, Fraction(1, 2)),
        InducedSubgraphModel(parse_graph6("Bg"), 5, Fraction(1, 2)),
        ApModel(12, 3, Fraction(1, 3)),
    ], ids=["triangles-n5", "induced-Bg-n5", "ap-N12"])
    def test_answers_do_not_depend_on_the_block_size(self, model, monkeypatch, capsys):
        def answers():
            assert run(["check", "extremal-ap", "--n", "12", "--kmax", "4"]) == 0
            report = json.loads(capsys.readouterr().out)
            del report["seconds"]
            # the stability check is defined for monotone models only
            return (exact_distribution(model).pmf, report,
                    model.monotone and stability_inequality_check(model, 0.5, 0.2, 1))

        whole = answers()
        monkeypatch.setattr(moments, "BLOCK_BITS", 3)
        assert answers() == whole
