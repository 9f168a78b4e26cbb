import ast
import contextlib
import io
import json
import math
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from uptail import bounds, cli
from uptail.aps import ApModel
from uptail.cli import _build_parser, run
from uptail.variational import BudgetExceededError, min_conditioning_witness, phase_diagram_csv


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


class TestRate:
    def test_clique_inf(self, capsys):
        code, data = run_json(capsys, ["rate", "clique", "--r", "3",
                                       "--delta", "1", "--c", "inf"])
        assert code == 0
        assert math.isclose(data["phi"], 1 / 3) and data["argmins"] == [1.0]

    def test_clique_finite(self, capsys):
        code, data = run_json(capsys, ["rate", "clique", "--r", "3",
                                       "--delta", "1", "--c", "3"])
        assert code == 0 and math.isclose(data["phi"], 1 / 3)

    def test_regular(self, capsys):
        code, data = run_json(capsys, ["rate", "regular", "--pattern", "Bw",
                                       "--delta", "1", "--c", "inf"])
        assert code == 0
        assert math.isclose(data["theta"], 1 / 3, abs_tol=1e-9)
        assert math.isclose(data["rate"], 1 / 3, abs_tol=1e-9)

    def test_ap(self, capsys):
        code, data = run_json(capsys, ["rate", "ap", "--delta", "4"])
        assert code == 0 and math.isclose(data["localised_rate"], 2.0)


class TestPhi:
    def test_brute(self, capsys):
        code, data = run_json(capsys, ["phi", "brute", "--model", "triangles",
                                       "--n", "4", "--p", "1/2", "--delta", "0.9"])
        assert code == 0
        assert len(data["payload"]["edges"]) == 2
        assert math.isclose(data["log_cost"], 2 * math.log(2))

    def test_subcube(self, capsys):
        code, data = run_json(capsys, ["phi", "subcube", "--model", "triangles",
                                       "--n", "4", "--p", "1/2", "--delta", "0.9"])
        assert code == 0 and math.isclose(data["log_cost"], 2 * math.log(2))

    def test_construct_interval(self, capsys):
        code, data = run_json(capsys, ["phi", "construct", "--model", "ap",
                                       "--N", "100", "--k", "3", "--p", "1/10",
                                       "--kind", "interval", "--delta", "1"])
        assert code == 0 and data["payload"]["elements"] == [1, 2, 3, 4, 5]

    def test_decimal_delta_is_exact(self, capsys):
        # {1} has conditional mean exactly (1 + 1/5) * 5/2 = 3, and is the
        # smaller mask; the double nearest 0.2 lies above 1/5 and misses it
        code, data = run_json(capsys, ["phi", "brute", "--model", "ap", "--N", "10",
                                       "--k", "3", "--p", "1/2", "--delta", "0.2"])
        assert code == 0
        assert data["payload"] == {"elements": [1]} and data["conditional_mean"] == "3/1"

    @settings(max_examples=60, deadline=None)
    @example(200)
    @given(st.integers(min_value=1, max_value=4000))
    def test_decimal_delta_matches_its_fraction(self, thousandths):
        text = f"{thousandths // 1000}.{thousandths % 1000:03d}"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["phi", "brute", "--model", "ap", "--N", "10", "--k", "3",
                        "--p", "1/2", "--delta", text])
        witness = min_conditioning_witness(ApModel(10, 3, Fraction(1, 2)), Fraction(text))
        assert code == 0 and out.getvalue() == witness.to_json() + "\n"

    @pytest.mark.parametrize("argv", [
        "phi brute --model ap --N 5 --p 1/2",
        "phi subcube --model ap --N 5 --p 1/2",
        "phi construct --model ap --N 5 --p 1/2 --kind interval",
        "cores enumerate --model ap --N 5 --p 1/2 --m 1 --eps 0.1 --K 0.3 --phi-plus 0.7",
        "mc sample --model ap --N 5 --p 1/2 --samples 1 --seed 1",
        "check stability --model ap --N 5 --p 1/2 --eps 0.1 --ell 1",
    ])
    def test_thresholds_parse_exactly(self, argv):
        args = _build_parser().parse_args(argv.split() + ["--delta", "0.2"])
        assert args.delta == Fraction(1, 5)
        for name, value in (("eps", Fraction(1, 10)), ("K", Fraction(3, 10)),
                            ("phi_plus", Fraction(7, 10))):
            if hasattr(args, name):
                assert getattr(args, name) == value


class TestDistAndMoments:
    def test_dist_exact(self, capsys):
        code, data = run_json(capsys, ["dist", "exact", "--model", "triangles",
                                       "--n", "4", "--p", "1/2"])
        assert code == 0
        assert data == {"0": "41/64", "1": "1/4", "2": "3/32", "4": "1/64"}

    def test_moments(self, capsys):
        code, data = run_json(capsys, ["moments", "--model", "triangles",
                                       "--n", "4", "--p", "1/2", "--tmax", "2"])
        assert code == 0
        assert data["from_dist"] == ["1/1", "1/2", "3/8"]
        assert data["from_tuples"] == data["from_dist"]


class TestCores:
    def test_extract(self, capsys):
        code, data = run_json(capsys, ["cores", "extract", "--model", "triangles",
                                       "--n", "4", "--p", "1/2", "--s", "5/2",
                                       "--edges", "0-1,0-2,1-2,0-3"])
        assert code == 0 and data["edges"] == [[0, 1], [0, 2], [1, 2]]

    def test_enumerate(self, capsys):
        code, data = run_json(capsys, ["cores", "enumerate", "--model", "triangles",
                                       "--n", "4", "--p", "1/2", "--delta", "1",
                                       "--eps", "0.2", "--K", "10", "--phi-plus", "2",
                                       "--m", "3"])
        assert code == 0 and data["count"] == len(data["witnesses"])


class TestMc:
    def test_sample(self, capsys):
        code, data = run_json(capsys, ["mc", "sample", "--model", "triangles",
                                       "--n", "4", "--p", "1/2", "--delta", "1",
                                       "--samples", "20000", "--seed", "9"])
        assert code == 0
        assert abs(data["p_hat"] - 23 / 64) <= 4 * data["stderr"]

    def test_sample_reproducible(self, capsys):
        argv = ["mc", "sample", "--model", "triangles", "--n", "4", "--p", "1/2",
                "--delta", "1", "--samples", "5000", "--seed", "123"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_sample_past_the_cap(self, capsys, monkeypatch):
        # 10^11 samples x 10 monomials: refused before any draw
        from uptail import montecarlo
        monkeypatch.setattr(montecarlo, "_chunk_values", None)
        started = time.perf_counter()
        assert run(["mc", "sample", "--model", "triangles", "--n", "5", "--p", "1/2",
                    "--delta", "1", "--samples", "100000000000", "--seed", "1"]) == 3
        assert time.perf_counter() - started < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"budget exceeded: 100000000000 samples x 10 monomials exceed the " \
            f"{montecarlo.SAMPLE_MAX_CELLS}-cell cap" in captured.err

    def test_detect(self, capsys):
        from uptail.graphs import complete_graph, to_graph6
        code, data = run_json(capsys, ["mc", "detect", "--graph",
                                       to_graph6(complete_graph(8)),
                                       "--event", "clique", "--eps", "0.3",
                                       "--x", "1.0", "--p-real", "0.5", "--r", "3"])
        assert code == 0 and data["found"] and len(data["witness"]) == 8

    def test_detect_decides_the_hub_quota_exactly(self, capsys):
        # (1 - 0.9) * 10 is 0.9999999999999998 in floats, which floors to 0:
        # the float quota accepted ten vertices of degree 1 < (1 - 0.9) * 30
        from uptail.graphs import Graph, to_graph6
        matching = Graph(30, frozenset((i, i + 15) for i in range(15)))
        code, data = run_json(capsys, ["mc", "detect", "--graph", to_graph6(matching),
                                       "--event", "hub", "--eps", "0.9", "--x", "1.24",
                                       "--p-real", "0.5", "--r", "3"])
        assert code == 0 and data == {"event": "hub", "found": False, "witness": None}


class TestChecks:
    def test_extremal_ap_small(self, capsys):
        code, data = run_json(capsys, ["check", "extremal-ap", "--n", "10"])
        assert code == 0 and data["violations"] == 0

    def test_extremal_ap_output(self, capsys):
        code, data = run_json(capsys, ["check", "extremal-ap", "--n", "10"])
        del data["seconds"]
        assert code == 0 and data == {"n": 10, "k_range": [3, 4], "subsets_per_k": 1024,
                                      "violations": 0}

    def test_extremal_ap_past_the_cap(self, capsys):
        assert run(["check", "extremal-ap", "--n", "23"]) == 3
        assert capsys.readouterr().out == ""

    def test_alpha_small(self, capsys):
        code, data = run_json(capsys, ["check", "alpha", "--max-n", "4",
                                       "--random", "50"])
        assert code == 0 and data["mismatches"] == 0

    def test_alpha_checked_count(self, capsys):
        code, data = run_json(capsys, ["check", "alpha", "--max-n", "5",
                                       "--random", "10", "--seed", "1"])
        assert code == 0 and data == {"checked": 1034, "mismatches": 0}

    def test_alpha_past_the_cap(self, capsys, monkeypatch):
        # refused before any graph is checked
        monkeypatch.setattr(bounds, "bruteforce_alpha_halves", None)
        monkeypatch.setattr(bounds, "fractional_independence", None)
        monkeypatch.setattr(bounds, "_half_units", None)
        assert run(["check", "alpha", "--max-n", "7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "budget exceeded" in captured.err

    def test_alpha_random_past_the_cap(self, capsys, monkeypatch):
        # refused before any graph is drawn or checked
        for name in ("bruteforce_alpha_halves", "fractional_independence", "_half_units",
                     "_random_graph"):
            monkeypatch.setattr(bounds, name, None)
        assert run(["check", "alpha", "--max-n", "1", "--random", "100000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"100000000 random graphs exceed the {bounds.ALPHA_MAX_RANDOM}-graph cap" \
            in captured.err

    def test_alpha_random_at_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "ALPHA_MAX_RANDOM", 3)
        code, data = run_json(capsys, ["check", "alpha", "--max-n", "1", "--random", "3"])
        assert code == 0 and data == {"checked": 4, "mismatches": 0}
        assert run(["check", "alpha", "--max-n", "1", "--random", "4"]) == 3

    def test_alpha_refuses_a_negative_order(self, capsys):
        assert run(["check", "alpha", "--max-n", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error: --max-n must be nonnegative" in captured.err

    def test_bounds_small(self, capsys):
        code, data = run_json(capsys, ["check", "bounds", "--pairs", "60",
                                       "--seed", "2"])
        assert code == 0 and data["violations"] == 0

    def test_bounds_past_the_cap(self, capsys, monkeypatch):
        # refused before any instance is drawn or checked
        for name in ("_random_graph", "embedding_bound"):
            monkeypatch.setattr(bounds, name, None)
        assert run(["check", "bounds", "--pairs", "100000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"100000000 pairs exceed the {bounds.BOUNDS_MAX_PAIRS}-pair cap" in captured.err

    def test_bounds_at_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "BOUNDS_MAX_PAIRS", 3)
        code, data = run_json(capsys, ["check", "bounds", "--pairs", "3", "--seed", "2"])
        assert code == 0 and data["pairs"] == 3
        assert run(["check", "bounds", "--pairs", "4", "--seed", "2"]) == 3

    def test_stability(self, capsys):
        code, data = run_json(capsys, ["check", "stability", "--model", "triangles",
                                       "--n", "4", "--p", "1/2", "--delta", "1",
                                       "--eps", "0.2", "--ell", "2"])
        assert code == 0 and data["holds"]

    STABILITY = ["check", "stability", "--model", "triangles", "--n", "4", "--p", "1/2",
                 "--delta", "1", "--ell", "1", "--eps"]

    def test_stability_is_decided_exactly(self, capsys):
        # at eps = 1 + delta the bound is 0 and every outcome is blocked, so
        # the left side is 0 and it holds
        code, data = run_json(capsys, self.STABILITY + ["2"])
        assert code == 0 and (data["lhs"], data["bound"], data["holds"]) == ("0/1", 0.0, True)

    @pytest.mark.parametrize("eps", ["2.0000000000001", "0", "-1"])
    def test_stability_refuses_meaningless_eps(self, eps, capsys):
        # past 1 + delta the qualifying floor is negative and, for odd ell,
        # so is the bound; at or below 0 the check says nothing
        assert run(self.STABILITY + [eps]) == 2
        assert capsys.readouterr() == ("", "usage error: --eps must lie in (0, 1 + delta]\n")

    def test_stability_refuses_induced_models(self, capsys):
        code = run(["check", "stability", "--model", "induced", "--pattern", "Bg",
                    "--n", "5", "--p", "1/2", "--delta", "0.5", "--eps", "0.2", "--ell", "1"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: the stability check applies to monotone models\n"

    def test_janson(self, capsys):
        code, data = run_json(capsys, ["check", "janson", "--t", "5", "--s", "2",
                                       "--eps", "0.5"])
        assert code == 0 and data["holds"]

    @pytest.mark.parametrize("t, s, eps", [(6, 3, "0.2"), (6, 4, "0.1"), (9, 5, "0.1")])
    def test_janson_eps_is_exact(self, t, s, eps, capsys):
        # every s-subset holds exactly C(s, 2) = (1 - eps) mu pairs, so Z never
        # exceeds the cut; read as the binary neighbour of eps, it always did
        for text in (eps, str(Fraction(eps))):
            code, data = run_json(capsys, ["check", "janson", "--t", str(t), "--s", str(s),
                                           "--eps", text])
            assert code == 0 and data["exact"] == "1/1"

    def test_janson_family_is_a_choice(self, capsys):
        assert run("check janson --t 6 --s 3 --eps 0.5 --family foo".split()) == 2
        assert "invalid choice: 'foo'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "check janson --t 40 --s 20 --eps 0.5",
        # refused before the 166,167,000 triples are built
        "check janson --t 1000 --s 1 --eps 0.5 --family triples",
    ])
    def test_janson_past_the_budget(self, argv, capsys):
        assert run(argv.split()) == 3
        assert capsys.readouterr().err.startswith("budget exceeded: checking C(")


class TestPhaseDiagram:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "pd.csv"
        code = run(["phase-diagram", "--r", "3", "--delta-grid", "0.5:5:0.5",
                    "--c-grid", "1:10:1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "delta,c,phi,argmin_label"
        assert len(lines) == 1 + 10 * 10

    def test_out_writes_what_stdout_prints(self, tmp_path, capsys):
        argv = ["phase-diagram", "--r", "3", "--delta-grid", "0.1:2:0.1",
                "--c-grid", "0.5:5:0.5"]
        assert run(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "pd.csv"
        assert run(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == "" and out.read_bytes() == printed.encode()

    def test_distinct_grid_values_print_distinct_rows(self, capsys):
        # in 12 significant digits both deltas read "1"
        assert run(["phase-diagram", "--r", "3", "--delta-grid", "1:1.000000000001:1e-12",
                    "--c-grid", "1:1:1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows == ["1,1,0.5,clique", "1.000000000001,1,0.5,clique"]

    def test_bad_grid_is_a_usage_error(self, capsys):
        assert run(["phase-diagram", "--r", "3", "--delta-grid", "1:0:1",
                    "--c-grid", "1:10:1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --delta-grid: bad range: '1:0:1'" in captured.err

    # rounded to 12 decimals, 1 + i 1e-13 gave eleven rows "1,1,0.5,clique"
    @pytest.mark.parametrize("grid", ["1:1.000000000001:1e-13", "1e16:1e16:1e-3"])
    def test_grid_whose_values_repeat(self, grid, capsys):
        assert run(["phase-diagram", "--r", "3", "--delta-grid", grid,
                    "--c-grid", "1:10:1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --delta-grid: values repeat at 12 decimals: '{grid}'" in captured.err

    @pytest.mark.parametrize("argv, message", [
        # about 10^18 values: refused before the first is generated
        ("phase-diagram --r 3 --delta-grid 0:1e9:1e-9 --c-grid 1:2:1",
         "budget exceeded: grid '0:1e9:1e-9' has 1e+18 values, more than 1048576\n"),
        ("phase-diagram --r 3 --delta-grid 0.5:1:0.5 --c-grid 0:1e308:1e-308",
         "budget exceeded: grid '0:1e308:1e-308' has inf values, more than 1048576\n"),
        # each grid fits, the diagram does not
        ("phase-diagram --r 3 --delta-grid 1:2048:1 --c-grid 1:1024:1",
         "budget exceeded: the diagram has 2097152 rows, more than 1048576\n"),
    ])
    def test_grid_past_the_budget(self, argv, message, capsys):
        assert run(argv.split()) == 3
        assert capsys.readouterr() == ("", message)

    def test_repeating_c_grid_is_a_usage_error(self, capsys):
        grid = "2:2.0000000000001:1e-14"
        assert run(["phase-diagram", "--r", "3", "--delta-grid", "1:2:1", "--c-grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --c-grid: values repeat at 12 decimals: '{grid}'" in captured.err

    # the grids of perfbench/reference.json, the README and this file, each value the decimal it names
    @pytest.mark.parametrize("grid, count", [
        ("0.05:5:0.05", 100), ("0.1:10:0.1", 100), ("0.1:2:0.1", 20),
        ("0.5:5:0.5", 10), ("1:10:1", 10),
    ])
    def test_shipped_grid_keeps_its_values(self, grid, count):
        start, _, step = map(Decimal, grid.split(":"))
        assert cli._parse_grid(grid) == [float(start + i * step) for i in range(count)]

    def test_grid_at_the_budget(self):
        assert cli._parse_grid(f"1:{cli.GRID_POINTS}:1") == list(range(1, cli.GRID_POINTS + 1))
        with pytest.raises(BudgetExceededError):
            cli._parse_grid(f"0:{cli.GRID_POINTS}:1")

    def test_known_cell(self):
        text = phase_diagram_csv(3, [1.0], [3.0])
        row = text.splitlines()[1].split(",")
        assert math.isclose(float(row[2]), 1 / 3)
        assert row[3] == "hub"

    def test_large_delta_row_is_clique(self):
        # past the crossover the pure-clique cost wins for every finite c
        text = phase_diagram_csv(3, [4.0], [float(c) for c in range(1, 11)])
        labels = {line.split(",")[3] for line in text.splitlines()[1:]}
        assert labels == {"clique"}

    def test_deterministic(self):
        grid_d = [0.3 * i for i in range(1, 6)]
        grid_c = [0.7 * i for i in range(1, 6)]
        assert phase_diagram_csv(3, grid_d, grid_c) == phase_diagram_csv(3, grid_d, grid_c)


class TestErrors:
    def test_unknown_verb(self):
        assert run(["nosuchverb"]) == 2

    def test_unknown_flag(self):
        assert run(["rate", "clique", "--r", "3", "--delta", "1",
                    "--c", "inf", "--bogus", "1"]) == 2

    def test_budget_exit_code(self):
        assert run(["dist", "exact", "--model", "ap", "--N", "23", "--k", "3",
                    "--p", "1/2"]) == 3

    @pytest.mark.parametrize("argv", [
        "cores extract --model ap --N 30 --k 3 --p 1/2 --s 1 --elements 1,2,3,100",
        "cores extract --model ap --N 70 --k 3 --p 1/2 --s 1 --elements 1,2,3,200",
        "mc sample --model ap --N 40 --k 3 --p 1/5 --delta 1 --samples 100 --seed 1 "
        "--plant-elements 1,41",
    ])
    def test_elements_outside_the_ground_set(self, argv, capsys):
        assert run(argv.split()) == 2
        assert "elements of 1.." in capsys.readouterr().err

    def test_bad_p(self):
        assert run(["dist", "exact", "--model", "triangles", "--n", "4",
                    "--p", "3/2"]) == 2

    def test_s_that_is_not_a_rational(self, capsys):
        argv = "cores extract --model triangles --n 4 --p 1/2 --s half --edges 0-1"
        assert run(argv.split()) == 2
        assert "argument --s: not a rational: 'half'" in capsys.readouterr().err

    def test_p_that_is_not_a_rational(self, capsys):
        assert run(["dist", "exact", "--model", "triangles", "--n", "4", "--p", "half"]) == 2
        assert "argument --p: not a rational: 'half'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        ("dist exact --model ap --p 1/2", "--N is required for ap models"),
        ("dist exact --model triangles --p 1/2", "--n is required for triangles models"),
        ("phi brute --model induced --pattern Bg --p 1/2 --delta 1",
         "--n is required for induced models"),
        ("moments --model clique --n 5 --p 1/2", "--r is required for clique models"),
        ("mc sample --model triangles --n 4 --p 1/2 --delta 1 --samples 10 --seed 1 "
         "--plant-elements 1", "--plant-edges is required for graph conditioning"),
        ("mc sample --model ap --N 5 --p 1/2 --delta 1 --samples 10 --seed 1 "
         "--plant-edges 0-1", "--plant-elements is required for AP conditioning"),
        ("cores extract --model triangles --n 4 --p 1/2 --s 1 --edges 01",
         "--edges: bad token '01'"),
        ("cores extract --model triangles --n 4 --p 1/2 --s 1 --edges 0-1,0-x",
         "--edges: bad token '0-x'"),
        ("mc sample --model triangles --n 4 --p 1/2 --delta 1 --samples 10 --seed 1 "
         "--plant-edges 0-1-2", "--plant-edges: bad token '0-1-2'"),
        ("cores extract --model ap --N 5 --p 1/2 --s 1 --elements 1,two",
         "--elements: bad token 'two'"),
        ("rate ap --delta -1", "--delta must be nonnegative"),
        ("rate regular --pattern Bw --delta -1 --c inf", "--delta must be nonnegative"),
        # k = 3..kmax would be empty: nothing would be checked
        ("check extremal-ap --n 10 --kmax 2", "--kmax must be at least 3"),
        # p outside (0, 1) gives the events no meaning; p = 0 found [0]
        ("mc detect --graph G~~~~{ --event hub --eps 0.1 --x 1 --p-real 0 --r 3",
         "--p-real must lie in (0, 1)"),
        ("mc detect --graph G~~~~{ --event clique --eps 0.1 --x 1 --p-real -1 --r 3",
         "--p-real must lie in (0, 1)"),
        ("mc detect --graph G~~~~{ --event clique --eps 0.1 --x 1 --p-real 1 --r 3",
         "--p-real must lie in (0, 1)"),
    ])
    def test_usage_errors_name_the_flag(self, argv, message, capsys):
        assert run(argv.split()) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        ("rate ap --delta nan", "argument --delta: not a finite number: 'nan'"),
        ("rate ap --delta inf", "argument --delta: not a finite number: 'inf'"),
        ("rate ap --delta 1e400", "argument --delta: not a finite number: '1e400'"),
        ("rate clique --r 3 --delta nan --c 1", "argument --delta: not a finite number: 'nan'"),
        ("rate clique --r 3 --delta 1 --c nan", "argument --c: not a finite number: 'nan'"),
        ("rate clique --r 3 --delta 1 --c Infinity",
         "argument --c: not a finite number: 'Infinity'"),
        ("rate regular --pattern Bw --delta inf --c 0",
         "argument --delta: not a finite number: 'inf'"),
        ("phase-diagram --r 3 --delta-grid nan:1:0.1 --c-grid 1:2:1",
         "argument --delta-grid: not a finite range: 'nan:1:0.1'"),
        ("phase-diagram --r 3 --delta-grid 0.1:inf:0.1 --c-grid 1:2:1",
         "argument --delta-grid: not a finite range: '0.1:inf:0.1'"),
        ("phase-diagram --r 3 --delta-grid 0.1:1:0.1 --c-grid 1:2:nan",
         "argument --c-grid: not a finite range: '1:2:nan'"),
    ])
    def test_non_finite_numbers_are_refused_by_flag(self, argv, message, capsys):
        assert run(argv.split()) == 2
        assert message in capsys.readouterr().err

    def test_c_inf_is_the_one_non_finite_value(self, capsys):
        code, data = run_json(capsys, ["rate", "regular", "--pattern", "Bw",
                                       "--delta", "1", "--c", "inf"])
        assert code == 0 and math.isclose(data["theta"], 1 / 3, abs_tol=1e-9)


class TestParserReuse:
    """One parser serves every query of a process, as a fresh one would."""

    QUERIES = [
        ["phi", "brute", "--model", "triangles", "--n", "4"],          # usage error: no --p
        ["phi", "brute", "--model", "triangles", "--n", "4", "--p", "1/2", "--delta", "0.9"],
        ["cores", "extract", "--model", "triangles", "--n", "4", "--p", "1/2",
         "--s", "5/2", "--edges", "0-1,0-2,1-2,0-3"],
        ["rate", "clique", "--r", "3", "--delta", "1", "--c", "inf"],
    ]

    def test_same_outputs_as_a_fresh_parser(self, capsys):
        def answer(argv):
            code = run(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        _build_parser.cache_clear()
        reused = [answer(argv) for argv in self.QUERIES]
        assert _build_parser() is _build_parser()
        fresh = []
        for argv in self.QUERIES:
            _build_parser.cache_clear()
            fresh.append(answer(argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [2, 0, 0, 0]


def _imports(path):
    """The dotted names a source file imports, relative ones with their dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names.add(module)
            names.update(f"{module.rstrip('.')}.{alias.name}" for alias in node.names)
    return names


def test_only_the_cli_parses_arguments():
    root = Path(__file__).resolve().parents[1]
    for path in (root / "src" / "uptail").glob("*.py"):
        assert path.stem == "cli" or "argparse" not in _imports(path), path.name
    scripts = sorted((root / "scripts").glob("*.py"))
    assert scripts
    for path in scripts:
        assert "uptail.cli" not in _imports(path), path.name


def _read_names(tree, strings=False):
    """The identifiers a syntax tree reads (names, attributes, imported
    names), and with ``strings`` its string constants too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _top_level(tree):
    """(name, node) of each top-level definition: functions, classes and
    assigned names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def test_every_definition_is_reached():
    """Every top-level definition in src/uptail but a dunder is read, by
    name and transitively, from a root: the verbs (through the top-level
    ``main()`` of ``cli``), a script, the benchmark (whose tracer names
    functions as strings) or ``uptail.__all__``.  Tests are no root: a
    reference only tests read lives under tests/."""
    import uptail
    root = Path(__file__).resolve().parents[1]
    reached = set(uptail.__all__)
    for path in (root / "scripts").glob("*.py"):
        reached.update(_read_names(ast.parse(path.read_text(encoding="utf-8"))))
    for path in (root / "perfbench").glob("*.py"):
        reached.update(_read_names(ast.parse(path.read_text(encoding="utf-8")), strings=True))
    definitions = []
    for path in sorted((root / "src" / "uptail").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = list(_top_level(tree))
        definitions += [(f"{path.stem}.{name}", name, node) for name, node in defined]
        code = {node for _, node in defined}
        for node in tree.body:
            if node not in code and not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached.update(_read_names(node))
    expanded = set()
    while fresh := [node for _, name, node in definitions
                    if name in reached and node not in expanded]:
        for node in fresh:
            expanded.add(node)
            reached.update(_read_names(node))
    unreached = sorted(label for label, name, _ in definitions
                       if name not in reached and not name.startswith("__"))
    assert unreached == [], f"{len(unreached)} unreached: {', '.join(unreached)}"


def _members(cls):
    """(name, node) of each method, property and annotated field a class
    body defines."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _attributes_read(tree, strings=False):
    """The attribute names a syntax tree reads, and with ``strings`` its
    string constants too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_member_is_read():
    """Every method, property and annotated field but a dunder of a class in
    src/uptail that ``uptail.__all__`` does not export is read as an
    attribute outside its own definition: elsewhere in src/uptail, in a
    script or in the benchmark (whose strings count).  A member only tests
    read leaves src."""
    import uptail
    root = Path(__file__).resolve().parents[1]
    read = set()
    for path in (root / "scripts").glob("*.py"):
        read.update(_attributes_read(ast.parse(path.read_text(encoding="utf-8"))))
    for path in (root / "perfbench").glob("*.py"):
        read.update(_attributes_read(ast.parse(path.read_text(encoding="utf-8")), strings=True))
    in_src = Counter()
    members = []
    for path in sorted((root / "src" / "uptail").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_src.update(_attributes_read(tree))
        members += [(f"{path.stem}.{cls.name}.{name}", name, node)
                    for cls in tree.body
                    if isinstance(cls, ast.ClassDef) and cls.name not in uptail.__all__
                    for name, node in _members(cls) if not name.startswith("__")]
    unread = sorted(label for label, name, node in members
                    if name not in read and in_src[name] <= list(_attributes_read(node)).count(name))
    assert unread == [], f"{len(unread)} unread: {', '.join(unread)}"
