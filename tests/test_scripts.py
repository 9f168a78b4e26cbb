"""The checks that scripts/tail_anatomy.py decides in rationals: it prints
its sanity line only after every row passes, and raises on a row that
breaks either inequality."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from uptail.moments import ExactDist, exact_distribution

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "tail_anatomy.py"
SANITY = "sanity: markov <= exact <= plant+cor on every row above"
AP_QUICK = ["--model", "ap", "--N", "12", "--quick", "--samples", "2000"]


def _load():
    spec = importlib.util.spec_from_file_location("tail_anatomy", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(module, argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT)] + argv)
    return module.main()


@pytest.mark.parametrize("argv", [["--quick", "--samples", "2000"], AP_QUICK],
                         ids=["triangles", "ap"])
def test_sanity_line_follows_every_row(argv, monkeypatch, capsys):
    assert _run(_load(), argv, monkeypatch) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line for line in lines if line[:8].strip() in ("0.50", "1.00", "2.00")]
    assert len(rows) == 3
    assert lines.index("  " + SANITY) > lines.index(rows[-1])


def test_a_moment_above_the_tail_is_refused(monkeypatch, capsys):
    # with every factorial moment zero, the delta = 2 row's markov bound beats the tail
    module = _load()
    monkeypatch.setattr(module, "factorial_moments_from_dist",
                        lambda dist, t_max: [Fraction(0)] * (t_max + 1))
    with pytest.raises(AssertionError, match="moment bound at t=1 beats the exact tail"):
        _run(module, AP_QUICK, monkeypatch)
    assert SANITY not in capsys.readouterr().out


def test_a_tail_below_the_planting_bound_is_refused(monkeypatch, capsys):
    # all but 10^-30 of each positive value's mass moved to 0: the moment
    # bounds shrink with the tail, the planting bound does not
    def thinned(model):
        dist = exact_distribution(model)
        pmf = {v: pr / 10 ** 30 for v, pr in dist.pmf.items() if v}
        pmf[0] = 1 - sum(pmf.values())
        return ExactDist(pmf, dist.n_outcomes)

    module = _load()
    monkeypatch.setattr(module, "exact_distribution", thinned)
    with pytest.raises(AssertionError, match="the exact tail beats plant\\+cor at delta=0.5"):
        _run(module, ["--quick", "--samples", "2000"], monkeypatch)
    assert SANITY not in capsys.readouterr().out
