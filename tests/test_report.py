"""The dossier solves each (convention, n, l) state once, at its precision."""

import inspect

import pytest

from heunqdot import cli, report
from heunqdot.termination import GammaConvention, solve_termination


@pytest.fixture
def solve_calls(monkeypatch):
    """Every call report makes to solve_termination, as bound arguments."""
    calls = []
    sig = inspect.signature(solve_termination)

    def counting(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return solve_termination(*args, **kwargs)

    monkeypatch.setattr(report, "solve_termination", counting)
    return calls


def _keys(calls):
    return [(c["convention"], c["n"], c["l"]) for c in calls]


def test_report_solves_each_state_once_at_its_precision(solve_calls):
    report.build_report(precision=1e-9)
    keys = _keys(solve_calls)
    assert len(keys) == 16                       # 2 conventions x 4 n x 2 l
    assert len(set(keys)) == len(keys)
    assert {c["precision"] for c in solve_calls} == {1e-9}


def test_report_joins_its_grid_with_the_published_one(solve_calls):
    # the tables always cover the published grid n = 2..5, l = 0..1
    report.build_report(n_values=(2, 6), l_values=(0, 2))
    keys = _keys(solve_calls)
    assert len(set(keys)) == len(keys)
    assert set(keys) == (
        {(conv, n, l) for conv in GammaConvention
         for n in (2, 6) for l in (0, 2)}
        | {(GammaConvention.TABLE, n, l) for n in (2, 3, 4, 5) for l in (0, 1)})


def test_tables_solve_the_published_grid_once(solve_calls):
    report.build_tables(GammaConvention.LITERAL)
    assert sorted(_keys(solve_calls)) == sorted(
        (GammaConvention.LITERAL, n, l) for n in (2, 3, 4, 5) for l in (0, 1))


def test_tables_command_solves_at_its_precision(solve_calls, tmp_path):
    cli.main(["tables", "--precision", "1e-9", "--out", str(tmp_path)])
    assert len(solve_calls) == 8
    assert {c["precision"] for c in solve_calls} == {1e-9}
