"""The dossier solves each (convention, n, l) state once, at its precision,
and builds and normalizes each state it reads once."""

import inspect

import pytest

from heunqdot import cli, ratpoly, report, wavefunction
from heunqdot.termination import (
    GammaConvention,
    coefficient_chain,
    solve_termination,
)
from heunqdot.wavefunction import normalize


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


def test_dossier_root_isolation_work(solve_calls, monkeypatch):
    """The Taylor shifts of the Descartes trees and the exact polynomial
    evaluations of refinement over the dossier's 16 solves. The tree used
    626 shifts from the top of the Cauchy grid, and bisection 1197
    evaluations."""
    report.build_report()
    assert len(solve_calls) == 16
    counts = {"shifts": 0, "evaluations": 0}

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(ratpoly, "_taylor_shift",
                        counting("shifts", ratpoly._taylor_shift))
    monkeypatch.setattr(ratpoly, "_value_at",
                        counting("evaluations", ratpoly._value_at))
    roots = sum(len(solve_termination(**call).rootset.roots)
                for call in solve_calls)
    assert roots == 24
    assert counts == {"shifts": 179, "evaluations": 371}
    assert 2 * counts["shifts"] <= 626 and 2 * counts["evaluations"] <= 1197


def test_report_builds_and_normalizes_each_state_once(monkeypatch):
    chains, normalized = [], []

    def counting_chain(n, l, t_star, convention=GammaConvention.TABLE):
        chains.append((convention, n, l, t_star))
        return coefficient_chain(n, l, t_star, convention)

    def counting_normalize(solution):
        normalized.append(solution)
        return normalize(solution)

    assert not hasattr(report, "coefficient_chain")
    monkeypatch.setattr(wavefunction, "coefficient_chain", counting_chain)
    # the oracle imports normalize from wavefunction when it builds a state
    for module in (report, wavefunction):
        monkeypatch.setattr(module, "normalize", counting_normalize)
    report.build_report()
    # one chain per (convention, n, l, root): 12 roots in each convention,
    # and one per fixed-omega state: 8 published (n, l)
    assert len(set(chains)) == len(chains) <= 32
    # 12 table roots, 8 fixed-omega, 12 printed-coefficient and 3 oscillator
    # states (at n = 2 the printed and chain coefficients agree, so two
    # distinct solutions compare equal: count them by identity)
    assert len({id(s) for s in normalized}) == len(normalized) <= 35
