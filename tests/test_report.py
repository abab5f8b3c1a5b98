"""The dossier solves each (convention, n, l) state once, at its precision,
and builds and normalizes each state it reads once."""

import inspect

import pytest

from heunqdot import cli, oracle, ratpoly, report, wavefunction
from heunqdot.reference_data import load_reference
from heunqdot.termination import (
    GammaConvention,
    coefficient_chain,
    solve_termination,
)
from heunqdot.wavefunction import assemble_polynomial, normalize


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
        {(conv, n, l) for conv in report.CONVENTIONS
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
    """The Taylor shifts of the Descartes tree and the exact polynomial
    evaluations of refinement over the dossier's 16 solves. The tree used
    626 shifts from the top of the Cauchy grid and 179 from its start level
    beside the deleted negative-root tree; alone it takes 61. Bisection used
    1197 evaluations and quadratic interval refinement alone 371. With the
    float seed every root takes four: the two ends of its bracket and of its
    cell."""
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
    assert counts == {"shifts": 61, "evaluations": 96}
    assert 2 * counts["shifts"] <= 626 and counts["evaluations"] <= 5 * roots


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


def test_report_gives_a_verdict_past_the_closed_form_norm():
    """At table n = 10 and l = 0 the Gamma sum refuses to normalize. The
    verdicts read no norm, and only the published grid's states are
    normalized, so every root of the wider grid gets a verdict row and the
    table sections read as on the default grid."""
    rep = report.build_report(n_values=range(2, 12), l_values=(0, 1))
    roots = [(n, l, r.t_star) for l in (0, 1) for n in range(2, 12)
             for r in solve_termination(n, l).rootset.roots]
    assert [(row["n"], row["l"], row["t_star"]) for row in rep["oracle"]] == [
        (n, l, report.q6(t)) for n, l, t in roots]
    default = report.build_report()
    for section in ("tables", "normalization_attempts", "moment_attempts",
                    "mean_r"):
        assert rep[section] == default[section], section


def test_report_solves_each_oracle_problem_once(monkeypatch):
    """12 roots and the Coulomb-off problem at l = 0 and 1, which the three
    calibration rows share."""
    calls = []
    sig = inspect.signature(oracle.solve_eigen)
    solve_eigen = oracle.solve_eigen

    def counting(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(tuple(bound.arguments.values()))
        return solve_eigen(*args, **kwargs)

    monkeypatch.setattr(oracle, "solve_eigen", counting)
    report.build_report()
    assert len(calls) == 14
    assert len(set(calls)) == len(calls)


def test_calibration_deltas_are_roundoff():
    """The exact calibration delta is 0; what the report prints is the
    roundoff of the eigensolve, bounded rather than pinned. The ODE residual
    of the exact oscillator states is finite-difference roundoff too, while
    that of every verdict row, none of them an exact state, is order one:
    a residual that read the same everywhere would fail one bound."""
    rep = report.build_report()
    rows = rep["oscillator_calibration"]
    assert [(row["n"], row["l"]) for row in rows] == [(0, 0), (2, 0), (2, 1)]
    for row in rows:
        assert row["classification"] == "CONFIRMED"
        assert row["abs_delta"] <= 1e-13 * row["eta_analytic"], row
        assert row["residual"] <= 1e-6, row
    assert len(rep["oracle"]) == 12
    assert min(row["residual"] for row in rep["oracle"]) >= 0.5


def test_report_energies_come_from_the_state(monkeypatch):
    """The roots section and Table 3 print the omega and eta of each root's
    state, so a state that carries another eta is printed with that eta."""
    states = {}
    sig = inspect.signature(assemble_polynomial)

    def sentinel(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        sol = assemble_polynomial(*args, **kwargs)
        # an eta that no formula in the program gives
        sol = sol._replace(eta=sol.eta + 1.0)
        if bound.arguments["A_chain"] is None:  # a chain state, not printed
            states[(bound.arguments["convention"], sol.n, sol.l,
                    report.q6(sol.t_star))] = sol
        return sol

    monkeypatch.setattr(report, "assemble_polynomial", sentinel)
    rep = report.build_report()
    checked = 0
    for group in rep["roots"]:
        conv = GammaConvention(group["convention"])
        for entry in group["roots"]:
            sol = states[(conv, group["n"], group["l"], entry["t_star"])]
            assert entry["eta"] == report.q6(sol.eta)
            assert entry["omega"] == report.q6(sol.omega)
            checked += 1
    assert checked == 24                         # 12 roots per convention

    published = load_reference().roots(0)
    table3 = {row["row_key"]: row for row in rep["tables"]
              if row["table_id"] == "table3"}
    for n in report.PUBLISHED_N:
        near = min((sol for (conv, m, l, _), sol in states.items()
                    if (conv, m, l) == (GammaConvention.TABLE, n, 0)),
                   key=lambda sol: abs(sol.t_star - published[n][0]))
        assert table3[f"n{n}.eta"]["computed_value"] == report.q6(near.eta)
