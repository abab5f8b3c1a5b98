"""Acceptance suite: one test per criterion, one printed line per criterion.

Published-value mismatches elsewhere in the package are report content, but
these criteria are the package's own exit bar, pinned at fixed tolerances:
4 significant figures = 5e-5 relative, 4 decimal places = 5e-5 absolute.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from heunqdot.cli import main
from heunqdot.model import RadialProblem, effective_potential_term
from heunqdot.oracle import ShootingConfig, solve_eigen
from heunqdot.report import build_report
from heunqdot.termination import (
    GammaConvention,
    dense_determinant_check,
    solve_termination,
)
from heunqdot.wavefunction import (
    PolynomialSolution,
    assemble_polynomial,
    moment,
    moment_quad,
    norm_integral_closed,
    norm_integral_quad,
    normalize,
)

SIG4 = 5e-5   # four significant figures, relative
DEC4 = 5e-5   # four decimal places, absolute

TABLE1 = {2: [2.5198], 3: [7.3825], 4: [2.47047, 14.1004], 5: [7.65075]}
TABLE2 = {2: [3.6342], 3: [8.1091], 4: [3.5028, 14.5564], 5: [8.3627, 21.6111]}
TABLE3 = {2: 0.4725, 3: 0.0734, 4: 0.8192, 5: 0.1025}


def _status(num, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def computed_roots():
    out = {}
    for l in (0, 1):
        for n in (2, 3, 4, 5):
            out[(n, l)] = [r.t_star for r in
                           solve_termination(n, l, GammaConvention.TABLE).rootset.roots]
    return out


@pytest.fixture(scope="module")
def full_report():
    return build_report((2, 3, 4, 5), (0, 1), GammaConvention.TABLE)


def test_criterion_1_table1_roots(computed_roots):
    t0 = time.perf_counter()
    recomputed = {n: [r.t_star for r in solve_termination(n, 0).rootset.roots]
                  for n in (2, 3, 4, 5)}
    elapsed = time.perf_counter() - t0

    failures = []
    for n, pubs in TABLE1.items():
        for pub in pubs:
            near = min(recomputed[n], key=lambda t: abs(t - pub))
            if abs(near - pub) > SIG4 * pub:
                failures.append(f"n={n}: {near:.6f} vs published {pub}")
    closed_form = abs(recomputed[2][0] - 16 ** (1 / 3))
    ok = not failures and closed_form < 1e-12 and elapsed < 1.0
    _status(1, ok, f"l=0 roots, {elapsed * 1e3:.0f} ms, "
                   f"|n=2 root - 16^(1/3)| = {closed_form:.1e}")
    assert not failures, failures
    assert closed_form < 1e-12
    assert elapsed < 1.0


def test_criterion_2_table2_roots(computed_roots):
    failures = []
    for n, pubs in TABLE2.items():
        for pub in pubs:
            near = min(computed_roots[(n, 1)], key=lambda t: abs(t - pub))
            if abs(near - pub) > SIG4 * pub:
                failures.append(
                    f"n={n}: computed {near:.6f} vs published {pub} "
                    f"(rel delta {abs(near - pub) / pub:.1e})")
    closed_form = abs(computed_roots[(2, 1)][0] - 48 ** (1 / 3))
    t3 = computed_roots[(3, 1)][0]
    cubic = abs(t3 ** 3 - 48 * t3 - 144)
    ok = not failures and closed_form < 1e-12 and cubic < 1e-10 * 144
    _status(2, ok, f"l=1 roots; |n=2 - 48^(1/3)| = {closed_form:.1e}; "
                   f"|t^3-48t-144| = {cubic:.1e}"
                   + (f"; {failures}" if failures else ""))
    assert closed_form < 1e-12
    assert cubic < 1e-10 * 144
    assert not failures, failures


def test_criterion_3_energies(computed_roots):
    failures = []
    for n, pub_eta in TABLE3.items():
        pub_root = TABLE1[n][0]
        t = min(computed_roots[(n, 0)], key=lambda v: abs(v - pub_root))
        eta = (n + 0 + 1) / t ** 2
        if abs(eta - pub_eta) > DEC4:
            failures.append(f"n={n}: eta {eta:.5f} vs {pub_eta}")
    _status(3, not failures, "eta = (n+l+1)/t^2 vs published, 4 decimals")
    assert not failures, failures


def test_criterion_4_exact_determinant_equivalence():
    rng = random.Random(20240817)
    checked = 0
    for n in range(1, 9):
        for l in range(0, 4):
            for _ in range(50):
                t = Fraction(rng.randint(1, 2000), 100)  # rational t in (0, 20]
                assert dense_determinant_check(n, l, t), (n, l, t)
                checked += 1
    _status(4, True, f"{checked} exact dense-vs-recurrence comparisons")


def test_criterion_5_oracle_calibration():
    t0 = time.perf_counter()
    worst = 0.0
    for omega in (0.05, 0.25, 1.0):
        for l in (0, 1, 2):
            res = solve_eigen(RadialProblem(omega=omega, l=l),
                              ShootingConfig(node_target=3), coulomb_on=False)
            for k, e in enumerate(res.eigenvalues):
                exact = (2 * k + l + 1) * omega
                worst = max(worst, abs(e.eta - exact) / exact)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _status(5, ok, f"worst relative error {worst:.2e}, sweep {elapsed:.1f} s")
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_6_normalization_and_moments(computed_roots):
    worst = 0.0
    for (n, l), roots in computed_roots.items():
        for t in roots:
            sol = assemble_polynomial(n, l, t)
            state = normalize(sol)
            pairs = [(norm_integral_closed(sol), norm_integral_quad(sol)),
                     (moment(state, 1), moment_quad(state, 1)),
                     (moment(state, 2), moment_quad(state, 2))]
            for closed, quad in pairs:
                worst = max(worst, abs(closed - quad) / abs(quad))
    gauss = normalize(PolynomialSolution(n=0, l=0, t_star=1.0, omega=1.0,
                                         eta=1.0, y_coeffs=(1.0,),
                                         A_chain=(1.0,)))
    n_err = abs(gauss.N - math.sqrt(2))
    r_err = abs(moment(gauss, 1) - math.sqrt(math.pi) / 2)
    ok = worst < 1e-8 and n_err < 1e-10 and r_err < 1e-10
    _status(6, ok, f"closed-vs-quadrature worst rel {worst:.1e}; Gaussian "
                   f"|N - sqrt2| = {n_err:.1e}, |<r> - sqrt(pi)/2| = {r_err:.1e}")
    assert worst < 1e-8
    assert n_err < 1e-10 and r_err < 1e-10


def test_criterion_7_dual_reading_attempts(full_report):
    norm = full_report["normalization_attempts"]
    mom = full_report["moment_attempts"]
    assert len(norm) == 8 and len(mom) == 8
    for row in norm + mom:
        assert "omega_fixed" in row and "abs_delta" in row["omega_fixed"]
        for per_root in row["omega_root"]:
            assert "abs_delta" in per_root
    mean_r = full_report["mean_r"]
    ok = mean_r["within_bracket"]
    _status(7, ok, f"paper-root <r> in [{mean_r['min']}, {mean_r['max']}] Bohr "
                   f"vs bracket {mean_r['sanity_bracket_bohr']}; both omega "
                   "readings emitted with |delta| columns")
    assert mean_r["sanity_bracket_bohr"] == [1.0, 50.0]
    assert ok, (f"<r> outside [1, 50] Bohr for a paper-root state: "
                f"{mean_r['values_paper_roots']}")


def test_criterion_8_validation_dossier(tmp_path):
    t0 = time.perf_counter()
    code = main(["report", "--n", "2..5", "--l", "0..1", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())

    n_roots = sum(len(b["roots"]) for b in rep["roots"]
                  if b["convention"] == "table")
    assert n_roots == 12
    assert len(rep["oracle"]) == 12
    assert all(r["classification"] in ("CONFIRMED", "NEAR", "DISCREPANT")
               for r in rep["oracle"])
    diffs = rep["convention_differences"]
    assert len(diffs) == 8
    assert any(not d["identical"] for d in diffs)      # n >= 3 roots move
    assert all(d["identical"] for d in diffs if d["n"] == 2)
    ok = elapsed < 60.0
    _status(8, ok, f"report in {elapsed:.1f} s; 12 roots classified "
                   f"({sum(r['classification'] == 'DISCREPANT' for r in rep['oracle'])}"
                   " discrepant); convention differences recorded")
    assert ok


def test_criterion_9_property_suite(computed_roots, tmp_path):
    # small-r exponent
    for (n, l) in ((2, 0), (3, 1)):
        t = computed_roots[(n, l)][0]
        state = normalize(assemble_polynomial(n, l, t))
        assert state.u(1e-8) / 1e-8 ** (l + 0.5) == pytest.approx(1.0, abs=1e-6)
    # large-r decay
    for (n, l) in ((2, 0), (5, 1)):
        t = computed_roots[(n, l)][0]
        state = normalize(assemble_polynomial(n, l, t))
        r = 20.0 / math.sqrt(state.omega)
        assert abs(state.u(r)) * math.exp(state.omega * r * r / 4) < 1e-30
    # node-count ordering in the oracle
    res = solve_eigen(RadialProblem(omega=0.25, l=0),
                      ShootingConfig(node_target=3), coulomb_on=True)
    assert [e.nodes for e in res.eigenvalues] == [0, 1, 2, 3]
    assert res.etas == sorted(res.etas)
    # l-sign symmetry
    for l in (1, 3):
        assert effective_potential_term(0.7, 0.3, l) == \
            effective_potential_term(0.7, 0.3, -l)
    # determinism: byte-identical reruns
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["roots", "--n", "2..5", "--l", "0..1", "--out", str(out)]) == 0
        assert main(["tables", "--out", str(out)]) == 0
        assert main(["moments", "--n", "2..3", "--l", "0..1",
                     "--out", str(out)]) == 0
    for name in ("roots.csv", "tables.csv", "moments.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    _status(9, True, "small-r, large-r, node ordering, l-symmetry, determinism")
