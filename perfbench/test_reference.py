"""Tests for the benchmark's reference generators (reference.py).

Run with: python3 -m pytest perfbench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference


def _state(t, N, l):
    return next(s for s in reference.exact_states(n_max=2, l_max=1)
                if s["N"] == N and s["l"] == l and math.isclose(s["t"], t))


@pytest.mark.parametrize("N, l, t", [(1, 0, math.sqrt(2)),
                                     (2, 0, math.sqrt(12)),
                                     (1, 1, math.sqrt(6))])
def test_exact_states_closed_form_points(N, l, t):
    state = _state(t, N, l)
    assert state["t"] == pytest.approx(t, rel=1e-15)
    assert state["omega"] == pytest.approx(1 / t ** 2, rel=1e-15)
    assert state["eta"] == pytest.approx((N + l + 1) / t ** 2, rel=1e-15)
    assert state["nodes"] == 0


def test_exact_states_count_and_nodes():
    states = reference.exact_states()
    assert len(states) == 60
    # floor((N+1)/2) positive roots for each N, one state per node count 0..
    for N in range(1, 9):
        for l in range(3):
            nodes = sorted(s["nodes"] for s in states if s["N"] == N and s["l"] == l)
            assert nodes == list(range((N + 1) // 2))


def test_n2_l0_determinant_root():
    poly = reference.termination_polynomial(2, 0)
    assert poly.all_coeffs() == [pytest.approx(0.25), 0, 0, -4]
    (root,) = reference.positive_roots(poly)
    assert root == pytest.approx(16 ** (1 / 3), rel=1e-15)


def test_literal_convention_differs_from_table():
    table = reference.termination_polynomial(3, 0, "table")
    literal = reference.termination_polynomial(3, 0, "literal")
    assert table != literal


@pytest.mark.parametrize("omega, l, eta", [(0.5, 0, 1.0), (1 / 12, 0, 0.25),
                                           (1 / 6, 1, 0.5)])
def test_ritz_reproduces_exact_states(omega, l, eta):
    etas, errs = reference.ritz_eigenvalues(omega, l)
    assert etas[0] == pytest.approx(eta, rel=1e-9)
    assert errs[0] < 1e-9 * eta


def test_ritz_oscillator_spectrum():
    # Coulomb term off: eta = omega (2k + l + 1)
    etas, _ = reference.ritz_eigenvalues(0.3, 2, coulomb_a=0.0, count=4)
    assert etas == pytest.approx(0.3 * (2 * np.arange(4) + 3), rel=1e-10)


def test_norm_quadrature_of_oscillator_ground_state():
    # u = r^(l+1/2) e^(-omega r^2/2): int u^2 dr = Gamma(l+1) / (2 omega^(l+1))
    omega, l = 0.01, 1
    norm = 1 / math.sqrt(math.gamma(l + 1) / (2 * omega ** (l + 1)))
    assert reference.norm_quadrature([1.0], norm, omega, l) == pytest.approx(1.0, abs=1e-13)
