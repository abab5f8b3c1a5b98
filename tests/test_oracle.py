from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heunqdot import oracle
from heunqdot.model import RadialProblem
from heunqdot.oracle import (
    CONFIRMED,
    DISCREPANT,
    NEAR,
    NoEigenvalueError,
    ShootingConfig,
    dense_determinant_check,
    oscillator_state,
    solve_eigen,
    validate_oscillator,
    validate_root,
)
from heunqdot.termination import GammaConvention, solve_termination

F = Fraction


class TestShootingConfig:
    def test_defaults_valid(self):
        cfg = ShootingConfig()
        assert cfg.node_target == 3
        assert cfg.eta_bracket is None

    def test_invariants(self):
        with pytest.raises(ValueError):
            ShootingConfig(node_target=-1)


class TestCoulombOff:
    def test_lowest_l0(self):
        res = solve_eigen(RadialProblem(omega=1.0, l=0),
                          ShootingConfig(node_target=0), coulomb_on=False)
        assert res.etas[0] == pytest.approx(1.0, rel=1e-6)

    def test_lowest_l1_quarter(self):
        res = solve_eigen(RadialProblem(omega=0.25, l=1),
                          ShootingConfig(node_target=0), coulomb_on=False)
        assert res.etas[0] == pytest.approx(0.5, rel=1e-6)

    def test_node_counts_order_states(self):
        res = solve_eigen(RadialProblem(omega=0.25, l=0),
                          ShootingConfig(node_target=3), coulomb_on=False)
        assert [e.nodes for e in res.eigenvalues] == [0, 1, 2, 3]
        etas = res.etas
        assert etas == sorted(etas)

    def test_eigenfunction_node_theorem(self):
        res = solve_eigen(RadialProblem(omega=0.5, l=1),
                          ShootingConfig(node_target=3), coulomb_on=False)
        for k, u in enumerate(res.eigenfunctions):
            interior = u[1:-1]
            s = np.sign(interior[np.abs(interior) > 1e-9 * np.abs(interior).max()])
            nodes = int(np.count_nonzero(s[1:] != s[:-1]))
            assert nodes == k

    def test_convergence_width(self):
        res = solve_eigen(RadialProblem(omega=1.0, l=0),
                          ShootingConfig(node_target=1), coulomb_on=False)
        for e in res.eigenvalues:
            assert e.convergence_width < 1e-9


class TestCoulombOn:
    """Coulomb-on states that the radial equation solves in closed form.

    Putting u = r^(l+1/2) exp(-omega r^2/2) (a_0 + ... + a_N r^N) into the
    radial equation gives a_{k+1}(k+1)(k+2l+1) = a_k - 2[eta - omega(l+k)]
    a_{k-1}; truncation at degree N forces eta = (N+l+1) omega, and
    a_{N+1} = 0 then fixes omega. The three states below are nodeless.
    """

    @pytest.mark.parametrize("omega, l, eta, coeffs", [
        (1 / 2, 0, 1.0, (1.0, 1.0)),
        (1 / 12, 0, 0.25, (1.0, 1.0, 1 / 6)),
        (1 / 6, 1, 0.5, (1.0, 1 / 3)),
    ])
    def test_exact_states(self, omega, l, eta, coeffs):
        res = solve_eigen(RadialProblem(omega=omega, l=l),
                          ShootingConfig(node_target=0), coulomb_on=True)
        ground = res.eigenvalues[0]
        assert ground.nodes == 0
        assert abs(ground.eta - eta) <= 1e-10 * eta
        r = res.r
        exact = (r ** (l + 0.5) * np.exp(-omega * r * r / 2)
                 * np.polynomial.polynomial.polyval(r, coeffs))
        exact /= np.sqrt(np.trapezoid(exact * exact, r))
        assert np.max(np.abs(res.eigenfunctions[0] - exact)) < 1e-8

    def test_self_convergence_at_report_roots(self):
        for l in (0, 1):
            for n in (2, 3, 4, 5):
                for root in solve_termination(n, l).rootset.roots:
                    res = solve_eigen(RadialProblem(omega=root.omega, l=l),
                                      ShootingConfig(node_target=6),
                                      coulomb_on=True)
                    assert [e.nodes for e in res.eigenvalues] == list(range(7))
                    for e in res.eigenvalues:
                        # gap between collocation sizes N and 1.5N
                        assert e.convergence_width <= 1e-10 * e.eta, (n, l, e)


class _CountingLinalg:
    """scipy.linalg that records the name and keyword arguments of each call."""

    def __init__(self, module):
        self._module = module
        self.calls = []

    def __getattr__(self, name):
        fn = getattr(self._module, name)

        def counted(*args, **kwargs):
            self.calls.append((name, kwargs))
            return fn(*args, **kwargs)
        return counted


class TestEigenvectorStep:
    """Eigenvalues only while climbing the collocation sizes; eigenvectors by
    one inverse-iteration solve per state at the accepted size."""

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-4.0, 2.0), st.sampled_from([0, 1, 2]),
           st.integers(0, 8))
    def test_states_over_omega_and_l(self, log10_omega, l, node_target):
        res = solve_eigen(RadialProblem(omega=10.0 ** log10_omega, l=l),
                          ShootingConfig(node_target=node_target))
        assert [e.nodes for e in res.eigenvalues] == list(range(node_target + 1))
        for e in res.eigenvalues:
            assert e.convergence_width <= 1e-10 * e.eta, e
        assert np.all(np.isfinite(res.eigenfunctions))
        norms = np.trapezoid(res.eigenfunctions ** 2, res.r, axis=1)
        assert norms == pytest.approx(np.ones(node_target + 1), abs=1e-12)

    def test_pencil_residual_at_report_roots(self, monkeypatch):
        seen = []

        def spy(a, b, etas):
            vecs = eigenvectors(a, b, etas)
            seen.append((a, b, etas, vecs))
            return vecs
        eigenvectors = oracle._eigenvectors
        monkeypatch.setattr(oracle, "_eigenvectors", spy)
        roots = 0
        for l in (0, 1):
            for n in (2, 3, 4, 5):
                for root in solve_termination(n, l).rootset.roots:
                    seen.clear()
                    solve_eigen(RadialProblem(omega=root.omega, l=l),
                                ShootingConfig(node_target=6))
                    (a, b, etas, vecs), = seen
                    norm_a = np.linalg.norm(a, 2)
                    for eta, v in zip(etas, vecs[1:].T):  # row 0 is v(L) = 0
                        res = np.linalg.norm((a - eta * b) @ v)
                        assert res <= 1e-10 * norm_a * np.linalg.norm(v)
                    roots += 1
        assert roots == 12

    def test_eigenvalue_ladder_and_one_factorization_per_state(
            self, monkeypatch):
        counting = _CountingLinalg(oracle.linalg)
        monkeypatch.setattr(oracle, "linalg", counting)
        solve_eigen(RadialProblem(omega=0.1, l=1), ShootingConfig(node_target=4))
        eig_calls = [kw for name, kw in counting.calls if name == "eig"]
        assert len(eig_calls) >= 2
        assert all(kw.get("right") is False for kw in eig_calls)
        assert [name for name, _ in counting.calls].count("lu_factor") == 5


class TestOracleRobustness:
    def test_variational_monotonicity(self):
        for omega in (0.25, 1.0):
            for l in (0, 1):
                p = RadialProblem(omega=omega, l=l)
                off = solve_eigen(p, ShootingConfig(node_target=2),
                                  coulomb_on=False)
                on = solve_eigen(p, ShootingConfig(node_target=2),
                                 coulomb_on=True)
                for e_off, e_on in zip(off.etas, on.etas):
                    assert e_on > e_off

    def test_empty_bracket_raises(self):
        p = RadialProblem(omega=1.0, l=0)
        with pytest.raises(NoEigenvalueError):
            solve_eigen(p, ShootingConfig(node_target=0,
                                          eta_bracket=(1.7, 1.9)),
                        coulomb_on=False)

    def test_eigenvalues_bracketed(self):
        res = solve_eigen(RadialProblem(omega=1.0, l=2),
                          ShootingConfig(node_target=2), coulomb_on=False)
        assert [e.nodes for e in res.eigenvalues] == [0, 1, 2]


class TestSyntheticOscillatorCheck:
    def test_polynomial_machinery_confirms_spectrum(self):
        for k, l in ((0, 0), (1, 0), (2, 1)):
            rec = validate_oscillator(k, l)
            assert rec.classification == CONFIRMED
            assert rec.residual < 1e-7

    def test_oscillator_state_is_laguerre(self):
        st = oscillator_state(1, 0)
        # 1 - r^2 at omega = 1
        assert st.solution.y_coeffs == pytest.approx((1.0, 0.0, -1.0))


class TestValidateRoot:
    def test_record_fields_populated(self):
        root = solve_termination(2, 0).rootset.roots[0]
        rec = validate_root(2, 0, root.t_star)
        assert rec.eta_analytic == pytest.approx(3 * root.omega)
        assert rec.classification in (CONFIRMED, NEAR, DISCREPANT)
        assert rec.abs_delta == abs(rec.eta_analytic - rec.eta_oracle)
        assert rec.effective_degree == 1
        assert np.isfinite(rec.residual)

    def test_n4_large_root_classified(self):
        roots = solve_termination(4, 0).rootset.roots
        rec = validate_root(4, 0, roots[1].t_star)
        assert rec.classification in (CONFIRMED, NEAR, DISCREPANT)
        assert rec.oracle_nodes >= 0


class TestDenseDeterminant:
    def test_n1_trivial(self):
        assert dense_determinant_check(1, 0, F(5, 7))

    def test_n3_l0(self):
        assert dense_determinant_check(3, 0, F(2))

    def test_n8_l2_stress(self):
        assert dense_determinant_check(8, 2, F(7, 3))

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            dense_determinant_check(9, 0, F(1))

    def test_literal_convention(self):
        assert dense_determinant_check(5, 1, F(13, 4), GammaConvention.LITERAL)
