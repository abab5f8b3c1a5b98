import functools
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp
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
                        # gap between Galerkin sizes N and 1.5N
                        assert e.convergence_width <= 1e-10 * e.eta, (n, l, e)


class _CountingLinalg:
    """scipy.linalg that records the name, arguments and result of each call."""

    def __init__(self, module):
        self._module = module
        self.calls = []

    def __getattr__(self, name):
        fn = getattr(self._module, name)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls.append((name, args, kwargs, result))
            return result
        return counted


class TestEigenvectorStep:
    """One partial eigensolve, eigenvalues with eigenvectors, per Galerkin
    size; the vectors of the accepted size give the returned states."""

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

    def test_matrix_residual_at_report_roots(self, monkeypatch):
        counting = _CountingLinalg(oracle.linalg)
        monkeypatch.setattr(oracle, "linalg", counting)
        roots = 0
        for l in (0, 1):
            for n in (2, 3, 4, 5):
                for root in solve_termination(n, l).rootset.roots:
                    counting.calls.clear()
                    res = solve_eigen(RadialProblem(omega=root.omega, l=l),
                                      ShootingConfig(node_target=6))
                    # the last call: eigenvectors at the accepted size
                    name, (a,), kwargs, (_, vecs) = counting.calls[-1]
                    assert name == "eigh" and not kwargs.get("eigvals_only")
                    assert len(res.etas) == vecs.shape[1] == 7
                    norm_a = np.linalg.norm(a, 2)
                    for eta, v in zip(res.etas, vecs.T):
                        assert (np.linalg.norm(a @ v - eta * v)
                                <= 1e-10 * norm_a * np.linalg.norm(v))
                    roots += 1
        assert roots == 12

    def test_one_eigensolve_per_size(self, monkeypatch):
        counting = _CountingLinalg(oracle.linalg)
        monkeypatch.setattr(oracle, "linalg", counting)
        l = 1
        res = solve_eigen(RadialProblem(omega=0.1, l=l),
                          ShootingConfig(node_target=4))
        calls = [c for c in counting.calls if c[0] == "eigh"]
        assert len(calls) >= 2
        for *_, result in calls:
            assert isinstance(result, tuple) and len(result) == 2
        sizes = [a.shape[0] for _, (a,), _, _ in calls]
        assert sizes == [n + 1 for n in oracle.GALERKIN_SIZES[:len(sizes)]]
        *_, (etas, vecs) = calls[-1]
        assert etas.tolist() == res.etas
        s = np.linspace(-1.0, 1.0, oracle.LATTICE + 1)
        u = res.r ** (l + 0.5) * (1.0 - s) * (
            vecs.T @ oracle._jacobi(sizes[-1] - 1, 2, 2 * l + 1, s))
        u /= np.sqrt(np.trapezoid(u * u, res.r, axis=1))[:, None]
        u *= np.sign(u[:, 1:2])
        assert np.max(np.abs(u - res.eigenfunctions)) <= 1e-12


@functools.lru_cache
def _mp_gauss(m):
    """The m-point Gauss-Legendre rule at 40 digits: Newton's method on P_m
    from Tricomi's initial guesses, rounded to float."""
    with mpmath.workdps(40):
        half = []
        for i in range(1, m // 2 + 1):
            x = mpmath.cos(mpmath.pi * (4 * i - 1) / (4 * m + 2))
            for _ in range(30):
                p0, p1 = mpmath.mpf(1), x
                for k in range(2, m + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = m * (x * p1 - p0) / (x * x - 1)
                x -= p1 / dp
                if abs(p1 / dp) < mpmath.mpf(10) ** -35:
                    break
            half.append((x, 2 / ((1 - x * x) * dp * dp)))
        if m % 2:
            p = mpmath.legendre(m - 1, 0)
            half.append((mpmath.mpf(0), 2 / (m * p) ** 2))
        rule = ([(-x, w) for x, w in half]
                + [(x, w) for x, w in reversed(half[:m // 2])])
        rule = np.array([(float(x), float(w)) for x, w in rule])
    return rule[:, 0], rule[:, 1]


class TestQuadrature:
    """The Gauss-Legendre rule built from the recurrence, and the matrices it
    integrates."""

    @pytest.mark.parametrize("m", [43, 95, 140])
    def test_gauss_against_mpmath(self, m):
        x, w = oracle._gauss(m)
        x_ref, w_ref = _mp_gauss(m)
        assert np.max(np.abs(x - x_ref)) <= 1e-15
        assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-12

    @pytest.mark.parametrize("m", [43, 95, 140])
    def test_legendre_orthonormal(self, m):
        x, w = _mp_gauss(m)
        p = oracle._jacobi(m - 1, 0, 0, x)
        assert np.all(np.isfinite(p))
        assert np.max(np.abs((p * w) @ p.T - np.eye(m))) <= 1e-13

    @pytest.mark.parametrize("l", [0, 2, 15])
    def test_galerkin_blocks_nest(self, l):
        """The basis is hierarchical, so with an exact rule the matrices of a
        smaller size are the leading blocks of those of a larger one."""
        small = oracle._galerkin(40, l)
        for n in (60, 90):
            for a, b in zip(small, oracle._galerkin(n, l)):
                assert (np.max(np.abs(a - b[:41, :41]))
                        <= 2e-13 * np.max(np.abs(b))), (n, l)


class TestHighL:
    """The oracle at l up to 15, beyond the l <= 2 of the report."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-4.0, 2.0), st.integers(0, 10), st.integers(0, 12))
    def test_oscillator_spectrum(self, log10_omega, l, node_target):
        omega = 10.0 ** log10_omega
        res = solve_eigen(RadialProblem(omega=omega, l=l),
                          ShootingConfig(node_target=node_target),
                          coulomb_on=False)
        assert [e.nodes for e in res.eigenvalues] == list(range(node_target + 1))
        for k, e in enumerate(res.eigenvalues):
            exact = omega * (2 * k + l + 1)
            assert abs(e.eta - exact) <= 1e-10 * exact, (k, e)

    @pytest.mark.parametrize("l", [3, 6, 10, 15])
    @pytest.mark.parametrize("N", [2, 5, 8, 12])
    def test_exact_coulomb_states(self, l, N):
        """u = r^(l+1/2) e^(-omega r^2/2) sum_k b_k (r/t)^k with
        b_{k+1}(k+1)(k+2l+1) = t b_k - 2(N+1-k) b_{k-1} solves the radial
        equation with eta = (N+l+1) omega, omega = 1/t^2, at each positive
        root t of b_{N+1}; its nodes are the positive zeros of the sum."""
        t = sp.Symbol("t")
        # b_-1 = 0 and b_0 = 1, then b_1 .. b_{N+1}; the slice drops b_-1
        b = [sp.Poly(0, t, domain="QQ"), sp.Poly(1, t, domain="QQ")]
        for k in range(N + 1):
            b.append((sp.Poly(t, t) * b[-1] - 2 * (N + 1 - k) * b[-2])
                     * sp.Rational(1, (k + 1) * (k + 2 * l + 1)))
        b = b[1:]
        roots = [r for r in b[N + 1].nroots(n=30) if r.is_real and r > 0]
        assert len(roots) == (N + 1) // 2
        y = sp.Symbol("y")
        for t_star in roots:
            zeros = sp.Poly([bk.as_expr().subs(t, t_star) for bk in b[N::-1]],
                            y).nroots(n=30)
            nodes = sum(1 for z in zeros if z.is_real and z > 0)
            omega = 1.0 / float(t_star) ** 2
            eta = (N + l + 1) * omega
            res = solve_eigen(RadialProblem(omega=omega, l=l),
                              ShootingConfig(node_target=N), coulomb_on=True)
            assert [e.nodes for e in res.eigenvalues] == list(range(N + 1))
            assert abs(res.etas[nodes] - eta) <= 1e-10 * eta, (t_star, nodes)


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
