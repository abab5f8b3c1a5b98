import base64
import contextlib
import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from heunqdot import oracle
from heunqdot.model import COULOMB_A, RadialProblem
from heunqdot.oracle import (
    CONFIRMED,
    DISCREPANT,
    NEAR,
    NoEigenvalueError,
    ShootingConfig,
    oscillator_spectrum,
    oscillator_state,
    solve_eigen,
    validate_oscillator,
    validate_root,
)
from heunqdot.report import build_report
from heunqdot.termination import (
    GammaConvention,
    dense_determinant_check,
    solve_termination,
)
from heunqdot.wavefunction import (
    PolynomialSolution,
    assemble_polynomial,
    normalize,
    residual,
)

F = Fraction

# samples of u below this fraction of max|u| are roundoff, not sign
# information; u rather than v, because near r = 0 the roundoff of v at high l
# changes sign where u is already below the floor
NODE_FLOOR = 1e-8


def _orthonormal(a, b, x):
    """Rows p_0..p_n at the points x of the orthonormal polynomials with the
    three-term recurrence x p_j = b_{j+1} p_{j+1} + a_j p_j + b_j p_{j-1},
    p_0 = 1/b_0, where a = a_0..a_{n-1} and b = b_0..b_n (b_0^2 is the total
    mass of the weight)."""
    n = len(a)
    p = np.empty((n + 1, len(x)))
    p[0] = 1.0 / b[0]
    for j in range(n):
        p[j + 1] = (x - a[j]) * p[j]
        if j:
            p[j + 1] -= b[j] * p[j - 1]
        p[j + 1] /= b[j + 1]
    return p


def _count_nodes(u):
    """Sign changes along each row of u, among the samples above NODE_FLOOR
    of the row's max|u|."""
    size = np.abs(u)
    keep = size > NODE_FLOOR * size.max(axis=1, keepdims=True)
    # the kept signs, row after row; flip p is between samples p and p + 1
    neg = np.signbit(u[keep])
    flips = np.flatnonzero(neg[1:] != neg[:-1])
    ends = np.cumsum(np.count_nonzero(keep, axis=1))
    starts = np.concatenate(([0], ends[:-1]))
    return np.searchsorted(flips, ends - 1) - np.searchsorted(flips, starts)


class TestShootingConfig:
    def test_defaults_valid(self):
        cfg = ShootingConfig()
        assert cfg.node_target == 3

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
        _, _, funcs = _lattice_states(RadialProblem(omega=0.5, l=1),
                                      ShootingConfig(node_target=3),
                                      coulomb_on=False)
        for k, u in enumerate(funcs):
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
        res, r, funcs = _lattice_states(RadialProblem(omega=omega, l=l),
                                        ShootingConfig(node_target=0))
        ground = res.eigenvalues[0]
        assert ground.nodes == 0
        assert abs(ground.eta - eta) <= 1e-10 * eta
        exact = (r ** (l + 0.5) * np.exp(-omega * r * r / 2)
                 * np.polynomial.polynomial.polyval(r, coeffs))
        exact /= np.sqrt(np.trapezoid(exact * exact, r))
        assert np.max(np.abs(funcs[0] - exact)) < 1e-8

    def test_self_convergence_at_report_roots(self):
        for l in (0, 1):
            for n in (2, 3, 4, 5):
                for root in solve_termination(n, l).rootset.roots:
                    omega = 1.0 / (root.t_star * root.t_star)
                    res = solve_eigen(RadialProblem(omega=omega, l=l),
                                      ShootingConfig(node_target=6),
                                      coulomb_on=True)
                    assert [e.nodes for e in res.eigenvalues] == list(range(7))
                    for e in res.eigenvalues:
                        # gap between Galerkin sizes N and 1.5N
                        assert e.convergence_width <= 1e-10 * e.eta, (n, l, e)


class _CountingLinalg:
    """A linalg module that records the name, arguments and result of each
    call."""

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


def _galerkin_matrix(problem, n, coulomb_on=True):
    """The Galerkin matrix of size n, rebuilt from the leading blocks of the
    basis of its group as solve_eigen assembles it."""
    w, l = problem.omega, problem.l
    basis = oracle._basis(oracle._top(n), l)
    coul_scale = COULOMB_A * math.sqrt(w) if coulomb_on else 0.0
    a = (0.5 * w) * basis.stiff[:n + 1, :n + 1]
    a += coul_scale * basis.coulomb[:n + 1, :n + 1]
    a.flat[::n + 2] += (l + 1) * w
    return a


def _accepted(problem, config, coulomb_on=True):
    """The solve and its accepted Galerkin size n, read from the shape of
    the last eigenvalue solve."""
    counting = _CountingLinalg(oracle.linalg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "linalg", counting)
        res = solve_eigen(problem, config, coulomb_on=coulomb_on)
    name, (a,), _, _ = counting.calls[-1]
    assert name == "eigvalsh"
    return res, a.shape[0] - 1


def _lattice_states(problem, config, coulomb_on=True, edge=12.0, points=2001):
    """The solve, the uniform lattice r of points on [0, edge/sqrt(omega)]
    and the reduced radial functions u of the solved states there, one row
    each: the eigenvectors of the rebuilt Galerkin matrix of the accepted
    size, from numpy.linalg.eigh, evaluated on the lattice, each scaled to
    unit trapezoid norm and to be positive at its first sample above
    NODE_FLOOR of its max|u|."""
    res, n = _accepted(problem, config, coulomb_on)
    l = problem.l
    _, vecs = np.linalg.eigh(_galerkin_matrix(problem, n, coulomb_on))
    basis = oracle._basis(oracle._top(n), l)
    x = np.linspace(0.0, edge, points)
    funcs = vecs[:, :len(res.eigenvalues)].T @ (
        _orthonormal(basis.a[:n], basis.b[:n + 1], x)
        * (x ** (l + 0.5) * np.exp(-0.5 * x * x)))
    size = np.abs(funcs)
    first = np.argmax(size > NODE_FLOOR * size.max(axis=1, keepdims=True),
                      axis=1)
    sign = np.sign(funcs[np.arange(len(funcs)), first])
    wall = edge / math.sqrt(problem.omega)
    norm = np.sqrt(np.trapezoid(funcs * funcs, dx=wall / (points - 1), axis=1))
    return (res, np.linspace(0.0, wall, points),
            funcs * (sign / norm)[:, None])


class TestEigenvectorStep:
    """One eigenvalue-only eigensolve per Galerkin size; the leading values
    of the accepted size are the returned states."""

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-4.0, 2.0), st.sampled_from([0, 1, 2]),
           st.integers(0, 8))
    def test_states_over_omega_and_l(self, log10_omega, l, node_target):
        res = solve_eigen(RadialProblem(omega=10.0 ** log10_omega, l=l),
                          ShootingConfig(node_target=node_target))
        assert [e.nodes for e in res.eigenvalues] == list(range(node_target + 1))
        for e in res.eigenvalues:
            assert e.convergence_width <= 1e-10 * e.eta, e

    def test_matrix_residual_at_report_roots(self):
        """Each returned eta, with the eigh vector of the rebuilt matrix of
        the accepted size, is an eigenpair of that matrix."""
        roots = 0
        for l in (0, 1):
            for n in (2, 3, 4, 5):
                for root in solve_termination(n, l).rootset.roots:
                    omega = 1.0 / (root.t_star * root.t_star)
                    problem = RadialProblem(omega=omega, l=l)
                    res, size = _accepted(problem, ShootingConfig(node_target=6))
                    a = _galerkin_matrix(problem, size)
                    _, vecs = np.linalg.eigh(a)
                    assert len(res.etas) == 7
                    norm_a = np.linalg.norm(a, 2)
                    for eta, v in zip(res.etas, vecs.T[:7]):
                        assert (np.linalg.norm(a @ v - eta * v)
                                <= 1e-10 * norm_a * np.linalg.norm(v))
                    roots += 1
        assert roots == 12

    def test_one_eigensolve_per_size(self, monkeypatch):
        l = 1
        problem = RadialProblem(omega=0.1, l=l)
        config = ShootingConfig(node_target=4)
        # with the matrices cached, no Gauss rule is built during the count
        solve_eigen(problem, config)
        counting = _CountingLinalg(oracle.linalg)
        monkeypatch.setattr(oracle, "linalg", counting)
        res = solve_eigen(problem, config)
        calls = counting.calls
        assert len(calls) >= 2
        names = [c[0] for c in calls]
        assert names == ["eigvalsh"] * len(calls)
        sizes = [a.shape[0] for _, (a,), _, _ in calls]
        for size, (*_, result) in zip(sizes, calls):
            assert isinstance(result, np.ndarray) and result.shape == (size,)
        assert sizes == [n + 1 for n in oracle.GALERKIN_SIZES[:len(sizes)]]
        *_, etas = calls[-1]
        assert etas[:len(res.etas)].tolist() == res.etas


def _reference_ladder(problem, config, coulomb_on):
    """The solve by the first-agreeing-pair rule on numpy arrays, each size's
    matrix rebuilt by _galerkin_matrix: the last size tried, and either the
    (eta, nodes, convergence_width) of each state or the message of the
    NoEigenvalueError."""
    count = config.node_target + 1
    prev = None
    for n in oracle.GALERKIN_SIZES:
        a = _galerkin_matrix(problem, n, coulomb_on)
        etas = np.linalg.eigvalsh(a)[:count]
        if prev is not None and len(prev) == len(etas):
            gaps = np.abs(etas - prev)
            if np.all(gaps <= oracle.SELF_CONVERGENCE_RTOL * np.abs(etas)):
                return n, [(float(eta), k, max(float(gap), 4 * math.ulp(eta)))
                           for k, (eta, gap) in enumerate(zip(etas, gaps))]
        prev = etas
    return n, (f"{count} states not self-converged by Galerkin size {n}: "
               f"relative gap {np.max(gaps / np.abs(etas)):.1e}")


class TestLadder:
    """solve_eigen's ladder on Python floats against the same rule on numpy
    arrays: bit-equal eta, node counts and widths."""

    @pytest.mark.parametrize("omega, l, node_target, coulomb_on, size", [
        (1e-3, 0, 2, False, 18), (1e-2, 1, 8, False, 27),
        (1e-3, 2, 12, False, 40), (1e-2, 1, 2, True, 18),
        (1e-3, 2, 5, True, 27), (1e-3, 3, 8, True, 40)])
    def test_matches_first_agreeing_pair(self, omega, l, node_target,
                                         coulomb_on, size):
        problem = RadialProblem(omega=omega, l=l)
        config = ShootingConfig(node_target=node_target)
        n, states = _reference_ladder(problem, config, coulomb_on)
        assert n == size
        res = solve_eigen(problem, config, coulomb_on=coulomb_on)
        assert ([(e.eta.hex(), e.nodes, e.convergence_width.hex())
                 for e in res.eigenvalues]
                == [(eta.hex(), k, width.hex()) for eta, k, width in states])

    def test_message_when_the_sizes_run_out(self):
        problem = RadialProblem(omega=1.0, l=2)
        config = ShootingConfig(node_target=70)
        n, message = _reference_ladder(problem, config, False)
        assert n == oracle.GALERKIN_SIZES[-1] and "relative gap " in message
        with pytest.raises(NoEigenvalueError) as err:
            solve_eigen(problem, config, coulomb_on=False)
        assert str(err.value) == message


@functools.lru_cache
def _mp_gauss(m):
    """The m-point Gauss-Legendre rule at 40 digits: Newton's method on P_m
    from Tricomi's initial guesses, rounded to the nearest floats.

    oracle._GAUSS_HALVES holds it at m = 200 and 485: the non-negative
    nodes, then their weights, as little-endian float64 bytes in base64.
    """
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


@functools.lru_cache
def _mp_recurrence(n, l):
    """a_0..a_{n-1} and b_0..b_n (see _orthonormal) of the polynomials
    orthonormal under x^(2l+1) e^(-x^2) on [0, inf), rounded to float.

    The Stieltjes procedure on the exact moments
    int_0^inf x^k x^(2l+1) e^(-x^2) dx = Gamma((k + 2l + 2)/2) / 2. That form
    loses up to 55 digits to cancellation at n = 40, l = 15, so it runs at
    130 digits to leave more than 40.
    """
    with mpmath.workdps(130):
        mu = [mpmath.gamma(mpmath.mpf(k + 2 * l + 2) / 2) / 2
              for k in range(2 * n + 2)]

        def inner(f, g):
            return mpmath.fsum(fi * gk * mu[i + k] for i, fi in enumerate(f)
                               for k, gk in enumerate(g))

        b = [mpmath.sqrt(mu[0])]
        a = []
        p = [[], [1 / b[0]]]  # p_-1 = 0 and p_0, ascending coefficients
        for j in range(n):
            z = [mpmath.mpf(0)] + p[-1]
            a.append(inner(z, p[-1]))
            for c, q in ((a[j], p[-1]), (b[j], p[-2])):
                for i, qi in enumerate(q):
                    z[i] -= c * qi
            b.append(mpmath.sqrt(inner(z, z)))
            p.append([c / b[-1] for c in z])
        return (np.array([float(v) for v in a]),
                np.array([float(v) for v in b]))


class TestQuadrature:
    """The tabulated Gauss-Legendre rules and the 40-digit rule they are
    rounded from, the discrete measure mapped from them, the recurrence of
    the basis computed on that measure, and the matrices it integrates."""

    @pytest.mark.parametrize("m", [43, 95, 140, 200])
    def test_gauss_against_mpmath(self, m):
        """The 40-digit rule, Newton's method on the three-term recurrence
        of P_m, against mpmath's own Legendre function at 80 digits: each
        node is refined as a zero of mpmath.legendre(m, x), its weight is
        2 (1 - x^2) / (m P_(m-1)(x))^2, and both round to the same floats."""
        x_ref, w_ref = _mp_gauss(m)
        with mpmath.workdps(80):
            for x, w in zip(x_ref[m // 2:], w_ref[m // 2:]):
                z = mpmath.findroot(lambda s: mpmath.legendre(m, s),
                                    mpmath.mpf(x), tol=mpmath.mpf(10) ** -140,
                                    verify=False)
                assert float(z) == x
                assert float(2 * (1 - z * z)
                             / (m * mpmath.legendre(m - 1, z)) ** 2) == w

    @pytest.mark.parametrize("m", [*range(1, 65), 200, 485])
    def test_gauss_rule_properties(self, m):
        """The 40-digit rule rounded to floats, as the tables hold it:
        increasing, exactly symmetric nodes with 0 among them iff m is odd,
        positive exactly symmetric weights, and the even moments
        sum w x^(2k) = 2/(2k + 1) for every 2k <= 2m - 2 the rule must
        integrate."""
        x, w = _mp_gauss(m)
        assert x.shape == w.shape == (m,)
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(w > 0)
        assert (0.0 in x) == (m % 2 == 1)
        x2 = x * x
        power = np.ones(m)
        for k in range(m):
            assert abs(w @ power * (2 * k + 1) / 2 - 1) <= 5e-14, k
            power *= x2

    def test_tables_are_the_rounded_rules(self):
        """One table per group top, holding the non-negative half of the
        3 top + 80 point rule bit for bit as _mp_gauss rounds it, and the
        measure of each top is that rule mirrored, mapped to [0, X] and
        weighted by e^(-x^2), bit for bit."""
        assert tuple(oracle._GAUSS_HALVES) == oracle.BASIS_TOPS
        for top in oracle.BASIS_TOPS:
            m = 3 * top + 80
            x_ref, w_ref = _mp_gauss(m)
            half = np.array([x_ref[m // 2:], w_ref[m // 2:]], dtype="<f8")
            assert (base64.b64decode(oracle._GAUSS_HALVES[top])
                    == half.tobytes()), top
            scale = 0.5 * (math.sqrt(4.0 * top + 68.0) + 8.0)
            x = scale * (1.0 + x_ref)
            w = w_ref * (scale * np.exp(-x * x))
            measure = oracle._measure(top)
            assert np.array_equal(measure[0], x), top
            assert np.array_equal(measure[1], w), top

    @pytest.mark.parametrize("m", [43, 95, 140])
    def test_legendre_orthonormal(self, m):
        x, w = _mp_gauss(m)
        j = np.arange(1, m)
        b = np.concatenate(([np.sqrt(2.0)], j / np.sqrt(4.0 * j * j - 1)))
        p = _orthonormal(np.zeros(m - 1), b, x)
        assert np.all(np.isfinite(p))
        assert np.max(np.abs((p * w) @ p.T - np.eye(m))) <= 1e-13

    @pytest.mark.parametrize("l", [0, 2, 15])
    def test_measure_moments(self, l):
        """At each group top n, the discrete measure integrates x^k e^(-x^2)
        for every k the matrices and recurrence up to degree n need: from 2l
        (C_00) to 2l + 2n + 1 (the last Stieltjes step)."""
        with mpmath.workdps(30):
            for n in oracle.BASIS_TOPS:
                x, w = oracle._measure(n)
                for k in range(2 * l, 2 * l + 2 * n + 2):
                    # divide x by the power of two nearest the peak of the
                    # integrand, sqrt(k/2), exactly, so x^k cannot overflow
                    e = max(0, round(0.5 * np.log2(max(k, 1) / 2)))
                    exact = (mpmath.gamma(mpmath.mpf(k + 1) / 2) / 2
                             / mpmath.mpf(2) ** (e * k))
                    value = np.sum(w * (x / 2.0 ** e) ** k)
                    assert abs(value / float(exact) - 1) <= 1e-13, (n, k)

    @pytest.mark.parametrize("l", [0, 3, 15])
    def test_stieltjes_against_mpmath(self, l):
        """The recurrence of the first group's basis, whose leading
        coefficients serve every size of the group."""
        top = oracle.BASIS_TOPS[0]
        a_ref, b_ref = _mp_recurrence(top, l)
        a, b, *_ = oracle._basis(top, l)
        assert not a.flags.writeable and not b.flags.writeable
        assert np.max(np.abs(a / a_ref - 1)) <= 1e-13
        assert np.max(np.abs(b / b_ref - 1)) <= 1e-13

    @pytest.mark.parametrize("l", range(16))
    def test_mass_matrix_is_identity(self, l):
        """The basis is orthonormal under the discrete measure of its group
        top, which is what lets the eigenproblem drop the mass matrix. The
        recurrence orthogonalizes no vector against the earlier ones, so
        this is its guard at every l the oracle is checked for."""
        for n in oracle.BASIS_TOPS:
            x, w = oracle._measure(n)
            basis = oracle._basis(n, l)
            p = _orthonormal(basis.a, basis.b, x)
            gram = (p * (w * x ** (2 * l + 1))) @ p.T
            assert np.max(np.abs(gram - np.eye(n + 1))) <= 1e-13, n

    @pytest.mark.parametrize("l", [0, 2, 15])
    def test_galerkin_blocks_nest(self, l):
        """The basis is hierarchical, so with an exact rule the matrices of a
        smaller size are the leading blocks of those of a larger one. Within
        a group they are by construction; across the two groups, whose
        measures differ, the whole size-40 matrices agree to roundoff with
        the leading blocks of the size-135 ones."""
        small, large = (oracle._basis(top, l) for top in oracle.BASIS_TOPS)
        for a, b in ((small.stiff, large.stiff),
                     (small.coulomb, large.coulomb)):
            assert (np.max(np.abs(a - b[:41, :41]))
                    <= 2e-13 * np.max(np.abs(b))), l


def _two_pass_matrices(top, l):
    """S and C as the basis integrated them before the one-pass build: p and
    p' evaluated afresh from the recurrence at the nodes of _measure(top),
    p' by the derivative of the recurrence."""
    x, w = oracle._measure(top)
    a, b, *_ = oracle._basis(top, l)
    p = np.empty((top + 1, len(x)))
    dp = np.zeros_like(p)
    p[0] = 1.0 / b[0]
    for j in range(top):
        p[j + 1] = (x - a[j]) * p[j]
        dp[j + 1] = (x - a[j]) * dp[j] + p[j]
        if j:
            p[j + 1] -= b[j] * p[j - 1]
            dp[j + 1] -= b[j] * dp[j - 1]
        p[j + 1] /= b[j + 1]
        dp[j + 1] /= b[j + 1]
    w = w * x ** (2 * l)
    return (dp * (w * x)) @ dp.T, (p * w) @ p.T


class TestOnePassBasis:
    """The Stieltjes pass that computes the recurrence also carries p_j and
    p_j' at the measure nodes, and S and C come from those vectors."""

    @pytest.mark.parametrize("l", [0, 2, 15])
    @pytest.mark.parametrize("top", oracle.BASIS_TOPS)
    def test_matrices_match_two_pass_quadrature(self, top, l):
        basis = oracle._basis(top, l)
        for v in basis:
            assert not v.flags.writeable
        for new, ref in zip((basis.stiff, basis.coulomb),
                            _two_pass_matrices(top, l)):
            assert np.array_equal(new, new.T)
            assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("N, l", [(9, 15), (12, 15)])
    def test_eigenfunction_signs_at_small_omega(self, N, l):
        """Every closed-form state of degree N, against its exact u, which is
        positive near r = 0. The nodeless states, at omega = 1.76e-4 and
        9.46e-5, have v(0) = sum c_j p_j(0) at roundoff level (2e-9), and
        the sign of that sum inverted them."""
        x = np.linspace(0.0, 12.0, 2001)
        for omega, _, nodes in _exact_states(N, l):
            _, r, funcs = _lattice_states(RadialProblem(omega=omega, l=l),
                                          ShootingConfig(node_target=N))
            # u = x^(l+1/2) e^(-x^2/2) sum_k b_k x^k, see _exact_states
            t = 1.0 / math.sqrt(omega)
            b = [1.0, t / (2 * l + 1)]
            for k in range(1, N):
                b.append((t * b[k] - 2 * (N + 1 - k) * b[k - 1])
                         / ((k + 1) * (k + 2 * l + 1)))
            u = (x ** (l + 0.5) * np.exp(-0.5 * x * x)
                 * np.polynomial.polynomial.polyval(x, b))
            u /= np.sqrt(np.trapezoid(u * u, r))
            assert np.max(np.abs(funcs[nodes] - u)) <= 1e-12


@functools.lru_cache
def _exact_states(N, l):
    """(omega, eta, nodes) of each closed-form Coulomb-on state of degree N,
    as a tuple; the sympy construction runs once per (N, l).

    u = r^(l+1/2) e^(-omega r^2/2) sum_k b_k (r/t)^k with
    b_{k+1}(k+1)(k+2l+1) = t b_k - 2(N+1-k) b_{k-1} solves the radial
    equation with eta = (N+l+1) omega, omega = 1/t^2, at each positive root t
    of b_{N+1}; its nodes are the positive zeros of the sum.
    """
    t = sp.Symbol("t")
    # b_-1 = 0 and b_0 = 1, then b_1 .. b_{N+1}; the slice drops b_-1
    b = [sp.Poly(0, t, domain="QQ"), sp.Poly(1, t, domain="QQ")]
    for k in range(N + 1):
        b.append((sp.Poly(t, t) * b[-1] - 2 * (N + 1 - k) * b[-2])
                 * sp.Rational(1, (k + 1) * (k + 2 * l + 1)))
    b = b[1:]
    y = sp.Symbol("y")
    states = []
    for t_star in b[N + 1].nroots(n=30):
        if not (t_star.is_real and t_star > 0):
            continue
        zeros = sp.Poly([bk.as_expr().subs(t, t_star) for bk in b[N::-1]],
                        y).nroots(n=30)
        omega = 1.0 / float(t_star) ** 2
        states.append((omega, (N + l + 1) * omega,
                       sum(1 for z in zeros if z.is_real and z > 0)))
    return tuple(states)


def _exact_solution(N, l, omega, eta):
    """The PolynomialSolution of an exact state of _exact_states, its
    polynomial summed in floats from the b_k recurrence."""
    t = 1.0 / math.sqrt(omega)
    b = [0.0, 1.0]
    for k in range(N):
        b.append((t * b[-1] - 2 * (N + 1 - k) * b[-2])
                 / ((k + 1) * (k + 2 * l + 1)))
    return PolynomialSolution(
        n=N, l=l, t_star=t, omega=omega, eta=eta,
        y_coeffs=tuple(bk / t ** k for k, bk in enumerate(b[1:])),
        A_chain=())


def _count_builds(monkeypatch) -> _CountingLinalg:
    """The linalg calls of the oracle from now on, with every oracle cache
    emptied first, so that the builds of measures and bases are counted in
    the caches' misses."""
    for f in vars(oracle).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    counting = _CountingLinalg(oracle.linalg)
    monkeypatch.setattr(oracle, "linalg", counting)
    return counting


def _assert_one_measure(top):
    """The one measure built since the caches were emptied is top's."""
    assert oracle._measure.cache_info().misses == 1
    oracle._measure(top)
    assert oracle._measure.cache_info().misses == 1


def _assert_ladder_only(counting):
    """Every linalg call is an eigvalsh of a Galerkin size's leading block:
    no Gauss rule is solved for."""
    ladder = {(n + 1, n + 1) for n in oracle.GALERKIN_SIZES}
    assert counting.calls
    for name, (a,), _, _ in counting.calls:
        assert name == "eigvalsh" and a.shape in ladder, (name, a.shape)


class TestLattice:
    """The builds of the basis, one per l and group top, and the rebuild of
    the Galerkin matrices from it that the lattice states of these tests
    start from."""

    @pytest.mark.parametrize("n, l", [(40, 0), (90, 2), (135, 15)])
    def test_read_only_and_exact(self, n, l):
        """The basis is read-only, and the matrix of size n that
        _galerkin_matrix rebuilds from it is bitwise the one the solve hands
        to eigvalsh, Coulomb term on and off. node_target is set so that
        the size ladder reaches n; at 60 and 90 it runs out and the solve
        raises, after every matrix has gone to eigvalsh."""
        basis = oracle._basis(oracle._top(n), l)
        for v in basis:
            assert not v.flags.writeable
        problem = RadialProblem(omega=0.37, l=l)
        config = ShootingConfig(node_target={40: 30, 90: 60, 135: 90}[n])
        for coulomb_on in (True, False):
            counting = _CountingLinalg(oracle.linalg)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle, "linalg", counting)
                with contextlib.suppress(NoEigenvalueError):
                    solve_eigen(problem, config, coulomb_on=coulomb_on)
            solved = {a.shape[0] - 1: a for _, (a,), _, _ in counting.calls}
            assert np.array_equal(solved[n],
                                  _galerkin_matrix(problem, n, coulomb_on))

    def test_one_basis_per_l(self, monkeypatch):
        """Over the 60 exact states with N <= 8 and l <= 2, which accept at
        sizes 18 to 40, the measure of the first group top is built once,
        from its table, and the basis once per l."""
        counting = _count_builds(monkeypatch)
        solves = 0
        for l in range(3):
            for N in range(1, 9):
                for omega, _, _ in _exact_states(N, l):
                    solve_eigen(RadialProblem(omega=omega, l=l),
                                ShootingConfig(node_target=N))
                    solves += 1
        assert solves == 60
        _assert_one_measure(oracle.BASIS_TOPS[0])
        assert oracle._basis.cache_info().misses == 3
        _assert_ladder_only(counting)

    def test_dossier_builds_one_gauss_rule(self, monkeypatch):
        """The report, at l = 0 and 1, builds one measure, that of the first
        group top from its tabulated rule, and two bases."""
        counting = _count_builds(monkeypatch)
        build_report()
        _assert_one_measure(oracle.BASIS_TOPS[0])
        assert oracle._basis.cache_info().misses == 2
        _assert_ladder_only(counting)


def _count_nodes_by_row(u):
    """The per-row count that _count_nodes vectorizes."""
    counts = []
    for row in u:
        s = np.sign(row[np.abs(row) > NODE_FLOOR * np.abs(row).max()])
        counts.append(int(np.count_nonzero(s[1:] != s[:-1])))
    return counts


def _assert_ritz_index_is_lattice_count(problem, config, coulomb_on):
    node_target, l = config.node_target, problem.l
    edge = max(12.0, math.sqrt(4 * node_target + 2 * l + 2) + 4)
    res, _, funcs = _lattice_states(problem, config, coulomb_on=coulomb_on,
                                    edge=edge, points=4001)
    lattice = _count_nodes(funcs[:, 1:-1]).tolist()
    assert lattice == list(range(node_target + 1))
    assert [e.nodes for e in res.eigenvalues] == lattice


class TestNodeCount:
    """The node count a solve reports is the Ritz index; the sign changes
    of the Ritz eigenfunctions on a lattice check it."""

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-4.0, 2.0), st.integers(0, 15),
           st.integers(0, 12) | st.integers(13, 40), st.booleans())
    def test_window_count_matches_lattice(self, log10_omega, l, node_target,
                                          coulomb_on):
        """The k-th Ritz state has k sign changes on the interior samples of
        a lattice window that reaches 4 past the classical turning point
        x = sqrt(4 node_target + 2l + 2) of the highest state."""
        _assert_ritz_index_is_lattice_count(
            RadialProblem(omega=10.0 ** log10_omega, l=l),
            ShootingConfig(node_target=node_target), coulomb_on)

    @pytest.mark.parametrize("omega, l, node_target", [
        (0.00024911762342074995, 11, 33), (10.990384915361313, 9, 36)])
    def test_window_edge_point(self, omega, l, node_target):
        """Two solves whose highest state a fixed window at x <= 12 once
        counted one node short; the Ritz index and the lattice count agree."""
        _assert_ritz_index_is_lattice_count(
            RadialProblem(omega=omega, l=l),
            ShootingConfig(node_target=node_target), True)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 60), st.integers(0, 2 ** 32 - 1))
    def test_matches_row_by_row_count(self, rows, cols, seed):
        """Equal to the row-by-row count, also with samples below the floor
        (or exactly zero) between two kept samples."""
        rng = np.random.default_rng(seed)
        u = (rng.standard_normal((rows, cols))
             * 10.0 ** rng.integers(-12, 1, size=(rows, cols)))
        u[rng.random((rows, cols)) < 0.1] = 0.0
        u[:, 0] = rng.choice([-1.0, 1.0], size=rows)  # no all-zero row
        assert _count_nodes(u).tolist() == _count_nodes_by_row(u)


class TestNestedBasis:
    """Every size reads the leading blocks of its group's basis, so within a
    group the Ritz values can only fall; the second group (sizes 60 to 135)
    serves the rare solves that climb past 40."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-4.0, 2.0), st.integers(0, 15), st.integers(0, 12),
           st.booleans())
    def test_ritz_values_never_rise_within_a_group(
            self, log10_omega, l, node_target, coulomb_on):
        problem = RadialProblem(omega=10.0 ** log10_omega, l=l)
        config = ShootingConfig(node_target=node_target)
        # with the basis cached, the proxy sees only the Galerkin ladder
        solve_eigen(problem, config, coulomb_on=coulomb_on)
        counting = _CountingLinalg(oracle.linalg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "linalg", counting)
            solve_eigen(problem, config, coulomb_on=coulomb_on)
        count = node_target + 1
        ladder = [(a.shape[0] - 1, etas[:count], np.linalg.norm(a, 2))
                  for _, (a,), _, etas in counting.calls]
        for (n0, etas0, _), (n1, etas1, norm) in zip(ladder, ladder[1:]):
            if oracle._top(n0) == oracle._top(n1):
                rise = np.max(etas1 - etas0)
                assert rise <= 8 * np.finfo(float).eps * norm, (n0, n1, rise)

    def test_oscillator_climbs_to_90(self, monkeypatch):
        counting = _CountingLinalg(oracle.linalg)
        monkeypatch.setattr(oracle, "linalg", counting)
        res = solve_eigen(RadialProblem(omega=1.0, l=2),
                          ShootingConfig(node_target=30), coulomb_on=False)
        assert counting.calls[-1][1][0].shape[0] == 91
        assert [e.nodes for e in res.eigenvalues] == list(range(31))
        for k, e in enumerate(res.eigenvalues):
            assert abs(e.eta - (2 * k + 3)) <= 1e-11 * (2 * k + 3), (k, e)

    def test_exact_state_accepted_at_60(self, monkeypatch):
        """The nodeless N = 12, l = 0 state at omega = 4.72e-4, one of the 10
        exact states with N in {11, 12} and l <= 2 that accept at size 60."""
        omega, eta, nodes = min(_exact_states(12, 0))
        assert omega == pytest.approx(4.7186e-4, rel=1e-4) and nodes == 0
        counting = _CountingLinalg(oracle.linalg)
        monkeypatch.setattr(oracle, "linalg", counting)
        res = solve_eigen(RadialProblem(omega=omega, l=0),
                          ShootingConfig(node_target=12), coulomb_on=True)
        assert counting.calls[-1][1][0].shape[0] == 61
        assert [e.nodes for e in res.eigenvalues] == list(range(13))
        assert abs(res.etas[nodes] - eta) <= 1e-10 * eta


class TestHighL:
    """The oracle at l up to 15, beyond the l <= 2 of the report."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-4.0, 2.0), st.integers(0, 15), st.integers(0, 12))
    def test_oscillator_spectrum(self, log10_omega, l, node_target):
        omega = 10.0 ** log10_omega
        res = solve_eigen(RadialProblem(omega=omega, l=l),
                          ShootingConfig(node_target=node_target),
                          coulomb_on=False)
        assert [e.nodes for e in res.eigenvalues] == list(range(node_target + 1))
        for k, e in enumerate(res.eigenvalues):
            exact = omega * (2 * k + l + 1)
            assert abs(e.eta - exact) <= 1e-10 * exact, (k, e)

    @pytest.mark.parametrize("omega, node_target", [
        (18.192771205186894, 9), (79.7985484355881, 5),
        (0.006301949587185644, 11), (0.00028008992560490053, 11)])
    def test_self_convergence_gate_at_l0(self, omega, node_target):
        """The four cases of a 4 300-case random sweep (log10 omega uniform in
        [-4, 2], l <= 10, node_target <= 12) at which a size ladder whose
        eigenvalue roundoff grew with the size to 1e-10 never met the 1e-11
        gate and missed the spectrum by up to 1.2e-10; such a ladder now
        raises NoEigenvalueError."""
        res = solve_eigen(RadialProblem(omega=omega, l=0),
                          ShootingConfig(node_target=node_target),
                          coulomb_on=False)
        assert [e.nodes for e in res.eigenvalues] == list(range(node_target + 1))
        for k, e in enumerate(res.eigenvalues):
            exact = omega * (2 * k + 1)
            assert abs(e.eta - exact) <= 1e-11 * exact, (k, e)

    @pytest.mark.parametrize("l", [3, 6, 10, 15])
    @pytest.mark.parametrize("N", [2, 5, 8, 12])
    def test_exact_coulomb_states(self, l, N):
        states = _exact_states(N, l)
        assert len(states) == (N + 1) // 2
        for omega, eta, nodes in states:
            res = solve_eigen(RadialProblem(omega=omega, l=l),
                              ShootingConfig(node_target=N), coulomb_on=True)
            assert [e.nodes for e in res.eigenvalues] == list(range(N + 1))
            assert abs(res.etas[nodes] - eta) <= 1e-10 * eta, (omega, nodes)


class TestWideRange:
    """With the node counts taken from the Ritz index, nothing but the
    self-convergence of the size ladder bounds the states a solve can
    return."""

    @pytest.mark.parametrize("l", [0, 2, 5, 10, 15])
    @pytest.mark.parametrize("omega", [1e-4, 1e-2, 1.0, 1e2])
    def test_oscillator_levels_to_node_target_40(self, omega, l):
        # a solve that returns has self-converged, and only then is the
        # index the node count
        res = solve_eigen(RadialProblem(omega=omega, l=l),
                          ShootingConfig(node_target=40),
                          coulomb_on=False)
        assert [e.nodes for e in res.eigenvalues] == list(range(41))
        for k, e in enumerate(res.eigenvalues):
            exact = omega * (2 * k + l + 1)
            assert abs(e.eta - exact) <= 1e-11 * exact, (k, e)

    @pytest.mark.parametrize("node_target", [70, 90, 91, 136])
    def test_request_beyond_largest_basis_raises(self, node_target):
        """A solve whose ladder runs out before two sizes agree raises. At
        node_target 70 and 90 the sizes 90 and 135 still disagree; the
        largest basis, of degree 135, has no larger size to converge
        against, so more than the 91 states of size 90 never agree."""
        assert oracle.GALERKIN_SIZES[-2:] == (90, 135)
        with pytest.raises(NoEigenvalueError,
                           match=f"^{node_target + 1} states not "
                                 "self-converged by Galerkin size 135: "
                                 "relative gap "):
            solve_eigen(RadialProblem(omega=1.0, l=2),
                        ShootingConfig(node_target=node_target),
                        coulomb_on=False)


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

    def test_eigenvalues_bracketed(self):
        res = solve_eigen(RadialProblem(omega=1.0, l=2),
                          ShootingConfig(node_target=2), coulomb_on=False)
        assert [e.nodes for e in res.eigenvalues] == [0, 1, 2]


class TestSyntheticOscillatorCheck:
    def test_polynomial_machinery_confirms_spectrum(self):
        for k, l in ((0, 0), (1, 0), (2, 1)):
            rec = validate_oscillator(k, l, oscillator_spectrum(l))
            assert rec.classification == CONFIRMED
            assert rec.residual < 1e-7

    def test_oscillator_state_is_laguerre(self):
        st = oscillator_state(1, 0)
        # 1 - r^2 at omega = 1
        assert st.solution.y_coeffs == pytest.approx((1.0, 0.0, -1.0))

    def test_states_are_laguerre_polynomials(self):
        """y_{2j} = (-1)^j C(k+l, k-j) / (C(k+l, k) j!), the Laguerre
        polynomial L_k^(l)(r^2) over its value at 0, and every odd
        coefficient is exactly 0."""
        for k in range(8):
            for l in range(6):
                y = oscillator_state(k, l).solution.y_coeffs
                assert len(y) == 2 * k + 1
                assert all(c == 0 for c in y[1::2]), (k, l)
                ref = [(-1) ** j * math.comb(k + l, k - j)
                       / (math.comb(k + l, k) * math.factorial(j))
                       for j in range(k + 1)]
                assert y[::2] == pytest.approx(ref, rel=1e-14, abs=0), (k, l)


class TestValidateRoot:
    def test_record_fields_populated(self):
        root = solve_termination(2, 0).rootset.roots[0]
        rec = validate_root(normalize(assemble_polynomial(2, 0, root.t_star,
                                                          at_root=True)))
        omega = 1.0 / (root.t_star * root.t_star)
        assert rec.eta_analytic == pytest.approx(3 * omega)
        assert rec.classification in (CONFIRMED, NEAR, DISCREPANT)
        assert rec.abs_delta == abs(rec.eta_analytic - rec.eta_oracle)
        assert rec.effective_degree == 1
        assert np.isfinite(rec.residual)

    def test_confirms_exact_states_with_more_than_six_nodes(self):
        """The eight exact Coulomb-on states with N = 15 and l = 3, their
        polynomials summed from the b_k recurrence of _exact_states, have
        0..7 nodes; each is CONFIRMED at its own node count."""
        N, l = 15, 3
        states = _exact_states(N, l)
        assert sorted(nodes for *_, nodes in states) == list(range(8))
        for omega, eta, nodes in states:
            sol = _exact_solution(N, l, omega, eta)
            rec = validate_root(normalize(sol))
            assert rec.classification == CONFIRMED, (nodes, rec)
            assert rec.oracle_nodes == nodes

    def test_residual_of_exact_states_is_small(self):
        """The ODE residual of every exact Coulomb-on state with N in
        {1, 2, 4, 8} and l <= 2 is finite-difference error, at most 1e-3;
        the dossier's rows, which are not exact states, read 0.6 to 1.6
        (test_report)."""
        values = [residual(normalize(_exact_solution(N, l, omega, eta)))
                  for N in (1, 2, 4, 8) for l in range(3)
                  for omega, eta, _ in _exact_states(N, l)]
        assert len(values) == 24
        assert max(values) <= 1e-3, values

    def test_n4_large_root_classified(self):
        roots = solve_termination(4, 0).rootset.roots
        rec = validate_root(normalize(assemble_polynomial(4, 0,
                                                          roots[1].t_star)))
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
