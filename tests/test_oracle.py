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
        # with the matrices cached, no basis is built during the count
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

    The oracle integrates nothing; mapped by _gauss_measure, the rules at
    m = 200 and 485 are the independent quadrature under which the tests
    check its basis orthonormal.
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
def _gauss_measure(top):
    """Nodes x and weights w of a discrete measure for polynomials of
    degree up to top under e^(-x^2) on [0, inf): the m = 3 top + 80 point
    rule of _mp_gauss on [0, X], X = sqrt(4 top + 68) + 8, with the weights
    multiplied by e^(-x^2). For l <= 15 the integrand x^k e^(-x^2) of every
    integral up to degree top, k <= 2 top + 2l + 1, peaks at
    x = sqrt(k/2) < X - 8 and is below e^-100 of its peak by X."""
    x, w = _mp_gauss(3 * top + 80)
    half = 0.5 * (math.sqrt(4.0 * top + 68.0) + 8.0)
    x = half * (1.0 + x)
    return x, w * (half * np.exp(-x * x))


def _mp_moments(shift, count):
    """int_0^inf x^(k + shift) e^(-x^2) dx = Gamma((k + shift + 1)/2)/2 for
    k < count, at the working precision."""
    return [mpmath.gamma(mpmath.mpf(k + shift + 1) / 2) / 2
            for k in range(count)]


def _mp_inner(f, g, mom):
    """The integral of f g under the weight of the moments mom, for
    polynomials given by ascending coefficients."""
    return mpmath.fsum(fi * gk * mom[i + k] for i, fi in enumerate(f)
                       for k, gk in enumerate(g))


def _mp_derivative(f):
    return [k * c for k, c in enumerate(f)][1:]


@functools.lru_cache
def _mp_chebyshev(n, shift):
    """alpha_0..alpha_{n-1} and beta_0..beta_{n-1} of the monic recurrence
    P_{k+1} = (x - alpha_k) P_k - beta_k P_{k-1} of x^shift e^(-x^2) on
    [0, inf), as mpmath numbers: the Chebyshev algorithm (Gautschi,
    Orthogonal Polynomials: Computation and Approximation, OUP 2004, 2.1)
    on the exact moments Gamma((k + shift + 1)/2)/2. The map from the
    moments is ill-conditioned, so it runs at 4.5 n digits: at n = 200,
    700, 900 and 1 000 digits all round to the same floats."""
    with mpmath.workdps(max(60, 9 * n // 2)):
        mom = _mp_moments(shift, 2 * n)
        alpha, beta = [mom[1] / mom[0]], [mom[0]]
        # sigma_{k-2, m} and sigma_{k-1, m}, the mixed moments
        prev, cur = [0] * (2 * n), mom
        for k in range(1, n):
            new = [0] * (2 * n)
            for m in range(k, 2 * n - k):
                new[m] = (cur[m + 1] - alpha[k - 1] * cur[m]
                          - beta[k - 1] * prev[m])
            alpha.append(new[k + 1] / new[k] - cur[k] / cur[k - 1])
            beta.append(new[k] / cur[k - 1])
            prev, cur = cur, new
    return alpha, beta


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
        mu = _mp_moments(2 * l + 1, 2 * n + 2)
        b = [mpmath.sqrt(mu[0])]
        a = []
        p = [[], [1 / b[0]]]  # p_-1 = 0 and p_0, ascending coefficients
        for j in range(n):
            z = [mpmath.mpf(0)] + p[-1]
            a.append(_mp_inner(z, p[-1], mu))
            for c, q in ((a[j], p[-1]), (b[j], p[-2])):
                for i, qi in enumerate(q):
                    z[i] -= c * qi
            b.append(mpmath.sqrt(_mp_inner(z, z, mu)))
            p.append([c / b[-1] for c in z])
        return (np.array([float(v) for v in a]),
                np.array([float(v) for v in b]))


class TestQuadrature:
    """The 40-digit Gauss-Legendre rules and the discrete measure mapped
    from them, an independent quadrature of the oracle's basis, whose
    recurrence and matrices are built with no quadrature at all."""

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
        (C_00) to 2l + 2n + 1 (x p_n p_n)."""
        with mpmath.workdps(30):
            for n in oracle.BASIS_TOPS:
                x, w = _gauss_measure(n)
                for k in range(2 * l, 2 * l + 2 * n + 2):
                    # divide x by the power of two nearest the peak of the
                    # integrand, sqrt(k/2), exactly, so x^k cannot overflow
                    e = max(0, round(0.5 * np.log2(max(k, 1) / 2)))
                    exact = (mpmath.gamma(mpmath.mpf(k + 1) / 2) / 2
                             / mpmath.mpf(2) ** (e * k))
                    value = np.sum(w * (x / 2.0 ** e) ** k)
                    assert abs(value / float(exact) - 1) <= 1e-13, (n, k)

    @pytest.mark.parametrize("l", [0, 1, 3, 15])
    def test_stieltjes_against_mpmath(self, l):
        """The recurrence of the first group's basis, the end of a chain of
        2l + 1 Christoffel steps from the tabulated half-range Hermite
        recurrence, against the Stieltjes procedure on the exact moments
        of its weight x^(2l+1) e^(-x^2)."""
        top = oracle.BASIS_TOPS[0]
        a_ref, b_ref = _mp_recurrence(top, l)
        a, b, *_ = oracle._basis(top, l)
        assert not a.flags.writeable and not b.flags.writeable
        assert np.max(np.abs(a / a_ref - 1)) <= 1e-13
        assert np.max(np.abs(b / b_ref - 1)) <= 1e-13

    @pytest.mark.parametrize("l", range(16))
    def test_mass_matrix_is_identity(self, l):
        """The polynomials of the basis recurrence are orthonormal under the
        independent quadrature of each group top, which is what lets the
        eigenproblem drop the mass matrix: the guard of the Christoffel
        chain at every l the oracle is checked for."""
        for n in oracle.BASIS_TOPS:
            x, w = _gauss_measure(n)
            basis = oracle._basis(n, l)
            p = _orthonormal(basis.a, basis.b, x)
            gram = (p * (w * x ** (2 * l + 1))) @ p.T
            assert np.max(np.abs(gram - np.eye(n + 1))) <= 1e-13, n

    @pytest.mark.parametrize("l", [0, 2, 15])
    def test_galerkin_blocks_nest(self, l):
        """The basis is hierarchical, so the matrices of a smaller size are
        the leading blocks of those of a larger one. Within a group they
        are by construction; across the two groups, whose Christoffel
        chains read the same leading table entries and whose entries are
        prefix sums, the whole size-40 matrices are the leading blocks of
        the size-135 ones, bit for bit."""
        small, large = (oracle._basis(top, l) for top in oracle.BASIS_TOPS)
        for a, b in ((small.stiff, large.stiff),
                     (small.coulomb, large.coulomb)):
            assert (np.max(np.abs(a - b[:41, :41]))
                    <= 2e-13 * np.max(np.abs(b))), l
            assert np.array_equal(a, b[:41, :41]), l


class TestOnePassBasis:
    """Eigenfunctions rebuilt from the basis recurrence at small omega."""

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


def _mp_factor(alpha, beta, top):
    """d_0..d_top and e_0..e_{top-1} of the Cholesky factor J = L L^T of
    the Jacobi matrix of alpha, beta (diagonal d, subdiagonal e)."""
    u, v = [+alpha[0]], []
    for k in range(top):
        v.append(beta[k + 1] / u[k])
        u.append(alpha[k + 1] - v[k])
    return [mpmath.sqrt(x) for x in u], [mpmath.sqrt(x) for x in v]


def _mp_pencil(top, l):
    """S and C of the basis of degree top at 60 digits, by the formulas of
    the oracle's docstring from the recurrence of mu_l = x^(2l) e^(-x^2)
    that _mp_chebyshev computes directly: L^-1 by forward substitution,
    L^-1 D, and their Gram products exactly, in integers scaled by 2^220."""
    n = top + 1
    alpha, beta = _mp_chebyshev(n, 2 * l)
    with mpmath.workdps(60):
        d, e = _mp_factor(alpha, beta, top)
        inv = [[mpmath.mpf(0)] * n for _ in range(n)]
        for i in range(n):
            inv[i][i] = 1 / d[i]
            for j in range(i):
                inv[i][j] = -e[i - 1] * inv[i - 1][j] / d[i]
        # D_(c+1,c) = (c + 1)/e_c and D_(c+2,c) = 2 e_c e_(c+1) d_(c+1)
        f = [[row[c + 1] * (c + 1) / e[c]
              + (row[c + 2] * 2 * e[c] * e[c + 1] * d[c + 1]
                 if c + 2 < n else 0)
              for c in range(top)] for row in inv]
        scale = mpmath.mpf(2) ** 220
        out = []
        for m in (f, inv):
            ints = np.array([[int(mpmath.nint(x * scale)) for x in row]
                             for row in m], dtype=object)
            out.append(np.array([[float(x / scale ** 2) for x in row]
                                 for row in ints @ ints.T]))
        return out


class TestPencilBasis:
    """The basis from its tridiagonal Galerkin pencil: the tabulated
    recurrence, the stiffness of the q_j, the matrices S and C against
    references at 60 and more digits, and the reach of the table in l."""

    def test_table_is_the_rounded_recurrence(self):
        """The table is alpha_k, then beta_k, k < 200, of e^(-x^2) on
        [0, inf), each the float nearest the Chebyshev algorithm on the
        exact moments, bit for bit."""
        alpha, beta = _mp_chebyshev(200, 0)
        table = np.array([float(v) for v in alpha + beta], dtype="<f8")
        assert base64.b64decode(oracle._HERMITE) == table.tobytes()
        assert oracle._hermite() == (tuple(table[:200].tolist()),
                                     tuple(table[200:].tolist()))

    @pytest.mark.parametrize("l", [0, 2, 7])
    def test_stiffness_is_tridiagonal(self, l):
        """In the q_j orthonormal under mu_l, built from the exact moments
        at a small size, the weight x mu_l has Gram matrix J, the stiffness
        is the closed-form tridiagonal S^q, and S^q = D D^T."""
        n = 9
        alpha, beta = _mp_chebyshev(n + 1, 2 * l)
        with mpmath.workdps(60):
            root = [mpmath.sqrt(b) for b in beta]
            q = [[], [1 / root[0]]]  # q_-1 = 0 and q_0
            for j in range(n):
                z = [mpmath.mpf(0)] + q[-1]
                for c, p in ((alpha[j], q[-1]), (root[j], q[-2])):
                    for i, pi in enumerate(p):
                        z[i] -= c * pi
                q.append([c / root[j + 1] for c in z])
            q = q[1:]
            mom = _mp_moments(2 * l + 1, 2 * n + 2)
            gram = [[_mp_inner(f, g, mom) for g in q] for f in q]
            dq = [_mp_derivative(f) for f in q]
            stiff = [[_mp_inner(f, g, mom) for g in dq] for f in dq]
            d, e = _mp_factor(alpha, beta, n)
            # the coefficients of the q_j' in the p_c
            dcoef = [[mpmath.mpf(0)] * n for _ in range(n + 1)]
            for c in range(n):
                dcoef[c + 1][c] = (c + 1) / e[c]
                if c + 2 <= n:
                    dcoef[c + 2][c] = 2 * e[c] * e[c + 1] * d[c + 1]
            tol = mpmath.mpf(10) ** -40
            for i in range(n + 1):
                for j in range(n + 1):
                    jac = {0: alpha[i], 1: root[max(i, j)]}.get(abs(i - j), 0)
                    closed = {0: 2 * (i * alpha[i] + mpmath.fsum(alpha[:i])),
                              1: 2 * min(i, j) * root[max(i, j)]
                              }.get(abs(i - j), 0)
                    factor = mpmath.fsum(x * y for x, y in
                                         zip(dcoef[i], dcoef[j]))
                    assert abs(gram[i][j] - jac) <= tol, (i, j)
                    assert abs(stiff[i][j] - closed) <= tol, (i, j)
                    assert abs(factor - closed) <= tol, (i, j)

    @pytest.mark.parametrize("l", [0, 2, 7])
    def test_small_basis_against_moments(self, l):
        """At degree 10, S and C against the Gram products of the p_j and
        p_j' from Gram-Schmidt on the monomials under the exact moments."""
        n = 10
        basis = oracle._basis(n, l)
        with mpmath.workdps(80):
            weight = _mp_moments(2 * l + 1, 2 * n + 2)
            p = []
            for j in range(n + 1):
                z = [mpmath.mpf(0)] * j + [mpmath.mpf(1)]
                for f in p:
                    c = _mp_inner(z, f, weight)
                    z = [zi - c * (f[i] if i < len(f) else 0)
                         for i, zi in enumerate(z)]
                p.append([zi / mpmath.sqrt(_mp_inner(z, z, weight))
                          for zi in z])
            dp = [_mp_derivative(f) for f in p]
            coul = _mp_moments(2 * l, 2 * n + 1)
            stiff = np.array([[float(_mp_inner(f, g, weight)) for g in dp]
                              for f in dp])
            coulomb = np.array([[float(_mp_inner(f, g, coul)) for g in p]
                                for f in p])
        for new, ref in ((basis.stiff, stiff), (basis.coulomb, coulomb)):
            assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("l", [0, 2, 15])
    @pytest.mark.parametrize("top", oracle.BASIS_TOPS)
    def test_matrices_against_60_digits(self, top, l):
        """S and C of each group top, read-only and exactly symmetric,
        against _mp_pencil."""
        basis = oracle._basis(top, l)
        for v in basis:
            assert not v.flags.writeable
        for new, ref in zip((basis.stiff, basis.coulomb), _mp_pencil(top, l)):
            assert np.array_equal(new, new.T)
            assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("top, reach", [(40, 79), (135, 32)])
    def test_reach_of_the_table(self, top, reach):
        """200 table pairs reach l <= (200 - top - 1)/2. At the reach the
        basis is finite and its Coulomb-off levels are exact; one l past
        it the build raises an error that names the limit."""
        assert reach == (len(oracle._hermite()[0]) - top - 1) // 2
        basis = oracle._basis(top, reach)
        for v in basis:
            assert np.all(np.isfinite(v))
        levels = np.linalg.eigvalsh(basis.stiff / 2 + (reach + 1)
                                    * np.eye(top + 1))[:top // 2 + 1]
        exact = 2 * np.arange(top // 2 + 1) + reach + 1
        assert np.max(np.abs(levels / exact - 1)) <= 1e-13
        with pytest.raises(ValueError, match=f"it reaches l <= {reach}$"):
            oracle._basis(top, reach + 1)

    def test_solve_past_the_reach_raises(self):
        """A solve one l past the first group's reach raises with the
        limit; at the reach it returns the exact levels."""
        with pytest.raises(ValueError, match="Galerkin size 40: it reaches "
                                             "l <= 79$"):
            solve_eigen(RadialProblem(omega=1.0, l=80), coulomb_on=False)
        res = solve_eigen(RadialProblem(omega=1.0, l=79), coulomb_on=False)
        assert res.etas == pytest.approx([80, 82, 84, 86], rel=1e-14)


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


class _Numpy:
    """The numpy module, with linalg replaced."""

    def __init__(self, linalg):
        self.linalg = linalg

    def __getattr__(self, name):
        return getattr(np, name)


def _count_builds(monkeypatch) -> _CountingLinalg:
    """The linalg calls of the oracle from now on, through oracle.linalg or
    oracle.np.linalg, with every oracle cache emptied first, so that the
    table decodes and the basis builds are counted in the caches'
    misses."""
    for f in vars(oracle).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    counting = _CountingLinalg(oracle.linalg)
    monkeypatch.setattr(oracle, "linalg", counting)
    monkeypatch.setattr(oracle, "np", _Numpy(counting))
    return counting


def _assert_builds(ls):
    """Since the caches were emptied, the table has been decoded once and
    the basis of the first group top built once for each l in ls, and no
    other basis."""
    assert oracle._hermite.cache_info().misses == 1
    assert oracle._basis.cache_info().misses == len(ls)
    for l in ls:
        oracle._basis(oracle.BASIS_TOPS[0], l)
    assert oracle._basis.cache_info().misses == len(ls)


def _assert_ladder_only(counting):
    """Every linalg call is an eigvalsh of a Galerkin size's leading block:
    the builds call no LAPACK routine, such as inv or cholesky, whose code
    a forked pass would have to fault in."""
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
        sizes 18 to 40, the table is decoded once and the basis of the
        first group top built once per l."""
        counting = _count_builds(monkeypatch)
        solves = 0
        for l in range(3):
            for N in range(1, 9):
                for omega, _, _ in _exact_states(N, l):
                    solve_eigen(RadialProblem(omega=omega, l=l),
                                ShootingConfig(node_target=N))
                    solves += 1
        assert solves == 60
        _assert_builds(range(3))
        _assert_ladder_only(counting)

    def test_dossier_decodes_one_table(self, monkeypatch):
        """The report, at l = 0 and 1, decodes the table once and builds
        two bases, both of the first group top."""
        counting = _count_builds(monkeypatch)
        build_report()
        _assert_builds(range(2))
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
        rec = validate_root(assemble_polynomial(2, 0, root.t_star,
                                                at_root=True))
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
            rec = validate_root(sol)
            assert rec.classification == CONFIRMED, (nodes, rec)
            assert rec.oracle_nodes == nodes

    def test_residual_of_exact_states_is_small(self):
        """The ODE residual of every exact Coulomb-on state with N in
        {1, 2, 4, 8} and l <= 2 is finite-difference error, at most 1e-3;
        the dossier's rows, which are not exact states, read 0.6 to 1.6
        (test_report)."""
        values = [residual(_exact_solution(N, l, omega, eta))
                  for N in (1, 2, 4, 8) for l in range(3)
                  for omega, eta, _ in _exact_states(N, l)]
        assert len(values) == 24
        assert max(values) <= 1e-3, values

    def test_n4_large_root_classified(self):
        roots = solve_termination(4, 0).rootset.roots
        rec = validate_root(assemble_polynomial(4, 0, roots[1].t_star))
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
