"""Independent spectral eigensolver for the radial problem.

This module never touches the termination machinery: it solves the radial
equation directly. With u = r^(l+1/2) v the regular solution v is smooth at
the origin and satisfies the self-adjoint equation

    (r^(2l+1) v')' + r^(2l) (2 eta r - 2a - omega^2 r^3) v = 0,    v(L) = 0,

on [0, L] with L = 12/sqrt(omega), where the Gaussian tail has fallen below
e^-72. Its weak form

    int r^(2l+1) v' w' + int (2a r^(2l) + omega^2 r^(2l+3)) v w
        = eta int 2 r^(2l+1) v w

is discretized by a Jacobi-Galerkin method (Shen, Tang & Wang, Spectral
Methods, Springer 2011, ch. 3) on r = (L/2)(1 + s): the basis
phi_j = (1 - s) p_j(s), with p_j orthonormal under the Jacobi weight
(1 - s)^2 (1 + s)^(2l+1), meets v(L) = 0 and makes the mass matrix a multiple
of the identity, so the eigenvalues are those of one symmetric matrix. The
Galerkin size is chosen by self-convergence (N against 1.5N). Each size costs
one partial symmetric eigensolve for the lowest eigenvalues and their
eigenvectors; the vectors of the accepted size are sampled on a fixed uniform
lattice of LATTICE + 1 points on [0, L], and node counting there orders the
states. The matrices are integrated exactly by a Gauss-Legendre rule built
from the Legendre three-term recurrence. The solver therefore serves as the
arbiter for whether an analytically constructed state is a genuine
eigenstate.

Checked range: l <= 15 with node_target <= 12. With the Coulomb term off,
4300 random cases with omega log-uniform in [1e-4, 1e2], l <= 10 and
node_target <= 12 reproduce eta = omega (2k + l + 1) with node counts
0..node_target, all but two to 1e-11 relative. Those two have l = 0, where
the roundoff of the eigensolve grows fastest with N: they climb to N = 202,
log a failure to self-converge and are off by up to 3.0e-11. The 168 exact
Coulomb-on states of the radial equation with l in {3, 6, 10, 15} and
1 <= N <= 12 (node_target = N) come out to 2.7e-13 with the right node
counts (tests/test_oracle.py holds a sample of both).

The dense determinant check at the bottom is the exact-arithmetic
counterpart: it expands the termination matrix by fraction-free elimination
and must agree with the three-term recurrence identically.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import linalg

from .model import RadialProblem
from .termination import (
    GammaConvention,
    build_gamma_factors,
    determinant_sequence,
)
from .ratpoly import lau_eval
from .wavefunction import (
    RadialState,
    assemble_polynomial,
    normalize,
    residual,
)

log = logging.getLogger(__name__)

# domain [0, DOMAIN_SCALE/sqrt(omega)]
DOMAIN_SCALE = 12.0
# Galerkin sizes (highest degree of p_j) tried in turn, each 1.5 times the
# last; the eigenvalues are accepted once two consecutive sizes agree to
# SELF_CONVERGENCE_RTOL
GALERKIN_SIZES = (40, 60, 90, 135, 202)
SELF_CONVERGENCE_RTOL = 1e-11
# intervals of the uniform lattice on [0, L] on which the eigenfunctions are
# sampled and their nodes counted
LATTICE = 2000
# samples of u below this fraction of max|u| are roundoff, not sign
# information; u rather than v, because near r = 0 the roundoff of v at high l
# changes sign where u is already below the floor
NODE_FLOOR = 1e-8


class NoEigenvalueError(RuntimeError):
    """A requested state does not lie in the eta bracket."""


@dataclass(frozen=True)
class ShootingConfig:
    """Eigensolve request: states with node counts 0..node_target, optionally
    restricted to eta_bracket.

    The name is historical and kept only because callers construct it.
    """

    eta_bracket: tuple[float, float] | None = None
    node_target: int = 3

    def __post_init__(self):
        if self.node_target < 0:
            raise ValueError("node_target must be non-negative")


@dataclass(frozen=True)
class Eigenvalue:
    """One eigenvalue; convergence_width is the N-vs-1.5N self-convergence gap."""

    eta: float
    nodes: int
    convergence_width: float


@dataclass(frozen=True)
class OracleResult:
    """The requested states, with the reduced radial functions u normalized
    on the uniform lattice r of LATTICE + 1 points on [0, 12/sqrt(omega)]."""

    problem: RadialProblem
    coulomb_on: bool
    eigenvalues: tuple[Eigenvalue, ...]
    r: np.ndarray = field(repr=False)
    eigenfunctions: np.ndarray = field(repr=False)  # shape (n_eigen, len(r))

    @property
    def etas(self) -> list[float]:
        return [e.eta for e in self.eigenvalues]


def _jacobi(n: int, alpha: int, beta: int, s: np.ndarray) -> np.ndarray:
    """Rows p_0..p_n at the points s of the polynomials orthonormal under the
    weight (1 - s)^alpha (1 + s)^beta on [-1, 1].

    Filled in place by the three-term recurrence
    s p_j = b_{j+1} p_{j+1} + a_j p_j + b_j p_{j-1} with the Jacobi
    coefficients (Golub & Welsch, Math. Comp. 23, 221 (1969)).
    """
    # a_0 and b_0 = 0 on their own: at j = 0 the general formulas are 0/0
    # when alpha + beta = 0
    a = np.empty(n + 1)
    b = np.zeros(n + 1)
    a[0] = (beta - alpha) / (alpha + beta + 2.0)
    j = np.arange(1, n + 1)
    k = 2.0 * j + alpha + beta
    a[1:] = (beta * beta - alpha * alpha) / (k * (k + 2))
    b[1:] = np.sqrt(4.0 * j * (j + alpha) * (j + beta) * (j + alpha + beta)
                    / (k * k * (k + 1) * (k - 1)))
    p = np.empty((n + 1, len(s)))
    p[0] = math.sqrt(math.factorial(alpha + beta + 1)
                     / (2.0 ** (alpha + beta + 1) * math.factorial(alpha)
                        * math.factorial(beta)))
    prev = np.zeros_like(s)
    for i in range(n):
        row = p[i + 1]
        np.subtract(s, a[i], out=row)
        row *= p[i]
        row -= b[i] * prev
        row /= b[i + 1]
        prev = p[i]
    return p


def _gauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [-1, 1] (Golub & Welsch).

    The nodes are the eigenvalues of the Jacobi matrix of the orthonormal
    Legendre polynomials, averaged with their mirror images because the exact
    rule is symmetric; the weights are the Christoffel numbers
    1 / sum_j p_j(x)^2, j = 0..m-1.
    """
    j = np.arange(1, m)
    x = linalg.eigvalsh_tridiagonal(np.zeros(m), j / np.sqrt(4.0 * j * j - 1),
                                    check_finite=False)
    x = 0.5 * (x - x[::-1])
    p = _jacobi(m - 1, 0, 0, x)
    return x, 1.0 / np.einsum("ij,ij->j", p, p)


@functools.lru_cache
def _galerkin(n: int, l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The omega-independent matrices of the basis phi_j = (1 - s) p_j,
    j = 0..n, with p_j orthonormal under (1 - s)^2 (1 + s)^(2l+1):

        K = int (1+s)^(2l+1) phi_i' phi_j',  C = int (1+s)^(2l) phi_i phi_j,
        Q = int (1+s)^(2l+3) phi_i phi_j      over [-1, 1].

    Each integrand is (1+s)^(2l) times a polynomial of degree at most
    2n + 5, so the n + l + 3 point Gauss-Legendre rule of _gauss integrates
    it exactly. The matrices are read-only because the cache hands them to
    every caller.
    """
    x, w = _gauss(n + l + 3)
    w *= (1.0 + x) ** (2 * l)
    p = _jacobi(n, 2, 2 * l + 1, x)
    # p_j' = sqrt(j (j + 2l + 4)) q_{j-1}, q orthonormal under the weight
    # with both exponents raised by one
    dp = np.zeros_like(p)
    j = np.arange(1, n + 1)
    dp[1:] = np.sqrt(j * (j + 2 * l + 4.0))[:, None] * _jacobi(
        n - 1, 3, 2 * l + 2, x)
    phi = (1.0 - x) * p
    dphi = (1.0 - x) * dp - p
    mats = ((dphi * (w * (1.0 + x))) @ dphi.T, (phi * w) @ phi.T,
            (phi * (w * (1.0 + x) ** 3)) @ phi.T)
    for m in mats:
        m.setflags(write=False)
    return mats


def _count_nodes(u: np.ndarray) -> int:
    s = np.sign(u[np.abs(u) > NODE_FLOOR * np.abs(u).max()])
    return int(np.count_nonzero(s[1:] != s[:-1]))


def solve_eigen(problem: RadialProblem, config: ShootingConfig | None = None,
                coulomb_on: bool = True) -> OracleResult:
    """Lowest eigenvalues (node counts 0..node_target) of the radial problem.

    Computes the node_target + 1 lowest eigenpairs of the symmetric Galerkin
    matrix, one partial eigh per size in GALERKIN_SIZES, until the
    eigenvalues agree between consecutive sizes (the gap becomes each
    eigenvalue's convergence_width). The coefficient vectors of the accepted
    size give the eigenfunctions, sampled on the fixed lattice of
    LATTICE + 1 points on [0, 12/sqrt(omega)], where their nodes are counted
    and checked to rise with eta. Raises NoEigenvalueError if a requested
    state lies outside the eta bracket.

    Checked range: l <= 15 with node_target <= 12 (see the module docstring).
    """
    if config is None:
        config = ShootingConfig()
    w, l = problem.omega, problem.l
    coul2 = 2.0 * problem.coulomb_a if coulomb_on else 0.0
    wall = DOMAIN_SCALE / math.sqrt(w)
    h = 0.5 * wall
    count = config.node_target + 1

    if config.eta_bracket is not None:
        lo, hi = config.eta_bracket
    else:
        lo = 0.2 * (l + 1) * w
        hi = (2 * config.node_target + l + 3) * w + 2.5 * math.sqrt(w)

    prev = None
    for n in GALERKIN_SIZES:
        stiff, coul, trap = _galerkin(n, l)
        # with r = h (1 + s) the weak form is h^(2l) [K + 2a h C + omega^2 h^4 Q]
        # against the mass matrix h^(2l) 2 h^2 I; divide by the latter
        a = (stiff / (2 * h * h) + (coul2 / (2 * h)) * coul
             + (0.5 * (w * h) ** 2) * trap)
        etas, coeffs = linalg.eigh(
            a, subset_by_index=[0, min(count, n + 1) - 1], check_finite=False)
        if prev is not None and len(prev) == len(etas):
            gaps = np.abs(etas - prev)
        else:
            gaps = np.full(len(etas), np.inf)
        converged = np.all(gaps <= SELF_CONVERGENCE_RTOL * np.abs(etas))
        if len(etas) == count and converged:
            break
        prev = etas
    else:
        if len(etas) < count:
            raise NoEigenvalueError(
                f"only {len(etas)} eigenvalues at Galerkin size {n}")
        log.warning("Galerkin not self-converged at N=%d: relative gap %.1e",
                    n, float(np.max(gaps / np.abs(etas))))

    r = np.linspace(0.0, wall, LATTICE + 1)
    s = np.linspace(-1.0, 1.0, LATTICE + 1)
    smooth = (1.0 - s) * (coeffs.T @ _jacobi(n, 2, 2 * l + 1, s))
    smooth *= np.sign(smooth[:, :1])  # v(0) > 0
    funcs = r ** (l + 0.5) * smooth
    funcs /= np.sqrt(np.trapezoid(funcs * funcs, r, axis=1))[:, None]

    states = []
    for eta, gap, u in zip(etas.tolist(), gaps.tolist(), funcs):
        width = max(gap, 4 * math.ulp(eta))
        states.append(Eigenvalue(eta=eta, nodes=_count_nodes(u[1:-1]),
                                 convergence_width=width))
    for a, b in zip(states, states[1:]):
        if b.nodes < a.nodes:
            raise RuntimeError(
                f"node ordering violated: eta={a.eta:g} has {a.nodes} nodes, "
                f"eta={b.eta:g} has {b.nodes}")

    keep = [i for i, e in enumerate(states)
            if lo <= e.eta <= hi and e.nodes <= config.node_target]
    missing = set(range(count)) - {states[i].nodes for i in keep}
    if missing:
        raise NoEigenvalueError(
            f"states with node counts {sorted(missing)} not found in "
            f"eta=({lo:g}, {hi:g}); widen the bracket")
    return OracleResult(problem=problem, coulomb_on=coulomb_on,
                        eigenvalues=tuple(states[i] for i in keep),
                        r=r, eigenfunctions=funcs[keep])


# ---------------------------------------------------------------------------
# Root validation against the oracle
# ---------------------------------------------------------------------------

CONFIRMED = "CONFIRMED"
NEAR = "NEAR"
DISCREPANT = "DISCREPANT"


@dataclass(frozen=True)
class ValidationRecord:
    n: int
    l: int
    t_star: float
    eta_analytic: float
    eta_oracle: float
    oracle_nodes: int
    abs_delta: float
    residual: float
    effective_degree: int
    classification: str


def classify(eta_analytic: float, eta_oracle: float) -> str:
    delta = abs(eta_analytic - eta_oracle)
    if delta < 1e-6 * abs(eta_analytic):
        return CONFIRMED
    if delta < 1e-2 * abs(eta_analytic):
        return NEAR
    return DISCREPANT


def _record(n: int, l: int, t_star: float, eta_analytic: float,
            result: OracleResult, state: RadialState,
            res: float) -> ValidationRecord:
    """The verdict on one analytic state against the oracle's nearest eta."""
    best = min(result.eigenvalues, key=lambda e: abs(e.eta - eta_analytic))
    return ValidationRecord(
        n=n, l=l, t_star=t_star,
        eta_analytic=eta_analytic,
        eta_oracle=best.eta,
        oracle_nodes=best.nodes,
        abs_delta=abs(eta_analytic - best.eta),
        residual=res,
        effective_degree=state.solution.effective_degree,
        classification=classify(eta_analytic, best.eta),
    )


def validate_root(n: int, l: int, t_star: float,
                  convention: GammaConvention = GammaConvention.TABLE,
                  ) -> ValidationRecord:
    """Compare the analytic state at a determinant root with the oracle.

    eta_analytic = (n+l+1)/t_star^2; the oracle solves the same (omega, l)
    problem with the Coulomb term on and reports its nearest eigenvalue. The
    classification thresholds (1e-6 / 1e-2 relative) separate machine-level
    agreement from structural disagreement; they are solver policy, not
    physics.
    """
    omega = 1.0 / (t_star * t_star)
    eta_analytic = (n + l + 1) * omega
    problem = RadialProblem(omega=omega, l=l)
    node_target = 6
    hi = max((2 * node_target + l + 3) * omega + 2.5 * math.sqrt(omega),
             1.3 * eta_analytic + 4 * omega)
    config = ShootingConfig(node_target=node_target,
                            eta_bracket=(0.2 * (l + 1) * omega, hi))
    result = solve_eigen(problem, config, coulomb_on=True)
    state = normalize(assemble_polynomial(n, l, t_star, convention=convention))
    return _record(n, l, t_star, eta_analytic, result, state, residual(state))


def oscillator_state(k: int, l: int) -> RadialState:
    """Exact 2D-oscillator polynomial state at omega = 1 (Coulomb off).

    With the interaction removed the series machinery terminates at every
    frequency: odd coefficients vanish and A_{p+2} = -gamma_{p+1} A_p with
    the recurrence factors. Degree n = 2k gives eta = (2k + l + 1).
    """
    n = 2 * k
    a = [1.0, 0.0]
    for p in range(max(0, n - 1)):
        gamma = 2.0 * (n - p) * (p + 1) * (p + 1 + 2 * l)  # alpha = 2l at omega = 1
        a.append(-gamma * a[p])  # delta' = 0 once the Coulomb term is off
    a = a[:n + 1]
    sol = assemble_polynomial(n, l, 1.0, A_chain=a)
    return normalize(sol)


def validate_oscillator(k: int, l: int) -> ValidationRecord:
    """Synthetic cross-check: both solvers on the exactly solvable problem."""
    n = 2 * k
    eta_analytic = float(n + l + 1)
    problem = RadialProblem(omega=1.0, l=l)
    result = solve_eigen(problem, ShootingConfig(node_target=max(3, k)),
                         coulomb_on=False)
    state = oscillator_state(k, l)
    return _record(n, l, 1.0, eta_analytic, result, state,
                   residual(state, coulomb_a=0.0))


# ---------------------------------------------------------------------------
# Exact dense determinant cross-check
# ---------------------------------------------------------------------------

def dense_determinant_check(n: int, l: int, t: Fraction,
                            convention: GammaConvention = GammaConvention.TABLE,
                            ) -> bool:
    """Expand the n x n tridiagonal matrix directly and compare with d_n.

    Bareiss elimination on the dense matrix (row-swap pivoting on a zero
    pivot; every division is exact over Q) must reproduce the recurrence
    value identically in exact rational arithmetic.
    """
    if n > 8:
        raise ValueError("dense check is intended for n <= 8")
    t = Fraction(t)
    system = build_gamma_factors(n, l, convention)
    dp = t / 2
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = dp
        if i + 1 < n:
            m[i][i + 1] = Fraction(1)
            m[i + 1][i] = system.gamma_factors[i](t)
    direct = _det_bareiss(m)
    recurrence = lau_eval(determinant_sequence(system).final, t)
    return direct == recurrence


def _det_bareiss(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    m = [row[:] for row in m]
    prev = Fraction(1)
    sign = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return Fraction(0)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
