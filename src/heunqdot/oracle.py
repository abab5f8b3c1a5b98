"""Independent spectral eigensolver for the radial problem.

This module never touches the termination machinery: it solves the radial
equation directly. With u = r^(l+1/2) v the regular solution v is smooth at
the origin and satisfies

    r v'' + (2l+1) v' + (2 eta r - 2a - omega^2 r^3) v = 0,    v(L) = 0,

on [0, L] with L = 12/sqrt(omega), where the Gaussian tail has fallen below
e^-72. Chebyshev collocation (Trefethen, Spectral Methods in MATLAB, `cheb`)
turns it into the generalized eigenproblem A v = eta B v with B = diag(-2r);
the collocation row at r = 0, where B vanishes, imposes regularity and gives
an infinite eigenvalue, which is dropped with any complex spurious modes. The
collocation size is chosen by self-convergence (N against 1.5N), and node
counting on a fixed uniform lattice of LATTICE + 1 points on [0, L] orders
the states. The solver therefore serves as the arbiter for whether an
analytically constructed state is a genuine eigenstate.

The dense determinant check at the bottom is the exact-arithmetic
counterpart: it expands the termination matrix by fraction-free elimination
and must agree with the three-term recurrence identically.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial import chebyshev
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

# collocation domain [0, DOMAIN_SCALE/sqrt(omega)]
DOMAIN_SCALE = 12.0
# collocation sizes tried in turn, each 1.5 times the last; the eigenvalues
# are accepted once two consecutive sizes agree to SELF_CONVERGENCE_RTOL
CHEB_SIZES = (40, 60, 90, 135, 202)
SELF_CONVERGENCE_RTOL = 1e-11
# intervals of the uniform lattice on [0, L] on which the eigenfunctions are
# sampled and their nodes counted
LATTICE = 2000
# samples below this fraction of max|v| are roundoff, not sign information;
# v = u/r^(l+1/2) has the nodes of u, without the r^(l+1/2) amplification of
# the roundoff in the Gaussian tail
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


def _cheb(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev differentiation matrix and points x_j = cos(pi j/n)."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return d, x


def _lowest_states(problem: RadialProblem, coul2: float, wall: float,
                   n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The `count` lowest eigenvalues at collocation size n, ascending.

    Returns the eigenvalues and the matching eigenvectors v at the n + 1
    Chebyshev points (columns, v(L) = 0 included, v(0) > 0).
    """
    d, x = _cheb(n)
    r = 0.5 * wall * (1.0 + x)
    d *= 2.0 / wall
    a = (r[:, None] * (d @ d) + (2 * problem.l + 1) * d
         - np.diag(coul2 + problem.omega ** 2 * r ** 3))
    # drop the row and column of r = L, where v(L) = 0
    w, vecs = linalg.eig(a[1:, 1:], np.diag(-2.0 * r[1:]))
    finite = np.isfinite(w) & (np.abs(w.imag) <= 1e-8 * np.abs(w.real))
    w, vecs = w.real[finite], vecs.real[:, finite]
    order = np.argsort(w)[:count]
    vecs = np.vstack([np.zeros(len(order)), vecs[:, order]])
    vecs *= np.sign(vecs[-1])
    return w[order], vecs


def _count_nodes(v: np.ndarray) -> int:
    s = np.sign(v[np.abs(v) > NODE_FLOOR * np.abs(v).max()])
    return int(np.count_nonzero(s[1:] != s[:-1]))


def solve_eigen(problem: RadialProblem, config: ShootingConfig | None = None,
                coulomb_on: bool = True) -> OracleResult:
    """Lowest eigenvalues (node counts 0..node_target) of the radial problem.

    Solves the collocation eigenproblem at the sizes in CHEB_SIZES until the
    node_target + 1 lowest eigenvalues agree between consecutive sizes (the
    gap becomes each eigenvalue's convergence_width), samples the
    eigenfunctions on the fixed lattice of LATTICE + 1 points on the
    collocation interval [0, 12/sqrt(omega)], counts their nodes there and
    checks that the node counts rise with eta. Raises NoEigenvalueError if a
    requested state lies outside the eta bracket.
    """
    if config is None:
        config = ShootingConfig()
    w, l = problem.omega, problem.l
    coul2 = 2.0 * problem.coulomb_a if coulomb_on else 0.0
    wall = DOMAIN_SCALE / math.sqrt(w)
    count = config.node_target + 1

    if config.eta_bracket is not None:
        lo, hi = config.eta_bracket
    else:
        lo = 0.2 * (l + 1) * w
        hi = (2 * config.node_target + l + 3) * w + 2.5 * math.sqrt(w)

    prev = None
    for n in CHEB_SIZES:
        etas, vecs = _lowest_states(problem, coul2, wall, n, count)
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
                f"only {len(etas)} real eigenvalues at collocation size {n}")
        log.warning("collocation not self-converged at N=%d: relative gap %.1e",
                    n, float(np.max(gaps / np.abs(etas))))

    r = np.linspace(0.0, wall, LATTICE + 1)
    x = 2.0 * r / wall - 1.0
    # Chebyshev coefficients from values at x_j = cos(pi j/n) (DCT-I)
    k = np.arange(n + 1)
    weights = np.full(n + 1, 2.0 / n)
    weights[[0, -1]] /= 2.0
    coeffs = np.cos(np.pi * np.outer(k, k) / n) @ (weights[:, None] * vecs)
    coeffs[[0, -1]] /= 2.0
    smooth = chebyshev.chebval(x, coeffs)
    funcs = r ** (l + 0.5) * smooth
    funcs /= np.sqrt(np.trapezoid(funcs * funcs, r, axis=1))[:, None]

    states = []
    for eta, gap, v in zip(etas.tolist(), gaps.tolist(), smooth):
        width = max(gap, 4 * math.ulp(eta))
        states.append(Eigenvalue(eta=eta, nodes=_count_nodes(v[1:-1]),
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
