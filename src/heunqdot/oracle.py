"""Independent spectral eigensolver for the radial problem.

The eigensolve does not use the termination machinery: it solves the radial
equation directly, and importing this module loads numpy and the model only.
The verdict layer at the bottom imports wavefunction inside the functions
that use it, to check the analytic states it is handed and to build the
oscillator states, so a process that only solves never loads the
root-isolation stack. The layer stays in this module because perfbench
calls oracle.oscillator_state and wraps oracle.validate_root and
oracle.validate_oscillator under these names. With
u = r^(l+1/2) v the regular solution v is smooth at the origin and satisfies
the self-adjoint equation

    (r^(2l+1) v')' + r^(2l) (2 eta r - 2a - omega^2 r^3) v = 0.

In x = sqrt(omega) r its weak form on [0, inf) is

    int x^(2l+1) v' w' + int (x^(2l+3) + 2 (a/sqrt(omega)) x^(2l)) v w
        = 2 (eta/omega) int x^(2l+1) v w.

The trial functions carry the Gaussian of the closed-form states
(Taut, J. Phys. A 27, 1045 (1994)): v = e^(-x^2/2) g, with g spanned by the
polynomials p_0..p_n orthonormal under the half-range weight
x^(2l+1) e^(-x^2). Integrating by parts (the ground-state transform) cancels
the trap term and leaves one symmetric matrix with the identity as mass
matrix,

    eta = omega eig[(l + 1) I + S/2 + (a/sqrt(omega)) C],
    S_ij = int x^(2l+1) e^(-x^2) p_i' p_j',
    C_ij = int x^(2l) e^(-x^2) p_i p_j,

so there is no wall and no truncated domain. With the Coulomb term off the
functions g are Laguerre polynomials in x^2, which the basis holds exactly
once n >= 2 node_target, so the solve is exact. The
p_j have no closed form: their recurrence comes from the discretized
Stieltjes procedure (Gautschi, Orthogonal Polynomials: Computation and
Approximation, OUP 2004, 2.2) on a Gauss-Legendre rule mapped to an interval
[0, X] that grows with the highest degree. The procedure runs the
three-term recurrence itself, with no reorthogonalization: the p_j stay
orthonormal under the discrete measure to 1.0e-14 for l <= 15. The same
pass carries p_j and p_j' at the nodes of that measure, which integrates S
and C from them, so the basis is built in one pass. The size n is chosen by
self-convergence (n against 1.5n).

The p_j do not depend on where the basis is cut, so the basis is nested:
the matrices of size n are the leading (n+1) x (n+1) blocks of those of any
larger size. The sizes therefore come in groups, each served by one basis
per l built at the group's top (BASIS_TOPS): one Gauss rule, and one build
of the recurrence with the pair (S, C). A solve forms one Galerkin matrix
per group it reaches, at the group's top, and every size of the group
solves its leading block. Within a group the eigenvalues can only fall from
one size to the next (Cauchy interlacing), so the self-convergence gap is a
one-sided bound.

Each size costs one symmetric eigensolve without eigenvectors
(numpy.linalg.eigvalsh), and the node count of a state is its Ritz index.
The radial operator is a Sturm-Liouville operator with a purely discrete
spectrum, and its k-th eigenfunction has exactly k zeros in (0, inf) by the
oscillation theorem (Zettl, Sturm-Liouville Theory, AMS 2005). The basis is
conforming, so by min-max the k-th Ritz value is an upper bound on the k-th
eigenvalue, and the basis is nested, so the Ritz values fall toward the
eigenvalues as the size grows. A self-converged k-th Ritz value is
therefore the k-th level, with k nodes: the node_target + 1 lowest Ritz
values are the states asked for, with no eta window to find them in and no
eigenfunction to sample. A solve returns only self-converged values: when
the sizes run out before two consecutive ones agree, it raises
NoEigenvalueError. The largest size has no larger one to check it, so at
most the 91 states of size 90 can be returned, and the ladder runs out
first from node_target 49 to 56 on (omega in [1e-4, 1e2], l <= 15). The
solver therefore serves as the arbiter for whether an analytically
constructed state is a genuine eigenstate.

Checked range: l <= 15 with node_target <= 12, and node_target = 40 with
the Coulomb term off. With the Coulomb term off, 4300 random cases with
omega log-uniform in [1e-4, 1e2], l <= 10 and node_target <= 12, and 1500
more with l <= 15, reproduce eta = omega (2k + l + 1) to 4.4e-13 relative,
and none fails to self-converge; at node_target = 40, omega in
{1e-4, 1e-2, 1, 1e2} and l in {0, 2, 5, 10, 15} give the exact levels to
2.3e-12, all self-converged. The 168 exact Coulomb-on states of the radial
equation with l in {3, 6, 10, 15} and 1 <= N <= 12 (node_target = N) come
out to 1.8e-14 at their Ritz indices. The index equals the sign changes of
the Ritz eigenfunctions of the accepted size on a uniform lattice in 1500
random solves (omega log-uniform in [1e-4, 1e2], l <= 15, node_target
<= 12 and one in three in 13..40, Coulomb term on and off), all
self-converged. tests/test_oracle.py holds a sample of each and rebuilds
the lattice eigenfunctions.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from numpy import linalg

from .model import RadialProblem

if TYPE_CHECKING:
    from .wavefunction import RadialState

# Galerkin sizes (highest degree n of p_j) tried in turn, each about 1.5
# times the last; the eigenvalues are accepted once two consecutive sizes
# agree to SELF_CONVERGENCE_RTOL
GALERKIN_SIZES = (12, 18, 27, 40, 60, 90, 135)
SELF_CONVERGENCE_RTOL = 1e-11
# the sizes come in groups, each served by the basis of its top: the 60
# exact states and the report accept by 40, and about 1 solve in 200 of the
# checked range climbs to 60
BASIS_TOPS = (40, 135)


class NoEigenvalueError(RuntimeError):
    """The Galerkin sizes ran out before two consecutive ones agreed on the
    states asked for."""


class _ShootingConfig(NamedTuple):
    node_target: int


class ShootingConfig(_ShootingConfig):
    """Eigensolve request: the node_target + 1 lowest states, with node
    counts 0..node_target.

    The name is historical and kept only because callers construct it.
    """

    __slots__ = ()

    def __new__(cls, node_target: int = 3):
        if node_target < 0:
            raise ValueError("node_target must be non-negative")
        return tuple.__new__(cls, (node_target,))


class Eigenvalue(NamedTuple):
    """One eigenvalue; convergence_width is the N-vs-1.5N self-convergence gap."""

    eta: float
    nodes: int
    convergence_width: float


class OracleResult(NamedTuple):
    """The requested states: eta, node count and convergence width of each."""

    eigenvalues: tuple[Eigenvalue, ...]

    @property
    def etas(self) -> list[float]:
        return [e.eta for e in self.eigenvalues]


def _gauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [-1, 1]: Golub & Welsch (Math.
    Comp. 23, 221, 1969) on half the spectrum, with the Newton polish of
    Hale & Townsend (SIAM J. Sci. Comput. 35, A652, 2013).

    The Legendre Jacobi matrix J, off-diagonal beta_k = k/sqrt(4k^2 - 1),
    has a zero diagonal, so J^2 splits into its even- and odd-index rows,
    and the odd-index block, tridiagonal with diagonal
    beta_(2i+1)^2 + beta_(2i+2)^2 and off-diagonal beta_(2i+2) beta_(2i+3)
    (beta_m = 0), has the squares of the floor(m/2) positive nodes as its
    eigenvalues; for odd m, 0 is a node too. One three-term pass of the
    Legendre P_k over the non-negative nodes gives P_m and P_(m-1), hence
    P_m' and, from the Legendre equation, P_m''. One Newton step on P_m
    moves each node by dx = P_m/P_m', and the weight is
    2 / ((1 - x^2) P_m'(x)^2) at the moved node, with P_m'(x - dx) taken as
    P_m' - dx P_m'' and 1 - (x - dx)^2 as (1 - x)(1 + x) + dx (2x - dx), so
    that neither waits on the rounding of x - dx. Mirroring makes the rule
    exactly symmetric.

    Against a 40-digit rule the nodes are within 1.1e-16 and the weights
    within 4.7e-14 relative at m = 200 and 1.4e-13 at m = 485, and
    sum w x^(2k) = 2/(2k + 1) holds to 1.5e-14 for m <= 64, 200 and 485.
    """
    half = m // 2
    k = np.arange(1.0, m + 1)
    # beta[i] = beta_(i+1), with beta_m = 0 closing the odd-index block
    beta = k / np.sqrt(4.0 * k * k - 1)
    beta[-1] = 0.0
    # the diagonal and the lower off-diagonal, the triangle eigvalsh reads
    jj = np.zeros((half, half))
    jj.flat[::half + 1] = beta[0:2 * half:2] ** 2 + beta[1:2 * half:2] ** 2
    jj.flat[half::half + 1] = beta[1:2 * half - 2:2] * beta[2:2 * half - 1:2]
    # the non-negative nodes, ascending
    x = np.empty(m - half)
    x[:m % 2] = 0.0
    np.sqrt(linalg.eigvalsh(jj), out=x[m % 2:])
    # P_(k-2), P_(k-1) -> P_(k-1), P_k for k = 2..m
    p0, p1 = np.ones_like(x), x
    for k in range(2, m + 1):
        p0, p1 = p1, ((2 * k - 1) / k) * x * p1 - ((k - 1) / k) * p0
    one_x2 = (1.0 - x) * (1.0 + x)
    dp = m * (p0 - x * p1) / one_x2
    ddp = (2.0 * x * dp - m * (m + 1) * p1) / one_x2
    dx = p1 / dp
    one_x2 += dx * (2.0 * x - dx)
    dp -= dx * ddp
    x -= dx
    w = 2.0 / (one_x2 * dp * dp)
    return (np.concatenate((-x[::-1][:half], x)),
            np.concatenate((w[::-1][:half], w)))


@functools.lru_cache
def _measure(top: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w of the discrete measure for the basis of degree
    up to top: the 3 top + 80 point Gauss-Legendre rule on [0, X],
    X = sqrt(4 top + 68) + 8, with the weights multiplied by e^(-x^2).

    Every integral the recurrence and matrices up to degree top need is
    int_0^inf x^k e^(-x^2) times a constant, k <= 2 top + 2l + 1. For l <= 15
    its integrand peaks at x = sqrt(k/2) < X - 8 and is below e^-100 of its
    peak by X; the rule reproduces Gamma((k + 1)/2)/2 to roundoff. Read-only,
    because the cache hands it to every caller.
    """
    x, w = _gauss(3 * top + 80)
    half = 0.5 * (math.sqrt(4.0 * top + 68.0) + 8.0)
    x = half * (1.0 + x)
    w *= half * np.exp(-x * x)
    for v in (x, w):
        v.setflags(write=False)
    return x, w


class _Basis(NamedTuple):
    """The basis p_0..p_top of one group top and l: the coefficients of its
    recurrence x p_j = b_{j+1} p_{j+1} + a_j p_j + b_j p_{j-1}, p_0 = 1/b_0,
    and its matrices S and C."""

    a: np.ndarray
    b: np.ndarray
    stiff: np.ndarray
    coulomb: np.ndarray


@functools.lru_cache
def _basis(top: int, l: int) -> _Basis:
    """The polynomials p_j, j = 0..top, orthonormal under x^(2l+1) e^(-x^2)
    on [0, inf): the recurrence coefficients a_0..a_{top-1}, b_0..b_top and
    the omega-independent matrices

        S = int x^(2l+1) e^(-x^2) p_i' p_j',  C = int x^(2l) e^(-x^2) p_i p_j
        over [0, inf),

    all from one pass over the discrete measure of _measure(top).

    The recurrence has no closed form. The discretized Stieltjes procedure
    (Gautschi, Orthogonal Polynomials: Computation and Approximation, OUP
    2004, 2.2) computes it by the three-term recurrence itself,

        b_{j+1} p_{j+1} = (x - a_j) p_j - b_j p_{j-1},
        b_{j+1} p_{j+1}' = (x - a_j) p_j' + p_j - b_j p_{j-1}',

    with a_j and b_{j+1} the inner products of x p_j p_j and of the new
    p_{j+1} with itself under the weights lambda = w x^(2l+1) of the
    measure. p_j and p_j' share one array, so that one step advances both,
    and they stay unscaled. No vector is orthogonalized against the earlier
    ones: the Gram matrix of the p_j under lambda is the identity to 1.0e-14
    for every l <= 15 at both BASIS_TOPS (tests/test_oracle.py). At the end
    the rows are scaled in place, p_j' by sqrt(lambda) and p_j by
    sqrt(lambda/x), and S and C are their Gram products, so both are exactly
    symmetric. The first n and n + 1 coefficients and the leading
    (n+1) x (n+1) blocks of S and C are the basis of any size n <= top.
    Read-only, because the cache hands it to every caller.
    """
    x, w = _measure(top)
    lam = w * x ** (2 * l + 1)
    lam_x = lam * x
    a = np.empty(top)
    b = np.empty(top + 1)
    # pp[j, 0] = p_j and pp[j, 1] = p_j' at the nodes
    pp = np.empty((top + 1, 2, len(x)))
    b[0] = math.sqrt(lam.sum())
    pp[0, 0] = 1.0 / b[0]
    pp[0, 1] = 0.0
    for j in range(top):
        p = pp[j, 0]
        a[j] = lam_x @ (p * p)
        z = pp[j + 1]
        np.multiply(pp[j], x - a[j], out=z)
        if j:
            z -= b[j] * pp[j - 1]
        z[1] += p
        b[j + 1] = math.sqrt(lam @ (z[0] * z[0]))
        z /= b[j + 1]
    p, dp = pp[:, 0], pp[:, 1]
    root = np.sqrt(lam)
    dp *= root
    root /= np.sqrt(x)
    p *= root
    basis = _Basis(a, b, dp @ dp.T, p @ p.T)
    for v in basis:
        v.setflags(write=False)
    return basis


def _top(n: int) -> int:
    """The top of the group of size n, whose basis serves it."""
    return next(t for t in BASIS_TOPS if t >= n)


def solve_eigen(problem: RadialProblem, config: ShootingConfig | None = None,
                coulomb_on: bool = True) -> OracleResult:
    """Lowest eigenvalues (node counts 0..node_target) of the radial problem.

    Computes the node_target + 1 lowest eigenvalues of the symmetric
    Galerkin matrix omega [(l + 1) I + S/2] + a sqrt(omega) C in the
    Gaussian-weighted half-range basis (see the module docstring), one
    eigensolve per size in GALERKIN_SIZES, until the eigenvalues agree
    between consecutive sizes (the gap becomes each eigenvalue's
    convergence_width). The matrix is formed once per group (BASIS_TOPS),
    at the group's top, from the basis built there, and each size solves
    its leading (n+1) x (n+1) block. The k-th lowest value has
    k nodes (the Ritz index; see the module docstring). Raises
    NoEigenvalueError, with the count, the last size and its relative gap,
    when the last size is reached without two consecutive sizes agreeing;
    more than 91 states can never agree, as size 135 is the last.

    Checked range: l <= 15 with node_target <= 12, and node_target = 40
    with the Coulomb term off (see the module docstring).
    """
    if config is None:
        config = ShootingConfig()
    w, l = problem.omega, problem.l
    coul_scale = problem.coulomb_a * math.sqrt(w) if coulomb_on else 0.0
    count = config.node_target + 1
    prev = None
    top = -1
    for n in GALERKIN_SIZES:
        if n > top:
            # the Galerkin matrix of the group, whose leading blocks are
            # those of its sizes:
            # eta = omega [(l + 1) I + S/2 + (a/sqrt(omega)) C]
            top = _top(n)
            basis = _basis(top, l)
            a = basis.stiff * (0.5 * w)
            a += basis.coulomb * coul_scale
            # a is a new C-ordered array, so ravel is a view and
            # [::top + 2] its diagonal
            a.ravel()[::top + 2] += (l + 1) * w
        m = n + 1
        etas = linalg.eigvalsh(a[:m, :m])[:count].tolist()
        # consecutive sizes keep the same number of values only once both
        # hold all count of them
        if prev is not None and len(prev) == len(etas):
            gaps = [abs(eta - p) for eta, p in zip(etas, prev)]
        else:
            gaps = [math.inf] * len(etas)
        if all(gap <= SELF_CONVERGENCE_RTOL * abs(eta)
               for eta, gap in zip(etas, gaps)):
            break
        prev = etas
    else:
        worst = max(gap / abs(eta) for eta, gap in zip(etas, gaps))
        raise NoEigenvalueError(
            f"{count} states not self-converged by Galerkin size {n}: "
            f"relative gap {worst:.1e}")

    return OracleResult(tuple(
        Eigenvalue(eta, k, max(gap, 4 * math.ulp(eta)))
        for k, (eta, gap) in enumerate(zip(etas, gaps))))


# ---------------------------------------------------------------------------
# Root validation against the oracle
# ---------------------------------------------------------------------------

CONFIRMED = "CONFIRMED"
NEAR = "NEAR"
DISCREPANT = "DISCREPANT"


class ValidationRecord(NamedTuple):
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


def _record(state: RadialState, result: OracleResult,
            res: float) -> ValidationRecord:
    """The verdict on one analytic state against the oracle's nearest eta."""
    sol = state.solution
    best = min(result.eigenvalues, key=lambda e: abs(e.eta - sol.eta))
    return ValidationRecord(
        n=sol.n, l=sol.l, t_star=sol.t_star,
        eta_analytic=sol.eta,
        eta_oracle=best.eta,
        oracle_nodes=best.nodes,
        abs_delta=abs(sol.eta - best.eta),
        residual=res,
        effective_degree=sol.effective_degree,
        classification=classify(sol.eta, best.eta),
    )


def validate_root(state: RadialState) -> ValidationRecord:
    """Compare a normalized analytic state at a determinant root with the oracle.

    eta_analytic = (n+l+1)/t_star^2 is the state's own eta; the oracle solves
    the same (omega, l) problem with the Coulomb term on, for the states with
    up to max(6, n) nodes (a state of degree n has at most n), and reports
    its nearest eigenvalue. The classification thresholds (1e-6 / 1e-2 relative)
    separate machine-level agreement from structural disagreement; they are
    solver policy, not physics.
    """
    from .wavefunction import residual

    result = solve_eigen(RadialProblem(omega=state.omega, l=state.l),
                         ShootingConfig(node_target=max(6, state.solution.n)),
                         coulomb_on=True)
    return _record(state, result, residual(state))


def oscillator_state(k: int, l: int) -> RadialState:
    """Exact 2D-oscillator polynomial state at omega = 1 (Coulomb off).

    With the interaction removed the series machinery terminates at every
    frequency: odd coefficients vanish and A_{p+2} = -gamma_{p+1} A_p with
    the recurrence factors. Degree n = 2k gives eta = (2k + l + 1).
    """
    from .wavefunction import assemble_polynomial, normalize

    n = 2 * k
    a = [1.0, 0.0]
    for p in range(max(0, n - 1)):
        gamma = 2.0 * (n - p) * (p + 1) * (p + 1 + 2 * l)  # alpha = 2l at omega = 1
        a.append(-gamma * a[p])  # delta' = 0 once the Coulomb term is off
    a = a[:n + 1]
    sol = assemble_polynomial(n, l, 1.0, A_chain=a)
    return normalize(sol)


def oscillator_spectrum(l: int, node_target: int = 3) -> OracleResult:
    """The oracle's lowest levels of the Coulomb-off problem at omega = 1."""
    return solve_eigen(RadialProblem(omega=1.0, l=l),
                       ShootingConfig(node_target=node_target),
                       coulomb_on=False)


def validate_oscillator(k: int, l: int,
                        spectrum: OracleResult) -> ValidationRecord:
    """Synthetic cross-check: both solvers on the exactly solvable problem.

    spectrum is the oracle's oscillator_spectrum(l, node_target) with
    node_target >= k, which several checks at one l can share.
    """
    from .wavefunction import residual

    if k >= len(spectrum.eigenvalues):
        raise ValueError(f"the spectrum holds no level with {k} nodes")
    state = oscillator_state(k, l)
    return _record(state, spectrum, residual(state, coulomb_a=0.0))
