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
once n >= 2 node_target, so the solve is exact.

No integral is evaluated: in the polynomials q_j orthonormal under
mu_l = x^(2l) e^(-x^2) the Galerkin problem is a tridiagonal pencil. With
the monic recurrence P_(j+1) = (x - alpha_j) P_j - beta_j P_(j-1) of mu_l,
whose Jacobi matrix J has diagonal alpha_j and off-diagonal sqrt(beta_j),
the weight x mu_l gives the q_j the Gram matrix J, C gives them the
identity, and S the tridiagonal

    S^q_jj = 2 (j alpha_j + alpha_0 + ... + alpha_(j-1)),
    S^q_(j+1,j) = 2 j sqrt(beta_(j+1)),

because (x^(2l+1) e^(-x^2) q_j')' is x^(2l) e^(-x^2) times a polynomial of
degree j + 1. With the Cholesky factor J = L L^T (L lower bidiagonal,
diagonal d_j and subdiagonal e_j) the p_j are L^-1 q, so that

    S = L^-1 S^q L^-T,  C = L^-1 L^-T,

and L^-1 is lower triangular, so the p_j do not depend on where the basis
is cut. S^q = D D^T, where D holds the coefficients of the q_j' in the p_i:
D_(j,j-1) = j/e_(j-1) and D_(j,j-2) = 2 e_(j-2) e_(j-1) d_(j-1). S and C are
therefore the Gram products of L^-1 D and L^-1. The inverse of a bidiagonal
matrix is semiseparable, (L^-1)_ij = P_i/(P_j d_j) for i >= j, so both
products reduce to prefix sums along the diagonal (see _basis): O(n^2) work,
exactly symmetric, and no linalg or BLAS call, whose code a forked process
would have to fault in.

J has no closed form. The module table holds the first 200 coefficient
pairs of the half-range Hermite weight e^(-x^2), each the float nearest the
Chebyshev algorithm on its exact moments Gamma((k + 1)/2)/2 (Gautschi,
Orthogonal Polynomials: Computation and Approximation, OUP 2004, 2.1). A
zero-shift Christoffel step (Galant, Math. Comp. 25, 111 (1971); Gautschi
2.4), J = L L^T -> L^T L, turns the recurrence of a weight into that of x
times the weight, one pair shorter: 2l steps give mu_l, and one more
factors mu_l's J into the L above and gives the recurrence of the p_j. A
table of N pairs thus reaches l <= (N - top - 1)/2 at basis degree top:
l <= 79 at degree 40 and l <= 32 at degree 135. A solve that needs a basis
past that raises ValueError. The size n is chosen by self-convergence
(n against 1.5n).

The p_j do not depend on where the basis is cut, so the basis is nested:
the matrices of size n are the leading (n+1) x (n+1) blocks of those of any
larger size. The sizes therefore come in groups, each served by one basis
per l built at the group's top (BASIS_TOPS). A solve forms one Galerkin
matrix per group it reaches, at the group's top, and every size of the
group solves its leading block. Within a group the eigenvalues can only
fall from one size to the next (Cauchy interlacing), so the
self-convergence gap is a one-sided bound.

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
more with l <= 15, reproduce eta = omega (2k + l + 1) to 2.5e-13 relative,
and none fails to self-converge; at node_target = 40, omega in
{1e-4, 1e-2, 1, 1e2} and l in {0, 2, 5, 10, 15} give the exact levels to
3.9e-12, all self-converged. The 168 exact Coulomb-on states of the radial
equation with l in {3, 6, 10, 15} and 1 <= N <= 12 (node_target = N) come
out to 1.1e-14 at their Ritz indices. The index equals the sign changes of
the Ritz eigenfunctions of the accepted size on a uniform lattice in 1500
random solves (omega log-uniform in [1e-4, 1e2], l <= 15, node_target
<= 12 and one in three in 13..40, Coulomb term on and off), all
self-converged. tests/test_oracle.py holds a sample of each and rebuilds
the lattice eigenfunctions.
"""

from __future__ import annotations

import binascii
import functools
import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from numpy import linalg

from .model import COULOMB_A, RadialProblem

if TYPE_CHECKING:
    from .wavefunction import PolynomialSolution, RadialState

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


class _ReachError(ValueError):
    """The basis table does not reach the l of a problem at a group top."""


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


@functools.lru_cache
def _hermite() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """alpha_0..alpha_199 and beta_0..beta_199 of the monic recurrence
    P_(k+1) = (x - alpha_k) P_k - beta_k P_(k-1) of e^(-x^2) on [0, inf),
    beta_0 its mass sqrt(pi)/2, decoded from _HERMITE on first use. Tuples
    of Python floats, for the scalar steps of _basis and because the cache
    hands them to every caller."""
    # a dtype not parsed from a string such as "<f8" keeps a solve off
    # C-library pages that nothing else in it touches
    table = np.frombuffer(binascii.a2b_base64(_HERMITE),
                          np.dtype(np.float64).newbyteorder("<")).tolist()
    half = len(table) // 2
    return tuple(table[:half]), tuple(table[half:])


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

    from the pencil of the module docstring.

    Each zero-shift Christoffel step factors the Jacobi matrix of the
    current weight in squares, u_0 = alpha_0, v_k = beta_(k+1)/u_k and
    u_(k+1) = alpha_(k+1) - v_k (u_k = d_k^2, v_k = e_k^2), and forms the
    recurrence of x times the weight, alpha_k = u_k + v_k,
    beta_(k+1) = v_k u_(k+1) and the mass beta_0 u_0. The first 2l steps
    take _hermite() to mu_l; the last leaves mu_l's factor in u and v and
    the recurrence of the p_j, a_k = alpha_k and b_k = sqrt(beta_k). Output
    pair k of a step reads input pairs up to k + 1 only, and entry (i, j)
    of S and C the factor up to max(i, j) only, so the first n and n + 1
    coefficients and the leading (n+1) x (n+1) blocks of S and C are the
    basis of any size n <= top, bit for bit, whichever top built them.
    Raises ValueError when l is past the table's reach at top. Read-only,
    because the cache hands it to every caller.
    """
    a, b = _hermite()
    reach = (len(a) - top - 1) // 2
    if l > reach:
        raise _ReachError(
            f"l = {l} is past the oracle's basis table at Galerkin size "
            f"{top}: it reaches l <= {reach}")
    a, b = a[:top + 2 * l + 1], b[:top + 2 * l + 1]
    for _ in range(2 * l + 1):
        u = [a[0]]
        v = []
        for ak, bk in zip(a[1:], b[1:]):
            v.append(bk / u[-1])
            u.append(ak - v[-1])
        a = [uk + vk for uk, vk in zip(u, v)]
        b = [b[0] * u[0], *(vk * uk for vk, uk in zip(v, u[1:]))]
    # L^-1 is semiseparable: (L^-1)_ij = P_i/(P_j d_j) for i >= j, with
    # P_0 = 1 and P_k = -P_(k-1) e_(k-1)/d_k. Column k - 1 of L^-1 D is
    # g_k/P_k at row k and h_k/P_k below it, g_k = k/(d_k e_(k-1)) and
    # h_k = g_k - 2 d_k e_(k-1). So, with m = min(i, j),
    #   C_ij = P_i P_j W_m,  W_m = sum over k <= m of 1/(P_k^2 u_k),
    #   S_ij = P_i P_j Y_m (i != j),  Y_m = V_m + g_m h_m/P_m^2,
    #   S_mm = P_m^2 V_m + g_m^2,  V_m = sum over k < m of h_k^2/P_k^2
    p, w, y, diag = [1.0], [1.0 / u[0]], [0.0], [0.0]
    total = 0.0  # V_k
    for k in range(1, top + 1):
        de = math.sqrt(u[k] * v[k - 1])  # d_k e_(k-1)
        p.append(-p[-1] * de / u[k])
        p2 = p[k] * p[k]
        g = k / de
        h = g - 2.0 * de
        w.append(w[-1] + 1.0 / (p2 * u[k]))
        y.append(total + g * h / p2)
        diag.append(total * p2 + g * g)
        total += h * h / p2
    index = np.arange(top + 1)
    index = np.minimum.outer(index, index)
    pp = np.multiply.outer(p, p)
    stiff = pp * np.array(y)[index]
    stiff.ravel()[::top + 2] = diag
    basis = _Basis(np.array(a), np.sqrt(b), stiff, pp * np.array(w)[index])
    for array in basis:
        array.setflags(write=False)
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
    more than 91 states can never agree, as size 135 is the last. Raises
    ValueError, naming the limit, when a group it reaches lies past the
    basis table's reach in l: l <= 79 at size 40, l <= 32 at size 135.

    Checked range: l <= 15 with node_target <= 12, and node_target = 40
    with the Coulomb term off (see the module docstring).
    """
    if config is None:
        config = ShootingConfig()
    w, l = problem.omega, problem.l
    coul_scale = COULOMB_A * math.sqrt(w) if coulomb_on else 0.0
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


def _record(sol: PolynomialSolution, result: OracleResult,
            res: float) -> ValidationRecord:
    """The verdict on one analytic state against the oracle's nearest eta."""
    best = min(result.eigenvalues, key=lambda e: abs(e.eta - sol.eta))
    return ValidationRecord(
        n=sol.n, l=sol.l, t_star=sol.t_star,
        eta_analytic=sol.eta,
        eta_oracle=best.eta,
        oracle_nodes=best.nodes,
        abs_delta=abs(sol.eta - best.eta),
        residual=res,
        effective_degree=sol.degree,
        classification=classify(sol.eta, best.eta),
    )


def validate_root(sol: PolynomialSolution) -> ValidationRecord:
    """Compare the chain state at a determinant root with the oracle.

    eta_analytic = (n+l+1)/t_star^2 is the state's own eta; the oracle solves
    the same (omega, l) problem with the Coulomb term on, for the states with
    up to max(6, n) nodes (a state of degree n has at most n), and reports
    its nearest eigenvalue. The classification thresholds (1e-6 / 1e-2 relative)
    separate machine-level agreement from structural disagreement; they are
    solver policy, not physics. The verdict never reads a norm, so the state
    is taken as assembled.
    """
    from .wavefunction import residual

    result = solve_eigen(RadialProblem(omega=sol.omega, l=sol.l),
                         ShootingConfig(node_target=max(6, sol.n)),
                         coulomb_on=True)
    return _record(sol, result, residual(sol))


def oscillator_state(k: int, l: int) -> RadialState:
    """Exact 2D-oscillator polynomial state at omega = 1 (Coulomb off).

    With the interaction removed the radial recurrence of the model
    docstring terminates at every frequency: odd coefficients vanish and,
    with A_p = p! (2l+1)_p y_p, A_{q+1} = -2q(n+1-q)(q+2l) A_{q-1}, the
    factor being the sum of the parts of termination._ode_factor. The state
    is the normalized Laguerre polynomial y = L_k^(l)(r^2)/L_k^(l)(0) of
    degree n = 2k, with eta = 2k + l + 1.
    """
    from .termination import _ode_factor
    from .wavefunction import assemble_polynomial, normalize

    n = 2 * k
    a = [1.0, 0.0]
    for q in range(1, n):
        # delta' = 0 once the Coulomb term is off
        a.append(-sum(_ode_factor(n, l, q)) * a[q - 1])
    a = a[:n + 1]
    sol = assemble_polynomial(n, l, 1.0, A_chain=a)
    return normalize(sol)


def oscillator_spectrum(l: int) -> OracleResult:
    """The oracle's lowest levels of the Coulomb-off problem at omega = 1,
    up to ShootingConfig's default node_target."""
    return solve_eigen(RadialProblem(omega=1.0, l=l), coulomb_on=False)


def validate_oscillator(k: int, l: int,
                        spectrum: OracleResult) -> ValidationRecord:
    """Synthetic cross-check: both solvers on the exactly solvable problem.

    spectrum is the oracle's oscillator_spectrum(l), which several checks
    at one l can share; it must hold the level with k nodes.
    """
    from .wavefunction import residual

    if k >= len(spectrum.eigenvalues):
        raise ValueError(f"the spectrum holds no level with {k} nodes")
    sol = oscillator_state(k, l).solution
    return _record(sol, spectrum, residual(sol, coulomb_on=False))


# ---------------------------------------------------------------------------
# The recurrence table of _hermite
# ---------------------------------------------------------------------------

# alpha_0..alpha_199, then beta_0..beta_199, of e^(-x^2) on [0, inf), each
# the float nearest the Chebyshev algorithm on the exact moments at 900
# digits, as little-endian float64 in base64
_HERMITE = (
    "bZtCUNcN4j/EAxpKLqHvPywhTshSk/Q/Y6gNr0Fl+D/mNh8Y3q77P0s28wKynf4/"
    "bt9hRhylAEAl3spqv+EBQD+Us2DLCQNA/ehzDdIgBECoc3++dykFQIn4yr/BJQZA"
    "Np/9UUYXB0BpUpN2S/8HQJK5Horb3ghAUlnzhdO2CUBrLnsm7YcKQDtBh1LGUgtA"
    "Tagjn+YXDEA4grl+w9cMQJ4/8nrDkg1A1iC3ukBJDkDJiwICi/sOQKb2F0zpqQ9A"
    "/MXgi00qEEA61Hu77H0QQKIEd/frzxBAcvQrmWIgEUAV0LLeZW8RQGYupSwJvRFA"
    "J2LpRV4JEkCFqE97dVQSQMK7bNRdnhJAjf/UMiXnEkCMR6Nw2C4TQLAsCnuDdRNA"
    "gRyMaTG7E0C/oVqS7P8TQM87R5y+QxRA5jyejrCGFEC3qTXfysgUQCpE7n4VChVA"
    "mDnb5JdKFUAL8DwYWYoVQPfPdLlfyRVARWYSCrIHFkAwoBX0VUUWQIsFfhBRghZA"
    "ZZQ7rai+FkAVIJPSYfoWQNS+BUiBNRdAD9PImAtwF0B3idoXBaoXQK0uveNx4xdA"
    "y33i6VUcGEAi887ptFQYQGY+/HeSjBhA7R6BAPLDGEA2P4TJ1voYQLgGf/VDMRlA"
    "os5UhTxnGUDqbEJaw5wZQIaeqTfb0RlA1Xu7xIYGGkCkzwSOyDoaQNjf3gajbhpA"
    "OPbGihiiGkAdvp5eK9UaQMRY17HdBxtAYdyInzE6G0BkyXcvKWwbQCTdCVfGnRtA"
    "Z4gr+grPG0BDMyfs+P8bQGldb/CRMBxAhJJcu9dgHEDqFODyy5AcQNENLC9wwBxA"
    "0gBS+8XvHEDmMNjVzh4dQM2WRjGMTR1A7/urdP97HUAawRv8KaodQNLNJBkN2B1A"
    "TBtCE6oFHkA9RUUoAjMeQL6Cu4wWYB5A82FNbOiMHkC6mhnqeLkeQBhGCyHJ5R5A"
    "28IrJNoRH0BsivD+rD0fQDA0hbVCaR9AfeERRZyUH0AJSP6jur8fQBeNMcKe6h9A"
    "HpCnxKQKIEC4YHju3R8gQJTtbk37NCBATCugTf1JIEDnhmtY5F4gQGn+ktSwcyBA"
    "jShSJmOIIEBCOnSv+5wgQJIXac96sSBA4HxZ4+DFIEBsTDpGLtogQJIL31Bj7iBA"
    "SpoLWoACIUD1LoW2hRYhQOafIrlzKiFAbwPcsko+IUDhrtnyClIhQEWcgsa0ZSFA"
    "Sj6KeUh5IUBUyf1VxowhQFT4UKQuoCFAm1Nqq4GzIUCN/66wv8YhQMkYDvjo2SFA"
    "AaMLxP3sIUCED8tV/v8hQChgGe3qEiJAHOt2yMMlIkDCwyAliTgiQKvMGT87SyJA"
    "enYzUdpdIkBALxaVZnAiQNGFSUPggiJAOwQ8k0eVIkCLxEq7nKciQL3CyPDfuSJA"
    "r+4FaBHMIkC1AFZUMd4iQFUTF+g/8CJAmwS4VD0CI0A8ob7KKRQjQMybzXkFJiNA"
    "CVKqkNA3I0A8YkI9i0kjQJMSsaw1WyNAP4xEC9BsI0AP7IKEWn4jQCsqL0PVjyNA"
    "fdpNcUChI0BKxyk4nLIjQGVnWMDowyNAXjG+MSbVI0DyzJKzVOYjQAskZWx09yNA"
    "bFQfgoUIJEA+gwoaiBkkQJWT0lh8KiRA5sCJYmI7JECSHqxaOkwkQE79ImQEXSRA"
    "fjdIocBtJEBNZekzb34kQFn5Sj0QjyRA1kYr3qOfJEDWccU2KrAkQIdK1GajwCRA"
    "HRSVjQ/RJEAKOMrJbuEkQD3mvTnB8SRAB6NE+wYCJUA2w78rQBIlQArXH+hsIiVA"
    "lgTnTI0yJUACUit2oUIlQE7gmH+pUiVABhd0hKViJUBmwZuflXIlQGYdi+t5giVA"
    "Ht1bglKSJUD0Gsh9H6IlQPlALPfgsSVA3eOIB5fBJUDhkYTHQdElQBmWbU/h4CVA"
    "bbA7t3XwJUCbwpEW//8lQJ1yv4R9DyZAyMLCGPEeJkDgn0npWS4mQIVlswy4PSZA"
    "MlkSmQtNJkAXHC2kVFwmQBsUgEOTayZAQcw+jMd6JkCvTFWT8YkmQJlqaW0RmSZA"
    "TRDcLieoJkCPfcrrMrcmQIuAD7g0xiZAhadEpyzVJkCMa8PMGuQmQE5Upjv/8iZA"
    "TBXKBtoBJ0CXpM5AqxAnQGvvtJH4W+w/+25sJJ9Bxz/zwotaRdjVP4+jmWOmKOA/"
    "rAV15c1y5T/lPomi6MHqP0budOadCfA/lq0FieCy8j++qQfpf1z1P32NtgRcBvg/"
    "XZXUKGKw+j9sTS+ihlr9P+SUid1gAgBAModCFIdXAUADWV8UtKwCQPPw7X7mAQRA"
    "xJ25TR1XBUBs7ty4V6wGQA/MQSWVAQhA7UG5GNVWCUDJca8xF6wKQOYlRCFbAQxA"
    "RxkDp6BWDUC6SLyN56sOQAPMk9SXABBAdTcNajyrEEAA3pN34VURQKFNx++GABJA"
    "/ewxxyyrEkCCB/Tz0lUTQJ/pf215ABRAKi5jLCCrFED5Vhoqx1UVQHB/7GBuABZA"
    "Z3zNyxWrFkAzH0VmvVUXQCqbWixlABhA1kSDGg2rGEBTDJQttVUZQPs0tWJdABpA"
    "2eVXtwWrGkDiQS0prlUbQI/GHrZWABxAk7tHXP+qHEAaiO8ZqFUdQNjJhO1QAB5A"
    "TBCZ1fmqHkDDI93QolUfQNXhDu8lACBAiGUgfnpVIECWViEVz6ogQMUemrMjACFA"
    "/1wcWXhVIUCtBkIFzaohQOShrLchACJAJZUEcHZVIkANivgty6oiQIzgPPEfACNA"
    "vjCLuXRVI0CW2aGGyaojQNyaQ1geACRAQTk3LnNVJEBOK0cIyKokQEpOQeYcACVA"
    "I6L2x3FVJUClCzutxqolQFMc5ZUbACZAP9/NgXBVJkByqtBwxaomQFr0ymIaACdA"
    "5CycV29VJ0DXmSVPxKonQDU2SkkZAChAQ5TuRW5VKED9wfhEw6ooQMUvUEYYAClA"
    "D5ndSW1VKUDf7opPwqopQOxDQ1cXACpAS7ryYGxVKkB0coZswaoqQJJ77HkWACtA"
    "68QTiWtVK0BlEOyZwKorQPjlZawVACxACIhywGpVLECL6APWv6osQPOeDO0UAC1A"
    "xd5/BWpVLUDTblEfv6otQA2hdToUAC5A3UrhVmlVLkD9vYl0vqouQMzBZJMTAC9A"
    "B41os2hVL0Dyv4vUvaovQGmvYnsJADBAZWYGDbQqMEB/4yyfXlUwQAcw0jEJgDBA"
    "5n3yxLOqMECZJYpYXtUwQFOklewIADFALJoRgbMqMUB7yPoVXlUxQD4QTqsIgDFA"
    "mXAIQbOqMUBzBSfXXdUxQBoGp20IADJACMSFBLMqMkCtqcCbXVUyQFI5VTMIgDJA"
    "CQxBy7KqMkCn0IFjXdUyQNNKFfwHADNAH1L5lLIqM0Ap0SsuXVUzQMvEqscHgDNA"
    "WTt0YbKqM0DgU4b7XNUzQHc935UHADRAkzZ9MLIqNEBojF7LXFU0QE2agWYHgDRA"
    "LcnkAbKqNED6joadXNU0QCduZTkHADVAL/V/1bEqNUAXvtRxXFU1QP9tYg4HgDVA"
    "tLQnq7GqNUBITCNIXNU1QKv4U+UGADZAU4e4grEqNkDZzk8gXFU2QKiuGL4GgDZA"
    "qA4SXLGqNkDu3jr6W9U2QHIXkpgGADdAxrcWN7EqN0DNxsfVW1U3QH5SpHQGgDdA"
    "oW+rE7GqN0CSOdyyW9U3QAjSNVIGADhA2mC38bAqOEDOE2CRW1U4QGAeLzEGgDhA"
    "lbkj0bCqOEDKIz1xW9U4QIOgehEGADlAR3jbsbAqOUBs+F5SW1U5QPhyBPMFgDlA"
    "dD7Lk7CqOUDJtbI0W9U5QBw4utUFADpAqyjhdrAqOkCs7iYYW1U6QC71irkFgDpA"
    "+KoMW7CqOkBtgqv8WtU6QHDxZp4FADtASHE+QLAqO0CDfjHiWlU7QOGYP4QFgDtA"
    "OENoJrCqO0BfA6vIWtU7QBViB2sFADxA6+p8DbAqPEAvLAuwWlU8QNq2sVIFgDxA"
    "eB5w9a+qPEAX+UWYWtU8QDffMjsFAD1As2s23q8qPUC0O1CBWlU9QJ7ufyQFgD1A"
    "ASbFx6+qPUCJhR9rWtU9QPGyjg4FAD5A8VUSsq8qPkAxGKpVWlU+QEClVfkEgD5A"
    "fqoUna+qPkAX1+ZAWtU+QPXby+QEAD9AsWvDiK8qP0CLOs0sWlU/QFz+6NAEgD9A"
    "jm4Wda+qP0ARRFUZWtU/QKac0l4CAEBADwUDsVcVQEDjuTsDrSpAQHSafFUCQEBA"
    "vIbFp1dVQEBeXxb6rGpAQJ4Fb0wCgEBAXlvPnleVQEA="
)
