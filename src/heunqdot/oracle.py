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
[0, X] that grows with the highest degree. The two rules, one per group
top, are module constants: each node and weight is the float nearest a
40-digit rule, so no process solves for them. The procedure runs the
three-term recurrence itself, with no reorthogonalization: the p_j stay
orthonormal under the discrete measure to 1.0e-14 for l <= 15. The same
pass carries p_j and p_j' at the nodes of that measure, which integrates S
and C from them, so the basis is built in one pass. The size n is chosen by
self-convergence (n against 1.5n).

The p_j do not depend on where the basis is cut, so the basis is nested:
the matrices of size n are the leading (n+1) x (n+1) blocks of those of any
larger size. The sizes therefore come in groups, each served by one basis
per l built at the group's top (BASIS_TOPS): one tabulated Gauss rule, and
one build of the recurrence with the pair (S, C). A solve forms one
Galerkin matrix per group it reaches, at the group's top, and every size of
the group solves its leading block. Within a group the eigenvalues can only
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

import binascii
import functools
import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from numpy import linalg

from .model import COULOMB_A, RadialProblem

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


@functools.lru_cache
def _measure(top: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w of the discrete measure for the basis of degree
    up to top: the m = 3 top + 80 point Gauss-Legendre rule on [0, X],
    X = sqrt(4 top + 68) + 8, with the weights multiplied by e^(-x^2).

    The rule on [-1, 1] is _GAUSS_HALVES[top] mirrored: its non-negative
    nodes and their weights, each the float nearest a 40-digit rule
    (tests/test_oracle.py pins them bit for bit), decoded here on first use.
    Every integral the recurrence and matrices up to degree top need is
    int_0^inf x^k e^(-x^2) times a constant, k <= 2 top + 2l + 1. For l <= 15
    its integrand peaks at x = sqrt(k/2) < X - 8 and is below e^-100 of its
    peak by X; the rule reproduces Gamma((k + 1)/2)/2 to roundoff. Read-only,
    because the cache hands it to every caller.
    """
    m = 3 * top + 80
    k = m - m // 2  # the non-negative nodes
    # slices, and a dtype not parsed from a string such as "<f8": both
    # keep a solve off C-library pages that nothing else in it touches
    table = np.frombuffer(binascii.a2b_base64(_GAUSS_HALVES[top]),
                          np.dtype(np.float64).newbyteorder("<"))
    nodes, weights = table[:k], table[k:]
    # for odd m the half starts at the node 0, which is not mirrored
    x = np.concatenate((-nodes[m % 2:][::-1], nodes))
    w = np.concatenate((weights[m % 2:][::-1], weights))
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
        effective_degree=sol.degree,
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
    state = oscillator_state(k, l)
    return _record(state, spectrum, residual(state, coulomb_on=False))


# ---------------------------------------------------------------------------
# The Gauss-Legendre rules of _measure
# ---------------------------------------------------------------------------

# for each group top, the non-negative half of the 3 top + 80 point
# Gauss-Legendre rule on [-1, 1] (ascending nodes, then their weights), each
# value the float nearest a 40-digit one from Newton's method on P_m, as
# little-endian float64 in base64
_GAUSS_HALVES = {
    40: (
        "ecnywWwLgD9QbMEPohCYP8/2kkYFDaQ//++h6XYQrD/PWjGBEgmyP/2zRV/HCLY/"
        "qe8luBkHuj9ABjJLyQO+Py7jDflK/8A/jHt30p/7wj8SyQs/w/bEP1jqMl+V8MY/"
        "VfOHaPboyD/ua9inxt/KPz9ZIoPm1Mw/p7GQezbIzj/HDbuXy1zQP47rIq50VNE/"
        "iVlF8AZL0j+g9u3eckDTP4XvZw2pNNQ/Vyt2Ipon1T8OP0rZNhnWPx8YegJwCdc/"
        "/k70hDb41z8JEvNee+XYP66Z7aYv0dk/ixaIjES72j+KCoJZq6PbP+P9onJVitw/"
        "RIGlWDRv3T82biCpOVLePzhXbh9XM98/dYzJSj8J4D/0vo8C0XfgP4ZzCcRZ5eA/"
        "5nTdrNJR4T9pa8jrNL3hP1uNCsF5J+I/lTXUfpqQ4j96WbGJkPjiP5HX81hVX+M/"
        "FJgcd+LE4z/TeEOCMSnkP/L9fSw8jOQ/9sBEPPzt5D/Wl9eMa07lP7htoA6EreU/"
        "KseUxz8L5j+065XTmGfmP7muz2SJwuY/rNEVxAsc5z/F+T9RGnTnP2MzhIOvyuc/"
        "e/3P6cUf6D9f1x8rWHPoP4VL1QZhxeg/t3ELVdsV6T+L4+kGwmTpP8Id9iYQsuk/"
        "k0lj2cD96T/IaGBcz0fqP9DfZAg3kOo/61h7UPPW6j/M+4rC/xvrPwn1ngdYX+s/"
        "3Ugs5Peg6z/f7FU42+DrP2ckLwD+Huw/axv8U1xb7D/Wu3Bo8pXsP1q57Y68zuw/"
        "9s+7NbcF7T9oMUXo3jrtPw4eTU8wbu0/oKUlMaif7T9/jONxQ8/tP15SkBP//O0/"
        "J1daNtgo7j84G8MYzFLuPzCYyxfYeu4/tK8er/mg7j/WrTl5LsXuPwLdki905+4/"
        "2ym+qsgH7z/f1Y/iKSbvP9M4Pe6VQu8/YpJ7BAtd7z+B8Jx7h3XvP700q8kJjO8/"
        "LE6BhJCg7z8i1+JhGrPvP5qAkjemw+8/+Uto+zLS7z8uPWrDv97vP42L78VL6e8/"
        "6ebqWdbx7z/M2tz3XvjvP3Datz7l/O8/CLKQJ2n/7z9jYZ4+VwuQP63/ohlVCpA/"
        "U6Xl31AIkD9tH9ixSgWQPxiVIsBCAZA/K/FAl3L4jz+U57hKXeyPP5+gFl1G3o8/"
        "77YLsS7Ojz8yjYNJF7yPP0MIk0kBqI8/ykNm9O2Rjz+UQiyt3nmPP9ybAPfUX48/"
        "6CbTdNJDjz+Xpk3p2CWPP2l2tzbqBY8/6TrXXgjkjj9Gl9KCNcCOPzPqC+Nzmo4/"
        "LBT+3sVyjj9wSRb1LUmOPwjyi8KuHY4/dZo2A0vwjT+W92GRBcGNP5EAoGXhj40/"
        "qyGZluFcjT/9itpYCSiNPzmeov5b8Yw/r36r99y4jD/vxvPQj36MP5JnhTR4Qow/"
        "pbI66ZkEjD+Dl4HS+MSLP+cSHfCYg4s/IdfkXX5Aiz96MINTrfuKP/opMSQqtYo/"
        "w/ZwPvlsij9upMYrHyOKP9oab5Cg14k/Dm4VK4KKiT/ehobUyDuJPxUnY39564g/"
        "Fk7QN5mZiD/1AiYjLUaIPxeJnH868Yc/ngT4o8aahz/ckzL/1kKHP0jjJBhx6YY/"
        "X0EtjZqOhj8XONUTWTKGP4yxdXiy1IU/rq3Znax1hT/Rjt98TRWFPw0DGSSbs4Q/"
        "gJBpt5tQhD+JyqNvVeyDP0I2JZrOhoM/c+RwmA0ggz9sx8jfGLiCPzbLxfj2ToI/"
        "rLbufq7kgT8R3E0gRnmBP9qfBZ3EDIE/fdzjxjCfgD8OKvSAkTCAP1EhIn7bgX8/"
        "Q1noCpmgfj8/l4rQab19P4oTURZc2Hw/duyWQX7xez/3jOLU3gh7P8o//G6MHno/"
        "gf4CypUyeT82jH+6CUV4PyXsdS73VXc/OkV1LG1ldj+URKbSenN1P7MS2FUvgHQ/"
        "avGLAJqLcz+fnP8xypVyPz2ONl3PnnE/kVACCLmmcD+LORSULVtvPzVJpJfwZm0/"
        "hEeGi9pwaz/Clmb+CnlpPwwN5Zqhf2c/uw68Jb6EZT8tvAZ8gIhjP1Uzy5EIi2E/"
        "yupE4uwYXz+jDtd11BlbP6etllcIGVc/g97ZXckWUz/44B2XsiZOP3RY8+z6HUY/"
        "6wUEOkYoPD+ZgBXd0DEoPw=="
    ),
    135: (
        "AAAAAAAAAADnuEbAHYF6P7JCw2L5gIo/XwNglY3gkz/9x+DtZ4CaPwvIpsb8j6A/"
        "1MVrI5jfoz/DrFT3/C6nPz5yDC0ifqo/lZ7sr/7MrT8IHAu2xI2wP/RVRafcNLI/"
        "X1qiosLbsz9Dn6gfcoK1P7MjdJbmKLc/td7CfxvPuD9mLAFVDHW6PzQ5VpC0Grw/"
        "H2uwrA/AvT/WyNElGWW/P0cvLjzmhMA/OVDvkBJXwT9G5W9QDynCPwIfdjra+sI/"
        "xu1QD3HMwz90Ld6P0Z3EP6/PkH35bsU/egR3muY/xj8uYUCplhDHP7YFRG0H4cc/"
        "/7+GqjaxyD+HLcElIoHJPwbbZaTHUMo/FGKn7CQgyz+/hH7FN+/LPwdHsPb9vcw/"
        "IQbUSHWMzT+DjVmFm1rOP5Mpj3ZuKM8//ben5+v1zz/IWmDSiGHQP80kdL3ux9A/"
        "WKcRnCYu0T9lrLlVL5TRP1pcbtIH+tE/Wj62+q5f0j8sN5+3I8XSP7GGwfJkKtM/"
        "2cNClnGP0z8b19iMSPTTP17zzMHoWNQ/TI3+IFG91D8LUeaWgCHVP1EWmRB2hdU/"
        "zNLKezDp1T/SitHGrkzWP1tAqODvr9Y/LuDxuPIS1z9LLfw/tnXXP3WqwmY52Nc/"
        "5oHxHns62D8ia+haepzYP9GOvQ02/tg/tGhAK61f2T+Lp/yn3sDZPw0LPXnJIdo/"
        "vD8OlWyC2j+5uEHyxuLaP26HcIjXQts/HDH+T52i2z87ghtCFwLcP6VfyVhEYdw/"
        "ipXbjiPA3D8fpPvfsx7dPwCKq0j0fN0/RIxIxuPa3T82/A1XgTjeP676F/rLld4/"
        "/Dhmr8Ly3j9nt953ZE/fPzaBUFWwq98/GjM7pdID4D/Y2HwtoTHgP3dvukVDX+A/"
        "gSW7cLiM4D8JcsExALrgP/VqjAwa5+A/9RlZhQUU4T8k0OMgwkDhP0N4aWRPbeE/"
        "mueo1ayZ4T9zLeT62cXhPy7h4VrW8eE/4W7ufKEd4j+aYt3oOkniPxmyCieidOI/"
        "JgVcwNaf4j9i/EE+2MriP592uSqm9eI/t9RMEEAg4z/bOxV6pUrjP2HWu/PVdOM/"
        "AxN7CdGe4z+M4h9IlsjjP/fzCj0l8uM//e4xdn0b5D/+rCCCnkTkP1pw+u+HbeQ/"
        "JBp7TzmW5D80Xvgwsr7kP4/1YiXy5uQ/Ms9HvvgO5T8eP9GNxTblP8IryCZYXuU/"
        "rzmVHLCF5T+S9UEDzazlP3b8eW+u0+U/SyKM9lP65T+tlmsuvSDmP+YHsa3pRuY/"
        "KsSbC9ls5j8M2RLgipLmPyUxpsP+t+Y/7K+PTzTd5j+6S7QdKwLnP/4lpcjiJuc/"
        "kKGg61pL5z8wd5Mik2/nPyTIGQqLk+c/8S6AP0K35z86zsRguNrnP6ldmAzt/ec/"
        "/DRf4t8g6D8eVTKCkEPoP01v4Iz+Zeg/WeruoymI6D/f5ZppEaroP5s72oC1y+g/"
        "r35cjRXt6D/7+IszMQ7pP22mjhgIL+k/TS5H4plP6T+I2lU35m/pP++MGb/sj+k/"
        "a7KwIa2v6T8qNPoHJ8/pP61mlhta7uk/1/bnBkYN6j/T1BR16ivqP/QcBxJHSuo/"
        "av5tilto6j/pn76LJ4bqPyYCNcSqo+o/OODU4uTA6j/VjWqX1d3qP2LTi5J8+uo/"
        "5ceYhdkW6z/EqLwi7DLrP1Sv7hy0Tus/Q+TyJzFq6z/K8Fr4YoXrP6LthkNJoOs/"
        "1S+mv+O66z9HE7gjMtXrPwvDjCc07+s/eP/Fg+kI7D8C4tfxUSLsP9CeCSxtO+w/"
        "D0R27TpU7D/9dg3yumzsP7MulPbshOw/oGyluNCc7D+48rL2ZbTsP1/3BXCsy+w/"
        "9da/5KPi7D8gw9oVTPnsP7xvKsWkD+0/db1cta0l7T8NYvqpZjvtP0qOZ2fPUO0/"
        "hZHksudl7T/meo5Sr3rtPze4Xw0mj+0/YLIwq0uj7T+CZ7j0H7ftP6QCjbOiyu0/"
        "DXEkstPd7T8p9dS7svDtPw+31Zw/A+4/mlI/InoV7j8bYwwaYifuP5cMGlP3OO4/"
        "pIIonTlK7j/IjNvIKFvuP3cIu6fEa+4/kWgzDA187j93MpbJAYzuP6d4GrSim+4/"
        "4VLdoO+q7j/ZU+Jl6LnuP278E9qMyO4/ZCxE1dzW7j+tkCww2OTuPyoPb8R+8u4/"
        "+y+WbND/7j9ChBUEzQzvP3oKSmd0Ge8/OpB6c8Yl7z+FEdgGwzHvP5EVfgBqPe8/"
        "DQlzQLtI7z/ilaintlPvP3L4+xdcXu8/TlI2dKto7z9n+gygpHLvP7zKIYBHfO8/"
        "fmsD+pOF7z+smy30iY7vPy13CVYpl+8/YbrtB3Kf7z8uAx/zY6fvP4oP0AH/ru8/"
        "i/khH0O27z/ycCQ3ML3vP1Hy1TbGw+8/yPsjDAXK7z9sP+ul7M/vP4jT9/N81e8/"
        "3mAF57Xa7z9MT79wl9/vP2nxwIMh5O8/OrCVE1To7z8CObkUL+zvPzOxl3yy7+8/"
        "xviNQd7y7z9HDepasvXvP6S568Au+O8/JwfGbFP67z9GzqJYIPzvP1VHrX+V/e8/"
        "LJ053rL+7z/iB5lyeP/vP9Z76UXm/+8/EjJ53ymBej8fGuWBBYF6P62cjGmYgHo/"
        "3Rebl+J/ej9XegMO5H56P+09gM+cfXo/JGCT3wx8ej+MWIZCNHp6PwYNav0SeHo/"
        "1cMWFql1ej+YEyyT9nJ6Px3REHz7b3o/EPvy2Ldsej+Ko8eyK2l6P3zXShNXZXo/"
        "+YP/BDphej9eWS+T1Fx6P1es6skmWHo/yFQItjBTej+LiiVl8k16PxvApeVrSHo/"
        "FXuyRp1Cej+dKjuYhjx6P6P79OonNno/C6taUIEvej+3Vazakih6P3BG75xcIXo/"
        "tcHtqt4Zej9tzzYZGRJ6P3wCHv0LCno/Pj67bLcBej/oeep+G/l5P8uBS0s48Hk/"
        "gbZB6g3neT8CyvN0nN15P556SwXk03k/4kv1teTJeT9mPWCinr95P4Z/veYRtXk/"
        "AiYAoD6qeT+T2NzrJJ95P2CByejEk3k/bfn8tR6IeT/0sm5zMnx5P6hh1kEAcHk/"
        "76CrQohjeT8QmCWYylZ5P0mcOmXHSXk/4tCfzX48eT8uxcj18C55P4gQ5wIeIXk/"
        "QezpGgYTeT+Gy31kqQR5P0HxCwcI9ng/9gO6KiLneD+Un2n499d4P0flt5mJyHg/"
        "Sgn9ONe4eD+x3ksB4ah4PzhhcR6nmHg/ED30vCmIeD+zVBQKaXd4P7NEyjNlZng/"
        "m+XGaB5VeD/Ky3LYlEN4P1zF7bLIMXg/HVYOKbofeD+DMWFsaQ14P7ayKK/W+nc/"
        "qFJcJALodz81HKj/69R3P14ebHWUwXc/iNy7uvutdz/evF0FIpp3P750yosHhnc/"
        "PHMshaxxdz/HSV8pEV13P90S77A1SHc/3tYXVRozdz8D78RPvx13P2pmkNskCHc/"
        "RlnCM0vydj84UlCUMtx2P8Cl3DnbxXY/3Mu1YUWvdj/Pt9VJcZh2Pw4u4TBfgXY/"
        "WRgnVg9qdj8B2J/5gVJ2P2GW7Fu3OnY/f5NWvq8idj/rcs5iawp2P8iG64vq8XU/"
        "FRnrfC3ZdT8ks695NMB1P1ljwMb/pnU/GQFIqY+NdT/8bhRn5HN1P0XblUb+WXU/"
        "lf7djt0/dT/kWJ+HgiV1P8ZsLHntCnU/9Ph2rB7wdD8eMA9rFtV0PxTvIv/UuXQ/"
        "NPF8s1qedD8uA4TTp4J0Pxk0Oqu8ZnQ/5gQ8h5lKdD8flr+0Pi50PwzUk4GsEXQ/"
        "LKEfPOP0cz8S/2Az49dzP6A17LasunM/q/jqFkCdcz8AjBuknX9zP87lz6/FYXM/"
        "ic/si7hDcz8oBemKdiVzP99SzP//BnM/RbEuPlXocj/0XzeadslyP5n+m2hkqnI/"
        "gKSf/h6Lcj+f9hGypmtyPxs8Ttn7S3I/UHE6yx4scj9cWUbfDwxyPy6Oam3P63E/"
        "IY8nzl3LcT8hzoRau6pxP1q7D2zoiXE/gM/aXOVocT+clHyHskdxP3+tDkdQJnE/"
        "v9ss974EcT9bBPTz/uJwP/EyAZoQwXA/nJtwRvSecD92m9xWqnxwP7m3XCkzWnA/"
        "jZuEHI83cD+FFGOPvhRwP4EbAsOD428/ixPB5TKdbz8ZNvdHi1ZvP4a2hquND28/"
        "i8I90zrIbj+ua9SCk4BuPzWO6n6YOG4/kLUFjUrwbT9c/o5zqqdtP+X10Pm4Xm0/"
        "Tnf153YVbT9JhgMH5ctsP3Qn3SAEgmw/WTY9ANU3bD8nObVwWO1rPw0yqz6Poms/"
        "Wm5XN3pXaz9YU8IoGgxrP+0owuFvwGo/BuL4MXx0aj/S4tHpPyhqP9nEf9q722k/"
        "6Bj61fCOaT/sJvuu30FpP6yr/TiJ9Gg/dpQ6SO6maD/KuKaxD1loP/OR8EruCmg/"
        "sPB96oq8Zz/dsGln5m1nPzFrgZkBH2c/DSVDWd3PZj9t/tp/eoBmP/DdIOfZMGY/"
        "GRuWafzgZT+xJmPi4pBlP2QxVS2OQGU/nNDbJv/vZD+coQasNp9kP+Lqgpo1TmQ/"
        "3juZ0Pz8Yz/8CistjatjPwhSsI/nWWM/+yg12AwIYz8uX1fn/bViP/8SRJ67Y2I/"
        "60e13kYRYj8qe++KoL5hP8w2v4XJa2E/YqN2ssIYYT8/GOv0jMVgP0SqcjEpcmA/"
        "YbnhTJgeYD9M+RBZtpVfPyoaYWzl7V4/Pd40oL9FXj+7NfbBRp1dPzEG85989Fw/"
        "FzZYCWNLXD8LtizO+6FbP8eHTL9I+Fo/2MJjrktOWj8ul+ltBqRZP5lNG9F6+Vg/"
        "Qkb3q6pOWD859TfTl6NXPzHdThxE+FY/fIhfXbFMVj97gDpt4aBVP5RDWCPW9FQ/"
        "3znUV5FIVD/WqGfjFJxTPzumZJ9i71I/pAqxZXxCUj8sZMEQZJVRPwXqk3sb6FA/"
        "33GrgaQ6UD8r0RT+ARpPP3+gW6Blvk0/XY0QpHdiTD9AMvrDOwZLP9HYtru1qUk/"
        "hwqzR+lMSD9HhyAl2u9GPynh7RGMkkU/sim/zAI1RD+gcOgUQtdCP0h1a6pNeUE/"
        "2y37TSkbQD/k2xSCsXk9Pxez4Yu/vDo/Opl+QIT/Nz/cdQErB0I1P0QOE95PhDI/"
        "0iva+suMLz/0TDm0ohAqP3ONO640lCQ/itLt6i4vHj8IaA4D/jUTPyDNSp1/gQA/"
    ),
}
