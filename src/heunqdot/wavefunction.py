"""Polynomial radial states: assembly, closed-form normalization, moments.

A terminated series with coefficients A_0..A_n becomes a polynomial in r via

    y_p = A_p (sqrt(omega))^p / (p! (1+alpha)_p),   (1+alpha) = (2l+1)/t,

and the (unnormalized) radial functions are

    u(r) = r^(l+1/2) exp(-omega r^2/2) y(r),
    R(r) = r^l       exp(-omega r^2/2) y(r).

Normalization and moments reduce to Gamma integrals
int_0^inf exp(-mu r^p) r^(nu-1) dr = mu^(-nu/p) Gamma(nu/p) / p with p = 2,
so only Gamma(m/2) at integer m is ever needed. The sums walk it along m in
exact integers, (m/2 - 1)! for even m and (m - 2)!! for odd m, each rounded
to a float once (before the factor sqrt(pi) of odd m).
A fixed-order quadrature cross-check and a finite-difference residual
evaluator are provided so no closed form is trusted on its own.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .model import effective_potential_term
from .termination import GammaConvention, coefficient_chain


# the roundoff of a Gamma sum, about 2^-53 sum|term|, may be at most this
# fraction of the sum; past it the printed %.6e digits cannot be trusted
GAMMA_SUM_MAX_ERROR = 1e-8


class FloatRangeError(ValueError):
    """A state whose coefficients or integrals floats cannot hold: outside
    the float range, or lost to cancellation."""

    def __init__(self, n: int, l: int, omega: float, what: str):
        super().__init__(f"n={n}, l={l}, omega={omega:g}: {what}")


class PolynomialSolution(NamedTuple):
    """A terminated solution at fixed (n, l, t_star)."""

    n: int
    l: int
    t_star: float
    omega: float
    eta: float
    y_coeffs: tuple[float, ...]   # ascending powers of r, length degree+1
    A_chain: tuple[float, ...]    # A_0..A_n, as the chain gives them

    @property
    def degree(self) -> int:
        return len(self.y_coeffs) - 1


def assemble_polynomial(n: int, l: int, t_star: float,
                        A_chain: list[float] | None = None,
                        convention: GammaConvention = GammaConvention.TABLE,
                        at_root: bool = False) -> PolynomialSolution:
    """Convert the series coefficients to powers of r.

    At a root t_star of the determinant D_n (at_root) the state is y from
    A_0..A_{n-1}, of degree n - 1 exactly: A_n = (-1)^n d_n vanishes there,
    while A_{n-1} = (-1)^(n-1) d_{n-1} does not, because consecutive
    leading minors of a tridiagonal matrix share no root when every
    subdiagonal factor is nonzero, and 4 gamma_p = c + e/t > 0 for t > 0.
    A_chain keeps the whole chain, whose A_n is the float residue of that
    zero. Otherwise y takes every coefficient of the chain.

    The Pochhammer denominators (1+alpha)_p with 1+alpha = (2l+1)/t are
    strictly positive for omega > 0, l >= 0: every factor is at least
    (2l+1)/t. They and p! are carried as running products.
    Raises FloatRangeError when a coefficient, or the chain behind it, is not
    a finite float (for example at omega = 0.02 and l = 0 from n = 118 on).
    """
    if t_star <= 0:
        raise ValueError("t_star must be positive")
    if A_chain is None:
        A_chain = coefficient_chain(n, l, t_star, convention)
    else:
        A_chain = list(A_chain)
    omega = 1.0 / (t_star * t_star)
    sw = 1.0 / t_star  # sqrt(omega)
    one_alpha = (2 * l + 1) * sw
    coeffs = []
    # (1+alpha)_p and p!, the latter an exact integer
    poch, fact = 1.0, 1
    try:
        for p, a in enumerate(A_chain[:n] if at_root else A_chain):
            coeffs.append(a * sw ** p / (fact * poch))
            poch *= one_alpha + p
            fact *= p + 1
    except OverflowError:  # p! beyond the float range
        coeffs.append(math.nan)
    if not all(map(math.isfinite, coeffs)):
        raise FloatRangeError(n, l, omega, "the polynomial coefficients are "
                              "outside the float range")
    return PolynomialSolution(
        n=n, l=l, t_star=t_star, omega=omega,
        eta=(n + l + 1) * omega,
        y_coeffs=tuple(coeffs),
        A_chain=tuple(A_chain),
    )


class RadialState(NamedTuple):
    """A normalized polynomial state; samplers are pure and shareable."""

    solution: PolynomialSolution
    N: float

    @property
    def omega(self) -> float:
        return self.solution.omega

    @property
    def l(self) -> int:
        return self.solution.l

    def y(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for c in reversed(self.solution.y_coeffs):
            out = out * r + c
        return out

    def u(self, r):
        """Unnormalized reduced radial function r^(l+1/2) e^(-w r^2/2) y."""
        r = np.asarray(r, dtype=float)
        return r ** (self.l + 0.5) * np.exp(-self.omega * r * r / 2) * self.y(r)

    def R(self, r):
        """Normalized 2D radial function N r^l e^(-w r^2/2) y."""
        r = np.asarray(r, dtype=float)
        return self.N * r ** self.l * np.exp(-self.omega * r * r / 2) * self.y(r)

    def sample(self, r):
        """(N*u, R) pairs for file emission; N*u == sqrt(r)*R."""
        return self.N * self.u(r), self.R(r)


def _half_gammas():
    """Gamma(m/2) for m = 1, 2, 3, ..., walked in exact integers:
    (m/2 - 1)! for even m, and (m - 2)!! for odd m, where
    Gamma(m/2) = sqrt(pi) (m - 2)!! / 2^((m-1)/2) with the quotient rounded
    once, by the int/int division. Raises OverflowError past the float
    range."""
    even = odd = 1
    for m in itertools.count(1):
        if m % 2:
            yield odd / 2 ** (m // 2) * math.sqrt(math.pi)
            odd *= m
        else:
            yield float(even)
            even *= m // 2


def _gamma_sum(solution: PolynomialSolution, k: int) -> float:
    """int_0^inf r^k u^2 dr = (1/2) sum_j c_j t^m Gamma(m/2),
    m = 2(l+1)+j+k, with c_j the coefficients of y^2.

    The terms alternate in sign and can grow far past their sum, so the sum
    carries a roundoff of about 2^-53 sum_j |term_j|. Raises
    FloatRangeError when the sum is not a finite float, or when that
    roundoff exceeds GAMMA_SUM_MAX_ERROR of the sum (at omega = 0.02 and
    l = 0 from n = 27 on).
    """
    c = np.convolve(solution.y_coeffs, solution.y_coeffs)
    t = solution.t_star
    l = solution.l
    m0 = 2 * (l + 1) + k
    gammas = itertools.islice(_half_gammas(), m0 - 1, None)
    acc = size = 0.0
    try:
        for m, cj in enumerate(c, m0):
            term = cj * t ** m * next(gammas)
            acc += term
            size += abs(term)
    except OverflowError:  # a power of t or Gamma value past the float range
        acc = math.nan
    if not math.isfinite(acc):
        raise FloatRangeError(solution.n, l, solution.omega,
                              f"int r^{k} u^2 dr is outside the float range")
    if not 2.0 ** -53 * size <= GAMMA_SUM_MAX_ERROR * abs(acc):
        raise FloatRangeError(solution.n, l, solution.omega,
                              f"int r^{k} u^2 dr is lost to cancellation")
    return acc / 2


def norm_integral_closed(solution: PolynomialSolution) -> float:
    """I = int_0^inf u^2 dr = (1/2) sum_k c_k t^(2(l+1)+k) Gamma(l+1+k/2)."""
    return _gamma_sum(solution, 0)


def normalize(solution: PolynomialSolution) -> RadialState:
    """Closed-form Gamma-sum normalization; N = I^(-1/2)."""
    if not any(solution.y_coeffs):
        raise ValueError("cannot normalize the zero polynomial")
    I = norm_integral_closed(solution)
    if I <= 0:
        raise ValueError(f"non-positive norm integral {I}")
    return RadialState(solution=solution, N=1.0 / math.sqrt(I))


def moment(state: RadialState, k: int) -> float:
    """<r^k> with weight (N u)^2 dr (the 2D radial measure R^2 r dr)."""
    if k < 0:
        raise ValueError("moment power must be non-negative")
    return state.N ** 2 * _gamma_sum(state.solution, k)


# ---------------------------------------------------------------------------
# Independent quadrature cross-checks (composite Gauss-Legendre)
# ---------------------------------------------------------------------------

# the rule of _quad: QUAD_PANELS panels of width 1/sqrt(omega), each with a
# QUAD_POINTS-point Gauss-Legendre rule
QUAD_PANELS = 20
QUAD_POINTS = 32


def _quad(f, omega: float) -> float:
    """int_0^(20/sqrt(omega)) f(r) dr for a vectorized f.

    A fixed composite Gauss-Legendre rule, so the result is cheap and
    reproducible. In x = sqrt(omega) r every integrand here is a polynomial
    times e^(-x^2), which the 32-point rule resolves to roundoff on each panel
    of unit width; past x = 20 the factor e^(-x^2) is below e^-400.
    """
    x, w = np.polynomial.legendre.leggauss(QUAD_POINTS)
    width = 1.0 / math.sqrt(omega)
    left = width * np.arange(QUAD_PANELS)
    r = (left[:, None] + (0.5 * width) * (1.0 + x)).ravel()
    return float((0.5 * width) * np.sum(np.tile(w, QUAD_PANELS) * f(r)))


def norm_integral_quad(solution: PolynomialSolution) -> float:
    """norm_integral_closed by quadrature. Nothing in the program calls it:
    test_wavefunction, test_acceptance and test_cli check the closed form
    against it."""
    state = RadialState(solution=solution, N=1.0)
    return _quad(lambda r: state.u(r) ** 2, solution.omega)


def moment_quad(state: RadialState, k: int) -> float:
    """moment by quadrature, its check in the same three test files."""
    return _quad(lambda r: r ** k * (state.N * state.u(r)) ** 2, state.omega)


# ---------------------------------------------------------------------------
# ODE residual of the closed-form u on a grid
# ---------------------------------------------------------------------------

def residual(sol: PolynomialSolution, coulomb_on: bool = True) -> float:
    """max |u'' + (2 eta - 2a/r - w^2 r^2 - (l^2-1/4)/r^2) u| / max |u''|,
    with the state's own eta, and the bracket of effective_potential_term.

    sol is the state as assembled, not normalized: the ratio does not depend
    on the scale of u, so only y_coeffs, omega, l and eta are read.

    u'' comes from 4th-order central differences of the closed-form u, so the
    returned number measures how well the assembled state actually solves the
    radial equation (no threshold is imposed by this function). The grid is
    8001 uniform points on [0.1, 12/sqrt(omega)].

    One pass over the grid, in place: u is y by Horner's rule from its top
    coefficient, times r^(l+1/2) as sqrt(r) r^l, times the Gaussian. The
    root, the Gaussian and the stencil's terms share one scratch buffer, and
    the bracket overwrites the potential's array.
    """
    r = np.linspace(0.1, 12.0 / math.sqrt(sol.omega), 8001)
    h = r[1] - r[0]
    u = np.full_like(r, sol.y_coeffs[-1])
    for c in reversed(sol.y_coeffs[:-1]):
        u *= r
        u += c
    work = np.sqrt(r)
    u *= work
    for _ in range(sol.l):
        u *= r
    np.multiply(r, -sol.omega, out=work)
    work *= r
    work *= 0.5
    u *= np.exp(work, out=work)
    # 12 h^2 u'' = -u[i+2] + 16 u[i+1] - 30 u[i] + 16 u[i-1] - u[i-2],
    # summed left to right
    mid, term = u[2:-2], work[2:-2]
    upp = u[3:-1] * 16.0
    upp -= u[4:]
    upp -= np.multiply(mid, 30.0, out=term)
    upp += np.multiply(u[1:-3], 16.0, out=term)
    upp -= u[:-4]
    upp /= 12 * h * h
    del work, term  # one grid-sized buffer fewer beside the potential's
    # minus the bracket (2 eta - V) u + u'', in the buffer of V
    res = effective_potential_term(r[2:-2], sol.omega, sol.l, coulomb_on)
    res -= 2 * sol.eta
    res *= mid
    res -= upp
    return float(max(res.max(), -res.min()) / max(upp.max(), -upp.min()))
