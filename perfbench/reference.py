"""Reference computations for the benchmark, written apart from heunqdot.

Nothing here imports the package under test. Each function recomputes a
quantity that heunqdot outputs, by another route:

* termination_polynomial / positive_roots: the termination determinant
  expanded as a general determinant by sympy, straight from the gamma-factor
  formulas in the docstring of heunqdot.termination, and its positive real
  roots isolated by sympy's own root isolation.
* exact_states: the closed-form Coulomb-on states of the 2D dot (Taut,
  J. Phys. A 27, 1045 (1994)), from the recurrence derived from the radial
  equation itself, b_{k+1}(k+1)(k+2l+1) = t b_k - 2(N+1-k) b_{k-1}, with
  eta = (N+l+1)/t^2 and the node count of the closed-form polynomial.
* ritz_eigenvalues: a Rayleigh-Ritz solve of the radial equation in a
  Laguerre-function basis, unrelated to the program's Chebyshev collocation.
* norm_quadrature: int (N u)^2 dr by composite Gauss-Legendre quadrature.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import sympy as sp
from scipy import linalg, special
from sympy.polys.matrices import DomainMatrix

T = sp.Symbol("t")
ROOT_EPS = sp.Rational(1, 10 ** 24)


def gamma_factors(n: int, l: int, convention: str) -> list:
    """Subdiagonal factors gamma_1..gamma_{n-1} as sympy expressions in t.

    1 + alpha = (2l+1)/t. 'table': gamma_1 = 2n(1+alpha),
    gamma_p = 2(n-p)(p+1)(p+1+alpha) for p >= 2. 'literal':
    gamma_{p+1} = 2(n-p)(p+1)(p+1+alpha) for p = 0..n-2.
    """
    one_alpha = sp.Rational(2 * l + 1) / T
    if convention == "table":
        return [2 * n * one_alpha if p == 1
                else 2 * (n - p) * (p + 1) * (p + one_alpha)
                for p in range(1, n)]
    if convention == "literal":
        return [2 * (n - p) * (p + 1) * (p + one_alpha) for p in range(n - 1)]
    raise ValueError(f"unknown convention {convention!r}")


def termination_polynomial(n: int, l: int, convention: str = "table") -> sp.Poly:
    """The n x n tridiagonal determinant (diagonal t/2, superdiagonal 1,
    subdiagonal gamma) times the power of t that makes it a polynomial with
    a nonzero constant term."""
    gammas = gamma_factors(n, l, convention)
    m = sp.zeros(n, n)
    for i in range(n):
        m[i, i] = T / 2
        if i + 1 < n:
            m[i, i + 1] = 1
            m[i + 1, i] = gammas[i]
    # t*M has polynomial entries and det(t*M) = t^n det(M)
    scaled = (T * m).applyfunc(sp.expand)
    ring = sp.QQ[T]
    det = sp.Poly(ring.to_sympy(DomainMatrix.from_Matrix(scaled)
                                .convert_to(ring).det()), T)
    low = min(k for (k,) in det.monoms())
    return sp.Poly(sp.expand(det.as_expr() / T ** low), T)


def positive_roots(poly: sp.Poly) -> list[float]:
    """Positive real roots, ascending, each isolated to within 1e-24."""
    return [float((lo + hi) / 2)
            for (lo, hi), _ in poly.intervals(eps=ROOT_EPS) if lo > 0]


def exact_states(n_max: int = 8, l_max: int = 2) -> list[dict]:
    """Every closed-form Coulomb-on state with 1 <= N <= n_max, l <= l_max.

    The series v = sum_k b_k (r/t)^k of u = r^(l+1/2) e^(-r^2/(2t^2)) v
    terminates at degree N where b_{N+1}(t) = 0; each positive root t gives
    omega = 1/t^2, eta = (N+l+1)/t^2 and a state with as many nodes as v has
    positive zeros. Ordered by (l, N, t).
    """
    out = []
    for l in range(l_max + 1):
        for n in range(1, n_max + 1):
            b = [sp.Integer(0), sp.Integer(1)]  # b_{-1}, b_0
            for k in range(n + 1):
                b.append(sp.expand((T * b[-1] - 2 * (n + 1 - k) * b[-2])
                                   / ((k + 1) * (k + 2 * l + 1))))
            for root in sp.Poly(b[-1], T).real_roots():
                if root > 0:
                    out.append(_exact_state(n, l, root, b[1:-1]))
    return out


def _exact_state(n: int, l: int, root, b: list) -> dict:
    """The state at one positive root t of b_{N+1}, with b = b_0..b_N."""
    with mpmath.workdps(50):
        t = mpmath.mpf(str(sp.N(root, 60)))
        coeffs = [mpmath.polyval([mpmath.mpf(c.p) / c.q for c in
                                  sp.Poly(bk, T).all_coeffs()], t) for bk in b]
        zeros = mpmath.polyroots(coeffs[::-1], maxsteps=400, extraprec=300)
        nodes = sum(1 for z in zeros
                    if abs(mpmath.im(z)) < mpmath.mpf(10) ** -30 and mpmath.re(z) > 0)
        return {"N": n, "l": l, "t": float(t), "omega": float(1 / t ** 2),
                "eta": float((n + l + 1) / t ** 2), "nodes": nodes}


def _ritz(omega: float, l: int, coulomb_a: float, size: int) -> np.ndarray:
    """Rayleigh-Ritz eigenvalues for v = u/r^(l+1/2) in the basis
    e^(-x/2) L_k^(2l+1)(x), x = beta r, k < size.

    The weak form of r v'' + (2l+1) v' + (2 eta r - 2a - omega^2 r^3) v = 0,
    int r^(2l+1) v' w' + int (2a r^(2l) + omega^2 r^(2l+3)) v w
        = eta int 2 r^(2l+1) v w,
    is integrated exactly by generalized Gauss-Laguerre quadrature with
    weight x^(2l) e^(-x); the common factor beta^(-2l) is dropped.
    """
    beta = 2.5 * math.sqrt(omega)
    x, w = special.roots_genlaguerre(size + 4, 2 * l)
    alpha = 2 * l + 1
    k = np.arange(size)
    scale = np.exp(0.5 * (special.gammaln(k + 1) - special.gammaln(k + alpha + 1)))
    lag = special.eval_genlaguerre(k[:, None], alpha, x[None, :]) * scale[:, None]
    dlag = np.zeros_like(lag)
    dlag[1:] = -special.eval_genlaguerre(k[1:, None] - 1, alpha + 1,
                                         x[None, :]) * scale[1:, None]
    deriv = dlag - 0.5 * lag  # e^(x/2) d/dx [e^(-x/2) L_k(x)]
    stiff = (deriv * (x * w)) @ deriv.T
    coul = (2 * coulomb_a / beta) * (lag * w) @ lag.T
    trap = (omega ** 2 / beta ** 4) * (lag * (x ** 3 * w)) @ lag.T
    mass = (2 / beta ** 2) * (lag * (x * w)) @ lag.T
    return linalg.eigh(stiff + coul + trap, mass, eigvals_only=True)


def ritz_eigenvalues(omega: float, l: int, coulomb_a: float = 0.5,
                     count: int = 8, size: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """The `count` lowest eigenvalues eta and an error estimate for each
    (the change from basis size `size` to 1.5 `size`)."""
    small = _ritz(omega, l, coulomb_a, size)[:count]
    large = _ritz(omega, l, coulomb_a, (3 * size) // 2)[:count]
    return large, np.abs(large - small)


def norm_quadrature(y_coeffs, norm: float, omega: float, l: int,
                    panels: int = 16, points: int = 48) -> float:
    """int_0^L (N u)^2 dr with u = r^(l+1/2) e^(-omega r^2/2) y(r), where
    L = 14/sqrt(omega) (the integrand is below e^-190 there), by composite
    Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(points)
    edges = np.linspace(0.0, 14.0 / math.sqrt(omega), panels + 1)
    half = 0.5 * np.diff(edges)
    r = (edges[:-1, None] + half[:, None] * (x[None, :] + 1.0)).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    y = np.polyval(np.asarray(y_coeffs, dtype=float)[::-1], r)
    u = r ** (l + 0.5) * np.exp(-0.5 * omega * r * r) * y
    return float(np.sum(weights * (norm * u) ** 2))
