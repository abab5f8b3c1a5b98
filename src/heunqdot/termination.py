"""Polynomial-termination condition for the reduced radial problem.

For the state label n the series solution truncates only at special trap
frequencies. Working in t = 1/sqrt(omega) (= 2*delta', the tabulated
variable), the truncation condition is the vanishing of an n x n tridiagonal
determinant with diagonal delta' = t/2, superdiagonal 1 and subdiagonal gamma
factors that are affine in 1/t. The determinant follows the three-term
recurrence d_k = delta' d_{k-1} - gamma_{k-1} d_{k-2}, is a Laurent polynomial
in t with exact rational coefficients. After clearing the minimal power of t,
its positive real roots are isolated in integer arithmetic (ratpoly: Descartes'
rule on dyadic intervals, then bisection), each with a rational bracket
certified by an exact sign change.

Two gamma-factor conventions are implemented. The published closed form for
the factors and the published recurrence disagree by an index shift, so:

* TABLE:   gamma_1 = 2n(1+alpha), gamma_p = 2(n-p)(p+1)(p+1+alpha) for p >= 2.
           This combination reproduces the published root tables and is the
           default everywhere.
* LITERAL: gamma_{p+1} = 2(n-p)(p+1)(p+1+alpha) for p = 0..n-2, i.e. the
           index placement implied by the displayed recurrence rows. Kept for
           the discrepancy report.

Here 1 + alpha = (2l+1)/t, which couples the factors to the root variable.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from fractions import Fraction

from . import ratpoly as rp

log = logging.getLogger(__name__)


class GammaConvention(str, enum.Enum):
    TABLE = "table"
    LITERAL = "literal"


@dataclass(frozen=True)
class AffineInvT:
    """An affine function  const + inv_t / t  with exact rational coefficients."""

    const: Fraction
    inv_t: Fraction

    def __call__(self, t):
        return self.const + self.inv_t / t

    def as_laurent(self) -> rp.Laurent:
        out: rp.Laurent = {}
        if self.const:
            out[0] = self.const
        if self.inv_t:
            out[-1] = self.inv_t
        return out


@dataclass(frozen=True)
class TerminationSystem:
    """Gamma factors and delta' for one (n, l) under a chosen convention."""

    n: int
    l: int
    convention: GammaConvention
    gamma_factors: tuple[AffineInvT, ...]

    @property
    def delta_prime(self) -> rp.Laurent:
        return {1: Fraction(1, 2)}


def build_gamma_factors(n: int, l: int,
                        convention: GammaConvention = GammaConvention.TABLE,
                        ) -> TerminationSystem:
    """The n-1 subdiagonal factors as affine functions of 1/t."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if l < 0:
        raise ValueError("l must be >= 0")
    tl = Fraction(2 * l + 1)
    factors: list[AffineInvT] = []
    if convention == GammaConvention.TABLE:
        for p in range(1, n):
            if p == 1:
                factors.append(AffineInvT(Fraction(0), 2 * n * tl))
            else:
                c = Fraction(2 * (n - p) * (p + 1))
                # p + 1 + alpha = p + (2l+1)/t
                factors.append(AffineInvT(c * p, c * tl))
    elif convention == GammaConvention.LITERAL:
        for p in range(0, n - 1):
            c = Fraction(2 * (n - p) * (p + 1))
            factors.append(AffineInvT(c * p, c * tl))
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return TerminationSystem(n=n, l=l, convention=convention,
                             gamma_factors=tuple(factors))


@dataclass(frozen=True)
class DeterminantSequence:
    """d_1..d_n as exact Laurent polynomials in t (d_n is the determinant)."""

    system: TerminationSystem
    d: tuple[rp.Laurent, ...]

    @property
    def final(self) -> rp.Laurent:
        return self.d[-1]


def determinant_sequence(system: TerminationSystem) -> DeterminantSequence:
    """Run d_k = delta' d_{k-1} - gamma_{k-1} d_{k-2} with d_0 = 1, d_1 = t/2."""
    dp = system.delta_prime
    seq: list[rp.Laurent] = []
    d_prev: rp.Laurent = {0: Fraction(1)}  # d_0
    d_cur: rp.Laurent = dict(dp)           # d_1
    seq.append(dict(d_cur))
    for k in range(2, system.n + 1):
        gamma = system.gamma_factors[k - 2].as_laurent()
        d_next = rp.lau_sub(rp.lau_mul(dp, d_cur), rp.lau_mul(gamma, d_prev))
        seq.append(dict(d_next))
        d_prev, d_cur = d_cur, d_next
    return DeterminantSequence(system=system, d=tuple(seq))


@dataclass(frozen=True)
class ClearedPolynomial:
    """The determinant times t**clearing_power: an ordinary polynomial in t."""

    coefficients: tuple[Fraction, ...]  # ascending powers of t
    clearing_power: int

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, t):
        return rp.poly_eval(list(self.coefficients), t)


def clear_denominators(d_n: rp.Laurent) -> ClearedPolynomial:
    """Multiply by the minimal power of t making every exponent non-negative."""
    if not d_n:
        raise ValueError("cannot clear the zero polynomial")
    dense, power = rp.lau_to_dense(d_n)
    return ClearedPolynomial(coefficients=tuple(dense), clearing_power=power)


@dataclass(frozen=True)
class Root:
    t_star: float
    omega: float
    refinement_width: float
    bracket: tuple[float, float]


@dataclass(frozen=True)
class RootSet:
    roots: tuple[Root, ...]
    negative_root_count: int = 0
    complex_root_count: int = 0


# the absolute bracket widths in t that root refinement accepts
PRECISION_RANGE = (1e-14, 1e-6)


def check_precision(precision: float) -> None:
    """Raise ValueError unless precision lies in PRECISION_RANGE."""
    lo, hi = PRECISION_RANGE
    if not lo <= precision <= hi:
        raise ValueError(f"precision must lie in [{lo:g}, {hi:g}], "
                         f"got {precision:g}")


def isolate_roots(p: ClearedPolynomial, precision: float = 1e-13) -> RootSet:
    """All positive real roots of the cleared determinant, certified brackets.

    t = 0 is never a numeric root. The cleared polynomial can carry a factor
    t**k (a zero constant term); it is stripped, and isolation and refinement
    both run on the same stripped polynomial, or on its square-free part when
    it has a repeated root. Negative and complex roots are discarded and
    counted; every count is of distinct roots.
    """
    check_precision(precision)
    if rp.poly_degree(p.coefficients) <= 0:
        return RootSet(roots=())

    poly = rp.primitive_part(p.coefficients)
    intervals, n_neg, multiple = rp.isolate_positive_roots(poly)
    if multiple:
        log.warning("determinant has a repeated root; brackets use the "
                    "square-free part")
        # an even-multiplicity root changes no sign of the polynomial itself
        poly = rp.squarefree_part(poly)[0]
    roots: list[Root] = []
    for lo, hi in intervals:
        lo, hi = rp.refine_root_bisect(poly, lo, hi, precision)
        t_star = float((lo + hi) / 2)
        roots.append(Root(t_star=t_star,
                          omega=1.0 / (t_star * t_star),
                          refinement_width=float(hi - lo),
                          bracket=(float(lo), float(hi))))
    roots.sort(key=lambda r: r.t_star)
    n_complex = rp.poly_degree(poly) - len(roots) - n_neg
    if n_neg or n_complex:
        log.info("discarded %d negative and %d complex roots", n_neg, n_complex)
    return RootSet(roots=tuple(roots), negative_root_count=n_neg,
                   complex_root_count=n_complex)


def coefficient_chain(n: int, l: int, t_star: float | Fraction,
                      convention: GammaConvention = GammaConvention.TABLE,
                      ) -> tuple[list, int]:
    """Series coefficients A_0..A_n at a fixed t and their effective degree.

    A_0 = 1, A_1 = -t/2, A_{p+2} = -delta' A_{p+1} - gamma_{p+1} A_p with the
    system's gamma factors evaluated at t: in floats, or exactly for a
    Fraction t. The effective degree is as in effective_degree (at a
    determinant root the trailing coefficient vanishes and the polynomial
    degenerates).
    """
    if t_star <= 0:
        raise ValueError("t_star must be positive")
    if not isinstance(t_star, Fraction):
        t_star = float(t_star)
    system = build_gamma_factors(n, l, convention)
    dp = t_star / 2
    a = [type(t_star)(1), -dp]
    for p in range(n - 1):
        a.append(-dp * a[p + 1] - system.gamma_factors[p](t_star) * a[p])
    a = a[:n + 1]
    return a, effective_degree(a)


def effective_degree(chain) -> int:
    """The highest index whose coefficient survives the 1e-9 * max|A|
    cutoff."""
    amax = max(abs(v) for v in chain)
    return max(p for p, v in enumerate(chain) if abs(v) >= 1e-9 * amax)


@dataclass(frozen=True)
class TerminationResult:
    """End-to-end product for one (n, l, convention)."""

    system: TerminationSystem
    determinants: DeterminantSequence
    cleared: ClearedPolynomial
    rootset: RootSet


def solve_termination(n: int, l: int,
                      convention: GammaConvention = GammaConvention.TABLE,
                      precision: float = 1e-13) -> TerminationResult:
    """Build the system, run the recurrence, clear and isolate in one call."""
    system = build_gamma_factors(n, l, convention)
    dets = determinant_sequence(system)
    cleared = clear_denominators(dets.final)
    rootset = isolate_roots(cleared, precision=precision)
    return TerminationResult(system=system, determinants=dets,
                             cleared=cleared, rootset=rootset)


def printed_series_coefficients(l: int, t: float) -> list[float]:
    """The explicitly published closed forms of A_0..A_5 evaluated at t.

    These were printed alongside the recurrence but do not agree with any
    single-n reading of it from A_3 on (e.g. the printed A_3 constant term is
    6(2l+1) where the literal recurrence gives 7(2l+1)); they are kept solely
    so the report can quantify that discrepancy per root.
    """
    sw = 1.0 / t  # sqrt(omega)
    tl = 2 * l + 1
    half = t / 2.0  # 1/(2 sqrt(omega))
    return [
        1.0,
        -half,
        half ** 2 - 4 * tl * sw,
        -half ** 3 + 4 / sw + 6 * tl,
        half ** 4 - 8 / sw ** 2 - 6 * tl * (1 / sw - 16 * sw + 8),
        -half ** 5 + 10 / sw ** 3 - 192 / sw
        + tl * (5 / sw ** 2 - 24 * (1 + 4 * tl) * sw - 400),
    ]
