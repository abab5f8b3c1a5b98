"""Polynomial-termination condition for the reduced radial problem.

For the state label n the series solution truncates only at special trap
frequencies. Working in t = 1/sqrt(omega) (= 2*delta', the tabulated
variable), the truncation condition is the vanishing of an n x n tridiagonal
determinant with diagonal delta' = t/2, superdiagonal 1 and subdiagonal gamma
factors that are affine in 1/t. Each factor is held as the integer pair
(c, e) with 4 gamma = c + e/t. The determinant's leading minors follow the
three-term recurrence d_k = (t/2) d_{k-1} - gamma_{k-1} d_{k-2}, which
carries powers of 1/2 and of 1/t. The scaled minors
D_k = 2^k t^floor(k/2) d_k carry neither:

    D_0 = 1,  D_1 = t,
    D_k = t^(1 + [k even]) D_{k-1} - (c t + e) D_{k-2},

because 2^k t^floor(k/2) (t/2) = t^(1 + [k even]) 2^(k-1) t^floor((k-1)/2)
and 2^k t^floor(k/2) gamma = (c t + e) 2^(k-2) t^floor((k-2)/2). With
integer c and e every D_k is an integer polynomial, so the recurrence runs in
plain Python integers; its positive roots are those of d_n. The primitive
part of D_n, without its factor t^k, is reduced once to its square-free part
and its positive real roots are isolated and refined on that part in integer
arithmetic (ratpoly: Descartes' rule on dyadic intervals, then refinement
to the bracket bisection would end in: a float seed certified by exact
values, with exact bisection as the fallback), each with a rational bracket
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
Both are the radial equation's own factors 4 gamma_q = 2q(n+1-q)(q+2l),
q = 1..n (model docstring), with three exact edits. Each factor splits into
2q(n+1-q)(q-1) and 2q(n+1-q)(2l+1), and the second part is divided by t, so
that q + 2l becomes q + alpha; every factor is multiplied by 4; and one q is
dropped, q = min(n, 2) for TABLE and q = n for LITERAL. _ode_factor returns
that split, build_gamma_factors edits it into either list, and
oracle.oscillator_state sums it into the Coulomb-off chain at t = 1. The
recurrence, the coefficient chain and the dense check read only the pairs.
The dossier sets the conventions of report.CONVENTIONS side by side.

The dense determinant check (dense_determinant_check) is the recurrence's
exact-arithmetic cross-check: it expands the n x n matrix by fraction-free
(Bareiss) elimination in Fraction arithmetic, and D_n must agree with it
identically.
"""

from __future__ import annotations

import enum
import logging
from fractions import Fraction
from typing import NamedTuple

from . import ratpoly as rp

log = logging.getLogger(__name__)


class GammaConvention(str, enum.Enum):
    TABLE = "table"
    LITERAL = "literal"


def _ode_factor(n: int, l: int, q: int) -> tuple[int, int]:
    """The radial equation's 4 gamma_q = 2q(n+1-q)(q+2l) for degree n, as
    its parts (2q(n+1-q)(q-1), 2q(n+1-q)(2l+1))."""
    m = 2 * q * (n + 1 - q)
    return m * (q - 1), m * (2 * l + 1)


def build_gamma_factors(n: int, l: int,
                        convention: GammaConvention | str = GammaConvention.TABLE,
                        ) -> tuple[tuple[int, int], ...]:
    """The n-1 subdiagonal factors as integer pairs (c, e) with
    4 gamma_p = c + e/t, p = 1..n-1: 4 times the parts of _ode_factor for
    q = 1..n, without q = min(n, 2) for TABLE and q = n for LITERAL.
    Raises ValueError for n < 1, l < 0 or an unknown convention."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if l < 0:
        raise ValueError("l must be >= 0")
    dropped = (min(n, 2) if GammaConvention(convention) is GammaConvention.TABLE
               else n)
    parts = (_ode_factor(n, l, q) for q in range(1, n + 1) if q != dropped)
    return tuple((4 * c, 4 * e) for c, e in parts)


def determinant_sequence(gammas: tuple[tuple[int, int], ...],
                         ) -> list[rp.IntPoly]:
    """D_0..D_n (ascending coefficients in t), D_k = 2^k t^floor(k/2) d_k,
    for the n-1 pairs of build_gamma_factors:
    D_0 = 1, D_1 = t, D_k = t^(1 + [k even]) D_{k-1} - (c t + e) D_{k-2}
    with 4 gamma_{k-1} = c + e/t."""
    seq = [[1], [0, 1]]
    for k, (c, e) in enumerate(gammas, start=2):
        d = [0] * (2 - k % 2) + seq[k - 1]
        for i, a in enumerate(seq[k - 2]):
            d[i] -= e * a
            d[i + 1] -= c * a
        seq.append(d)
    return seq


def dense_determinant_check(n: int, l: int, t: Fraction,
                            convention: str = "table") -> bool:
    """Expand the n x n tridiagonal matrix directly and compare with D_n.

    Nothing in the program calls it: it is the exact reference for the
    recurrence in four test files (test_termination, test_oracle,
    test_acceptance and test_cli). Bareiss elimination on the dense matrix
    (row-swap pivoting on a zero pivot; every division is exact over Q)
    gives d_n, and the integer recurrence must reproduce
    D_n(t) = 2^n t^floor(n/2) d_n identically in exact rational arithmetic.
    """
    if n > 8:
        raise ValueError("dense check is intended for n <= 8")
    t = Fraction(t)
    gammas = build_gamma_factors(n, l, convention)
    dp = t / 2
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = dp
        if i + 1 < n:
            m[i][i + 1] = Fraction(1)
            c, e = gammas[i]
            m[i + 1][i] = (c + e / t) / 4
    direct = _det_bareiss(m)
    recurrence = rp.poly_eval(determinant_sequence(gammas)[n], t)
    return recurrence == 2 ** n * t ** (n // 2) * direct


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


class ClearedPolynomial(NamedTuple):
    """The primitive integer polynomial (ascending powers of t, positive
    leading coefficient, nonzero constant term) with the nonzero roots of the
    determinant d_n, each with its multiplicity."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


class Root(NamedTuple):
    t_star: float
    refinement_width: float
    bracket: tuple[float, float]


class RootSet(NamedTuple):
    roots: tuple[Root, ...]


# the absolute bracket widths in t that root refinement accepts, and the
# width it refines to when none is given
PRECISION_RANGE = (1e-14, 1e-6)
PRECISION = 1e-13


def check_precision(precision: float) -> None:
    """Raise ValueError unless precision lies in PRECISION_RANGE."""
    lo, hi = PRECISION_RANGE
    if not lo <= precision <= hi:
        raise ValueError(f"precision must lie in [{lo:g}, {hi:g}], "
                         f"got {precision:g}")


def isolate_roots(p: ClearedPolynomial,
                  precision: float = PRECISION) -> RootSet:
    """All positive real roots of the cleared determinant, in ascending
    order, with certified brackets.

    The polynomial is made square-free once, if it has a repeated root, and
    isolation and refinement both run on that square-free part.
    """
    check_precision(precision)
    poly, multiple = rp.squarefree_part(list(p.coefficients))
    if multiple:
        # an even-multiplicity root changes no sign of the polynomial itself
        log.warning("determinant has a repeated root; brackets use the "
                    "square-free part")
    roots: list[Root] = []
    for lo, hi in rp.isolate_positive_roots(poly):
        lo, hi = rp.refine_root_bisect(poly, lo, hi, precision)
        t_star = float((lo + hi) / 2)
        roots.append(Root(t_star=t_star,
                          refinement_width=float(hi - lo),
                          bracket=(float(lo), float(hi))))
    return RootSet(roots=tuple(roots))


def coefficient_chain(n: int, l: int, t_star: float | Fraction,
                      convention: GammaConvention = GammaConvention.TABLE,
                      ) -> list:
    """Series coefficients A_0..A_n at a fixed t.

    A_0 = 1, A_1 = -t/2, A_{p+2} = -delta' A_{p+1} - gamma_{p+1} A_p with
    gamma = (c + e/t)/4 from the pairs of build_gamma_factors, evaluated at
    t: in floats (where the division by 4 is exact), or exactly for a
    Fraction t. A_k = (-1)^k d_k, so at a root of D_n the last coefficient
    vanishes (see wavefunction.assemble_polynomial).
    """
    if t_star <= 0:
        raise ValueError("t_star must be positive")
    if not isinstance(t_star, Fraction):
        t_star = float(t_star)
    dp = t_star / 2
    a = [type(t_star)(1), -dp]
    for p, (c, e) in enumerate(build_gamma_factors(n, l, convention)):
        a.append(-dp * a[p + 1] - (c + e / t_star) / 4 * a[p])
    return a


class TerminationResult(NamedTuple):
    """End-to-end product for one (n, l, convention)."""

    cleared: ClearedPolynomial
    rootset: RootSet


def solve_termination(n: int, l: int,
                      convention: GammaConvention = GammaConvention.TABLE,
                      precision: float = PRECISION) -> TerminationResult:
    """Build the gamma factors, run the recurrence, take the primitive part
    of D_n and isolate its roots in one call."""
    d_n = determinant_sequence(build_gamma_factors(n, l, convention))[n]
    cleared = ClearedPolynomial(tuple(rp.primitive_part(d_n)))
    rootset = isolate_roots(cleared, precision=precision)
    return TerminationResult(cleared=cleared, rootset=rootset)


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
