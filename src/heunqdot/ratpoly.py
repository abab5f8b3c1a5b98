"""Exact polynomial arithmetic and certified root isolation.

Dense polynomials in a single variable t are coefficient lists in ascending
powers of t, of ints or Fractions; an IntPoly holds ints only.

Roots are isolated in plain Python integers. A polynomial is reduced once to
its primitive integer part without the factor t**k (primitive_part) and then,
if it has a repeated root, to its square-free part (squarefree_part). The
isolator takes that square-free IntPoly, scales it so that its Cauchy root
bound B maps to 1, and isolates its roots in (0, 1) by Descartes' rule of
signs on dyadic subintervals (the Vincent-Collins-Akritas method in the
integer form of Rouillier and Zimmermann, J. Comput. Appl. Math. 162, 33
(2004)). The tree starts at the deepest dyadic interval (0, 2^-k0) that
Fujiwara's root bound still places every root inside, so it skips the empty
top levels of the grid. Brackets are then refined on the same IntPoly by
quadratic interval refinement (Abbott's QIR) on the grid that bisection
would visit, each point's value taken by integer Horner evaluation. Every
returned root carries a rational bracket certified by an exact sign change,
or is an exact rational root. Unlike Fraction arithmetic, the integer
arithmetic takes no gcd after every operation.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

Dense = list[Fraction]  # or list[int]
IntPoly = list[int]

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Dense polynomials (ascending coefficients)
# ---------------------------------------------------------------------------

def poly_trim(p: Dense) -> Dense:
    while p and not p[-1]:
        p = p[:-1]
    return p


def poly_eval(p: Dense, x) -> Fraction | float:
    """Horner evaluation; exact for Fraction x."""
    acc = Fraction(0) if isinstance(x, Fraction) else 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p: Dense) -> Dense:
    return [c * k for k, c in enumerate(p)][1:]


# ---------------------------------------------------------------------------
# Integer polynomials: primitive and square-free parts
# ---------------------------------------------------------------------------

def _primitive(p: IntPoly) -> IntPoly:
    """p divided by its content, with a positive leading coefficient."""
    g = math.gcd(*p)
    return [c // (-g if p[-1] < 0 else g) for c in p]


def primitive_part(p: Dense) -> IntPoly:
    """The primitive integer polynomial with the nonzero roots of p.

    Clears denominators, strips the factor t**k (t = 0 is never reported as a
    root) and divides by the content; the leading coefficient is positive.
    Every other root keeps its multiplicity.
    """
    p = poly_trim(list(p))
    if not p:
        raise ValueError("the zero polynomial has no primitive part")
    while not p[0]:
        p = p[1:]
    den = math.lcm(*(Fraction(c).denominator for c in p))
    return _primitive([int(c * den) for c in p])


def _pseudo_remainder(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive part of the pseudo-remainder of a by b, deg a >= deg b."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) > db:
        g = math.gcd(r[-1], lb)
        scale, factor = lb // g, r[-1] // g
        shift = len(r) - 1 - db
        r = [c * scale for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        while r and not r[-1]:
            r.pop()
    return _primitive(r) if r else r


def _gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd of primitive a and b, deg a >= deg b, by the primitive
    pseudo-remainder sequence."""
    while b:
        a, b = b, _pseudo_remainder(a, b)
    return a


def _divide_exact(a: IntPoly, b: IntPoly) -> IntPoly:
    """a / b for a primitive b that divides a (the quotient is integral)."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for i in reversed(range(len(q))):
        c = q[i] = r[i + db] // lb
        for j, bj in enumerate(b):
            r[i + j] -= c * bj
    return q


def squarefree_part(p: IntPoly) -> tuple[IntPoly, bool]:
    """Return (primitive square-free part of p, had_multiple_roots) for a
    primitive p, such as primitive_part returns."""
    if len(p) == 1:
        return p, False
    g = _gcd(p, _primitive(poly_deriv(p)))
    if len(g) == 1:
        return p, False
    return _divide_exact(p, g), True


def cauchy_root_bound(p: Dense) -> Fraction:
    """All real roots of p (degree >= 1, no trailing zero) lie in (-B, B)
    with B = 1 + max |a_i / a_n|."""
    return ONE + max(abs(c) for c in p[:-1]) / Fraction(abs(p[-1]))


# ---------------------------------------------------------------------------
# Root isolation: Descartes' rule on dyadic intervals
# ---------------------------------------------------------------------------

def _taylor_shift(p: IntPoly) -> IntPoly:
    """Coefficients of p(x + 1)."""
    a = list(p)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _descartes_bound(p: IntPoly) -> int:
    """Sign variations of (1 + x)^d p(1 / (1 + x)): an upper bound, of the
    same parity, on the number of roots of p in (0, 1)."""
    signs = [c > 0 for c in _taylor_shift(p[::-1]) if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _floor_log2(a: int, b: int) -> int:
    """floor(log2(a / b)) for positive integers a and b."""
    e = a.bit_length() - b.bit_length()
    if a << max(-e, 0) < b << max(e, 0):
        e -= 1
    return e


def _start_level(q: IntPoly) -> int:
    """The largest k >= 0 such that every root of q has modulus below 2^-k.

    By Fujiwara's bound every root z of q has |z| < 2 max_i |q_(d-i)/q_d|^(1/i)
    (i = 1..d). That bound is at most 2^-k iff |q_(d-i)| 2^((k+1) i) <= |q_d|
    for every i, that is k + 1 <= floor(log2 |q_d / q_(d-i)|) / i, which is
    decided on integers.
    """
    d, lead = len(q) - 1, abs(q[-1])
    return max(0, min(_floor_log2(lead, abs(c)) // (d - i) - 1
                      for i, c in enumerate(q[:-1]) if c))


def _dyadic_isolation(q: IntPoly, start: int) -> list[tuple[int, int, int]]:
    """Isolate the roots in (0, 2^-start) of the square-free integer
    polynomial q, starting the tree at the node (start, 0).

    The node (k, c) stands for the interval (c/2^k, (c+1)/2^k) and holds
    p = 2^(kd) q((x + c)/2^k), whose roots in (0, 1) are q's roots in that
    interval. A node with no sign variation is dropped; one with a single
    variation and no root at either end is an isolating interval. Any other
    node splits into 2^d p(x/2) and its shift by 1. A zero constant term in
    the right half is a root exactly at the midpoint: it is recorded, and
    Descartes' rule, which counts only roots inside (0, 1), leaves it out of
    both halves.

    Returns (k, c, w) for each root: the root lies in (c/2^k, (c+1)/2^k)
    when w = 1 and is c/2^k when w = 0.
    """
    d = len(q) - 1
    found: list[tuple[int, int, int]] = []
    stack = [(start, 0, [a << (start * (d - i)) for i, a in enumerate(q)])]
    while stack:
        k, c, p = stack.pop()
        variations = _descartes_bound(p)
        if variations == 0:
            continue
        if variations == 1 and p[0] and sum(p):
            found.append((k, c, 1))
            continue
        left = [a << (d - i) for i, a in enumerate(p)]
        right = _taylor_shift(left)
        if not right[0]:
            found.append((k + 1, 2 * c + 1, 0))
        stack.append((k + 1, 2 * c + 1, right))
        stack.append((k + 1, 2 * c, left))
    return found


def isolate_positive_roots(sf: IntPoly) -> tuple[list[tuple[Fraction, Fraction]], int]:
    """Isolating intervals for every positive real root of sf, a square-free
    primitive polynomial with a nonzero constant term.

    Returns (intervals, negative_root_count). Each interval (lo, hi) with
    0 <= lo < hi contains exactly one root and sf changes sign across it; a
    degenerate (r, r) interval marks an exact rational root. The endpoints
    are B*m/2^k for the Cauchy bound B of sf, the points an interval
    bisection of (0, B) visits. Both trees, for the positive roots and for
    the negative-root count, start at the level _start_level gives, whose
    interval still holds every root modulus.
    """
    if len(sf) == 1:
        return [], 0
    bound = cauchy_root_bound(sf)
    d = len(sf) - 1
    # q(x) = Q^d sf(B x) for B = P/Q: its roots in (0, 1) are sf's in (0, B)
    q = _primitive([c * bound.numerator ** i * bound.denominator ** (d - i)
                    for i, c in enumerate(sf)])
    start = _start_level(q)
    n_neg = len(_dyadic_isolation(
        [-c if i % 2 else c for i, c in enumerate(q)], start))
    intervals = sorted((bound * Fraction(c, 1 << k),
                        bound * Fraction(c + w, 1 << k))
                       for k, c, w in _dyadic_isolation(q, start))
    return intervals, n_neg


def _value_at(p: IntPoly, m: int, den: int) -> int:
    """den^d p(m/den) for den > 0: the integer sum_i p_i m^i den^(d-i)."""
    acc, scale = p[-1], 1
    for c in reversed(p[:-1]):
        scale *= den
        acc = acc * m + c * scale
    return acc


@functools.lru_cache(maxsize=16)
def _width_fraction(width: float) -> Fraction:
    return Fraction(width).limit_denominator(10 ** 18)


def refine_root_bisect(p: IntPoly, lo: Fraction, hi: Fraction,
                       width: float) -> tuple[Fraction, Fraction]:
    """Shrink an isolating bracket of the integer polynomial p to the cell
    that bisection down to hi - lo <= width ends in.

    Bisection makes the h halvings that bring the width to at most width and
    ends in the unique cell of the grid lo + j (hi - lo)/2^h that holds the
    root inside, or at the root itself when it is a grid point. This returns
    the same Fraction pair by quadratic interval refinement (J. Abbott,
    "Quadratic interval refinement for real roots", 2006) on that grid: the
    secant through the values at the ends of the current cell picks the
    nearest of N equal sub-cell boundaries, and two evaluations test the
    sub-cell on the root's side of it. On success that sub-cell is the new
    cell and N becomes N^2; on failure the cell is bisected and N becomes
    sqrt(N). N is a power of two and at most the cell's length in grid
    steps, so every cell is one that bisection visits.

    Every value is the integer den^d p(x) at one common den, so the final
    bracket is a certificate: p(lo) and p(hi) have strictly opposite signs,
    or lo == hi is an exact root. A bracket that holds several roots still
    gets a certified bracket of one of them.
    """
    if lo == hi:
        return lo, hi
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    step = hi.numerator * (den // hi.denominator) - a
    w = _width_fraction(width)
    # the least h >= 0 with step / (den 2^h) <= w; grid point j is (a + j step)/den
    h = max(0, -_floor_log2(w.numerator * den, step * w.denominator))
    a, den = a << h, den << h
    values: dict[int, int] = {}

    def value(j: int) -> int:
        if j not in values:
            values[j] = _value_at(p, a + j * step, den)
        return values[j]

    def exact(j: int) -> tuple[Fraction, Fraction]:
        r = Fraction(a + j * step, den)
        return r, r

    v_lo, v_hi = value(0), value(1 << h)
    if not v_lo or not v_hi or (v_lo > 0) == (v_hi > 0):
        raise ValueError("bracket does not straddle a sign change")
    # the cell is grid points lo_j .. lo_j + 2^g; N = 2^e sub-cells
    lo_j, g, e = 0, h, 2
    while g:
        v_lo, v_hi = value(lo_j), value(lo_j + (1 << g))
        e_cell = min(e, g)
        n, sub = 1 << e_cell, 1 << (g - e_cell)
        # the sub-cell boundary k nearest the secant's zero n v_lo/(v_lo - v_hi)
        k = (2 * n * v_lo + v_lo - v_hi) // (2 * (v_lo - v_hi))
        m = lo_j + k * sub
        v_m = v_lo if k == 0 else v_hi if k == n else value(m)
        if not v_m:
            return exact(m)
        c = m + sub if (v_m > 0) == (v_lo > 0) else m - sub
        v_c = value(c)
        if not v_c:
            return exact(c)
        if (v_c > 0) != (v_m > 0):
            lo_j, g, e = min(m, c), g - e_cell, 2 * e
            continue
        mid = lo_j + (1 << (g - 1))
        v_mid = value(mid)
        if not v_mid:
            return exact(mid)
        if (v_mid > 0) == (v_lo > 0):
            lo_j = mid
        g, e = g - 1, max(1, e // 2)
    return Fraction(a + lo_j * step, den), Fraction(a + (lo_j + 1) * step, den)
