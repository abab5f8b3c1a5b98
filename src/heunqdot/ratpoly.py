"""Exact polynomial arithmetic and certified root isolation.

Dense polynomials in a single variable t are coefficient lists in ascending
powers of t, of ints or Fractions; an IntPoly holds ints only.

Roots are isolated in plain Python integers. A polynomial is reduced once to
its primitive integer part without the factor t**k (primitive_part) and then,
if it has a repeated root, to its square-free part (squarefree_part). A gcd
of p and p' modulo one prime proves most polynomials square-free, so the
integer gcd runs only when that test cannot decide. The isolator takes
that square-free IntPoly, scales it so that its Cauchy root bound B maps to
1, and isolates its roots in (0, 1), the positive roots and no others, by
Descartes' rule of signs on dyadic subintervals (the Vincent-Collins-Akritas
method in the integer form of Rouillier and Zimmermann, J. Comput. Appl.
Math. 162, 33 (2004)). The tree starts at the deepest dyadic interval
(0, 2^-k0) that Fujiwara's root bound still places every root inside, so it
skips the empty top levels of the grid. Brackets are then refined on the
same IntPoly to the cell of the grid that bisection would end in: a float
Newton iteration names the cell and two integer Horner evaluations certify
it. Where float roundoff put the seed in another cell, the secant through
those two exact values names the next one, with bisection between the grid
points certified on either side of the root as the last fallback. Every
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


# the prime of the modular square-free test, below 2^31
SQUAREFREE_PRIME = 2_147_483_647


def _gcd_degree_mod(a: IntPoly, b: IntPoly, q: int) -> int:
    """Degree of gcd(a mod q, b mod q) over GF(q), for a and b whose leading
    coefficients q does not divide, by Euclid's algorithm."""
    a, b = [c % q for c in a], [c % q for c in b]
    while b:
        inv = pow(b[-1], -1, q)
        db = len(b) - 1
        while len(a) > db:
            f = a[-1] * inv % q
            shift = len(a) - 1 - db
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % q
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def squarefree_part(p: IntPoly) -> tuple[IntPoly, bool]:
    """Return (primitive square-free part of p, had_multiple_roots) for a
    primitive p, such as primitive_part returns.

    The square-free case is settled modulo the prime q = SQUAREFREE_PRIME
    first: if q does not divide the leading coefficient, the degree of
    gcd(p, p') over Q is at most that of gcd(p mod q, p' mod q), so degree 0
    there proves p square-free. Only otherwise does the integer gcd run.
    """
    if len(p) == 1:
        return p, False
    q = SQUAREFREE_PRIME
    if p[-1] % q and not _gcd_degree_mod(p, poly_deriv(p), q):
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


def isolate_positive_roots(sf: IntPoly) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for every positive real root of sf, a square-free
    primitive polynomial with a nonzero constant term, in ascending order.

    Each interval (lo, hi) with 0 <= lo < hi contains exactly one root and
    sf changes sign across it; a degenerate (r, r) interval marks an exact
    rational root. The endpoints are B*m/2^k for the Cauchy bound B of sf,
    the points an interval bisection of (0, B) visits. The tree starts at
    the level _start_level gives, whose interval still holds every root
    modulus. Negative and complex roots are not looked for.
    """
    if len(sf) == 1:
        return []
    bound = cauchy_root_bound(sf)
    d = len(sf) - 1
    # q(x) = Q^d sf(B x) for B = P/Q: its roots in (0, 1) are sf's in (0, B)
    q = _primitive([c * bound.numerator ** i * bound.denominator ** (d - i)
                    for i, c in enumerate(sf)])
    return sorted((bound * Fraction(c, 1 << k), bound * Fraction(c + w, 1 << k))
                  for k, c, w in _dyadic_isolation(q, _start_level(q)))


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


# the float Newton steps _float_seed takes at most
SEED_STEPS = 64


def _float_seed(p: IntPoly, lo: Fraction, hi: Fraction, rising: bool,
                cells: int) -> int | None:
    """The cell j of the grid lo + j (hi - lo)/cells in which a float Newton
    iteration on p finds a root; p rises through the root when rising.

    Each step keeps a float bracket (xl, xh) by the sign of p at the iterate
    and bisects it when the Newton step would leave it. The iteration stops
    once a step is at most half a cell, or once |p| at the iterate is within
    the roundoff of Horner's rule (2^-53 times its running error sum), where
    the sign of p is noise. Returns None on a float overflow or a non-finite
    value. Only a seed: the caller certifies the cell by exact evaluation.
    """
    try:
        coeffs = [float(c) for c in reversed(p)]
        x_lo = xl = float(lo)
        xh = float(hi)
        cell = (xh - xl) / cells
        x = 0.5 * (xl + xh)
        for _ in range(SEED_STEPS):
            f = df = size = 0.0
            ax = abs(x)
            for c in coeffs:
                df = df * x + f
                f = f * x + c
                size = size * ax + abs(f)
            if not math.isfinite(size):
                return None
            # past the roundoff of Horner's rule the sign of f is noise
            if abs(f) <= 2.0 ** -53 * size:
                break
            if (f > 0) == rising:
                xh = x
            else:
                xl = x
            step = f / df if df else math.inf
            x_new = x - step
            if not xl < x_new < xh:
                x_new = 0.5 * (xl + xh)
            step, x = abs(x_new - x), x_new
            if step <= 0.5 * cell:
                break
        j = math.floor((x - x_lo) / cell)
    except OverflowError:  # a coefficient or a value past the float range
        return None
    return min(max(j, 0), cells - 1)


def refine_root_bisect(p: IntPoly, lo: Fraction, hi: Fraction,
                       width: float) -> tuple[Fraction, Fraction]:
    """Shrink an isolating bracket of the integer polynomial p to the cell
    that bisection down to hi - lo <= width ends in.

    Bisection makes the h halvings that bring the width to at most width and
    ends in the unique cell of the grid lo + j (hi - lo)/2^h that holds the
    root inside, or at the root itself when it is a grid point. This returns
    the same Fraction pair. First _float_seed names a cell j and the exact
    values at j and j + 1 certify it: opposite signs make it the cell, and
    a zero is the root itself. Equal signs put the root on one side, and
    the next cell tried is the one that holds the zero of the secant
    through those two exact values, kept between the nearest grid points
    already certified on either side of the root: the neighbour when the
    seed is one cell off, and the root's cell at once when float roundoff
    put the seed many cells away. Otherwise (no seed, or two failed cells)
    plain bisection between those two certified grid points ends in the
    root's cell, or at the root, one exact value per halving.

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

    def cell(j: int) -> tuple[Fraction, Fraction]:
        return Fraction(a + j * step, den), Fraction(a + (j + 1) * step, den)

    v_lo, v_hi = value(0), value(1 << h)
    if not v_lo or not v_hi or (v_lo > 0) == (v_hi > 0):
        raise ValueError("bracket does not straddle a sign change")
    # the seed's cell, then the cell of the zero of the secant through the
    # values at the ends of the last one, kept between the grid points
    # nearest the root on either side that the values have certified
    left, right = 0, 1 << h
    j = _float_seed(p, lo, hi, v_lo < 0, 1 << h)
    for _ in range(0 if j is None else 2):
        v_left, v_right = value(j), value(j + 1)
        if not v_left:
            return exact(j)
        if not v_right:
            return exact(j + 1)
        if (v_left > 0) != (v_right > 0):
            return cell(j)
        if (v_left > 0) == (v_lo > 0):
            left = j + 1
        else:
            right = j
        if v_left != v_right:
            j += v_left // (v_left - v_right)
        j = min(max(j, left), right - 1)
    # bisection between the grid points certified on either side of the root
    while right - left > 1:
        mid = (left + right) // 2
        v_mid = value(mid)
        if not v_mid:
            return exact(mid)
        if (v_mid > 0) == (v_lo > 0):
            left = mid
        else:
            right = mid
    return cell(left)
