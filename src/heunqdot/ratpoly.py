"""Exact-rational Laurent/dense polynomial arithmetic and certified root isolation.

Laurent polynomials in a single variable t are sparse dicts {exponent: Fraction}
(exponents may be negative); dense polynomials are Fraction coefficient lists in
ascending powers of t. Positive real roots are isolated with a Sturm chain over
the rationals and refined by exact bisection, so every returned root carries a
bracket certified by an exact sign change.

Degrees stay small here (the termination determinants have degree <= n + n - 1
for state label n <= ~10), so no coefficient-growth countermeasures are needed.
"""

from __future__ import annotations

import logging
from fractions import Fraction

log = logging.getLogger(__name__)

Laurent = dict[int, Fraction]
Dense = list[Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Laurent polynomials (sparse, exponents in Z)
# ---------------------------------------------------------------------------

def lau_add(a: Laurent, b: Laurent) -> Laurent:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, ZERO) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def lau_sub(a: Laurent, b: Laurent) -> Laurent:
    return lau_add(a, {e: -c for e, c in b.items()})


def lau_mul(a: Laurent, b: Laurent) -> Laurent:
    out: Laurent = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, ZERO) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def lau_eval(a: Laurent, t) -> Fraction | float:
    """Evaluate at t; exact if t is a Fraction, float otherwise. Requires t != 0."""
    if isinstance(t, Fraction):
        acc = Fraction(0)
    else:
        acc = 0.0
    for e, c in a.items():
        acc += c * t ** e
    return acc


def lau_min_exp(a: Laurent) -> int:
    if not a:
        raise ValueError("zero Laurent polynomial has no exponent range")
    return min(a)


def lau_max_exp(a: Laurent) -> int:
    if not a:
        raise ValueError("zero Laurent polynomial has no exponent range")
    return max(a)


def lau_to_dense(a: Laurent) -> tuple[Dense, int]:
    """Multiply by the minimal power of t making all exponents >= 0.

    Returns (dense ascending coefficients, clearing power e) with
    dense(t) == a(t) * t**e for t != 0.
    """
    if not a:
        raise ValueError("cannot clear the zero polynomial")
    e = max(0, -lau_min_exp(a))
    deg = lau_max_exp(a) + e
    coeffs = [ZERO] * (deg + 1)
    for k, c in a.items():
        coeffs[k + e] = c
    return coeffs, e


# ---------------------------------------------------------------------------
# Dense polynomials (ascending Fraction coefficients)
# ---------------------------------------------------------------------------

def poly_trim(p: Dense) -> Dense:
    while p and not p[-1]:
        p = p[:-1]
    return p


def poly_degree(p: Dense) -> int:
    p = poly_trim(p)
    return len(p) - 1 if p else -1


def poly_eval(p: Dense, x) -> Fraction | float:
    """Horner evaluation; exact for Fraction x."""
    acc = Fraction(0) if isinstance(x, Fraction) else 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p: Dense) -> Dense:
    return [c * k for k, c in enumerate(p)][1:]


def poly_divmod(a: Dense, b: Dense) -> tuple[Dense, Dense]:
    a = poly_trim(list(a))
    b = poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and poly_trim(r):
        dr = len(poly_trim(r)) - 1
        if dr < db:
            break
        r = poly_trim(r)
        coef = r[-1] / lead
        q[dr - db] = coef
        for i in range(db + 1):
            r[dr - db + i] -= coef * b[i]
        r = poly_trim(r)
    return poly_trim(q), poly_trim(r)


def poly_gcd(a: Dense, b: Dense) -> Dense:
    """Monic gcd over Q."""
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


# ---------------------------------------------------------------------------
# Sturm chain and root counting
# ---------------------------------------------------------------------------

def sturm_chain(p: Dense) -> list[Dense]:
    """Sturm sequence of a square-free p (caller ensures square-freeness)."""
    chain = [poly_trim(list(p)), poly_deriv(p)]
    while poly_trim(chain[-1]):
        rem = poly_divmod(chain[-2], chain[-1])[1]
        chain.append([-c for c in rem])
    return chain[:-1]


def sign_variations(chain: list[Dense], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = poly_eval(q, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_open_closed(chain: list[Dense], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b]."""
    return sign_variations(chain, a) - sign_variations(chain, b)


def cauchy_root_bound(p: Dense) -> Fraction:
    """All real roots lie in (-B, B) with B = 1 + max |a_i / a_n|."""
    p = poly_trim(p)
    lead = abs(p[-1])
    if len(p) == 1:
        return ONE
    return ONE + max(abs(c) / lead for c in p[:-1])


def squarefree_part(p: Dense) -> tuple[Dense, bool]:
    """Return (p / gcd(p, p'), had_multiple_roots)."""
    g = poly_gcd(p, poly_deriv(p))
    if poly_degree(g) <= 0:
        return poly_trim(list(p)), False
    q, r = poly_divmod(p, g)
    assert not r
    return q, True


def isolate_positive_roots(p: Dense) -> tuple[list[tuple[Fraction, Fraction]], int, bool]:
    """Isolating intervals for every positive real root of p.

    Returns (intervals, negative_root_count, had_multiple_roots). Each interval
    (lo, hi) with 0 <= lo < hi contains exactly one root and p changes sign
    across it; a degenerate (r, r) interval marks an exact rational root.
    p must have a nonzero constant term (t = 0 is never a root here).
    """
    p = poly_trim(list(p))
    if poly_degree(p) <= 0:
        return [], 0, False
    while p and not p[0]:  # strip t = 0 roots; never reported as numeric roots
        p = p[1:]
    if poly_degree(p) <= 0:
        return [], 0, False

    sf, multiple = squarefree_part(p)
    if multiple:
        log.warning("repeated roots detected; isolating on the square-free part")
    chain = sturm_chain(sf)
    bound = cauchy_root_bound(sf)

    n_neg = count_roots_open_closed(chain, -bound, ZERO)
    if poly_eval(sf, ZERO) == 0:  # unreachable given the constant-term check
        n_neg -= 1

    intervals: list[tuple[Fraction, Fraction]] = []
    width_floor = bound / 2 ** 300
    stack = [(ZERO, bound)]
    while stack:
        lo, hi = stack.pop()
        n = count_roots_open_closed(chain, lo, hi)
        if n == 0:
            continue
        if hi - lo < width_floor:
            raise RuntimeError("root isolation failed to separate roots; "
                               "pathological clustering")
        if n == 1 and poly_eval(sf, lo) * poly_eval(sf, hi) < 0:
            intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if poly_eval(sf, mid) == 0:
            intervals.append((mid, mid))
            # exclude the exact root from both halves by a tiny margin
            eps = (hi - lo) / 2 ** 20
            stack.append((lo, mid - eps))
            stack.append((mid + eps, hi))
        else:
            stack.append((lo, mid))
            stack.append((mid, hi))
    # every positive root must be accounted for (the exclusion margins above
    # cannot be allowed to swallow one silently)
    if len(intervals) != count_roots_open_closed(chain, ZERO, bound):
        raise RuntimeError("root isolation lost a root to an exclusion margin")
    intervals.sort()
    return intervals, n_neg, multiple


def refine_root_bisect(p: Dense, lo: Fraction, hi: Fraction,
                       width: float) -> tuple[Fraction, Fraction]:
    """Shrink a sign-change bracket by exact bisection until hi - lo <= width.

    Evaluation stays in exact rational arithmetic, so the final bracket is a
    certificate: p(lo) and p(hi) have strictly opposite signs.
    """
    flo = poly_eval(p, lo)
    fhi = poly_eval(p, hi)
    if lo == hi:
        return lo, hi
    if flo * fhi >= 0:
        raise ValueError("bracket does not straddle a sign change")
    w = Fraction(width).limit_denominator(10 ** 18)
    while hi - lo > w:
        mid = (lo + hi) / 2
        fm = poly_eval(p, mid)
        if fm == 0:
            return mid, mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return lo, hi
