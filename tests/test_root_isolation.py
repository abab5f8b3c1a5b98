"""isolate_roots cross-checked against sympy's own real-root isolation."""

import math
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from heunqdot import ratpoly as rp
from heunqdot.termination import (PRECISION, ClearedPolynomial, isolate_roots,
                                  solve_termination)

T = sympy.Symbol("t")


def check_against_sympy(coefficients):
    """Positive roots, brackets and certificates of isolate_roots against
    sympy."""
    coefficients = list(coefficients)
    poly = sympy.Poly(coefficients[::-1], T, domain="QQ")
    squarefree = poly.sqf_part()
    real = squarefree.real_roots()  # distinct, ascending, exact
    positive = [r for r in real if r.is_positive]

    primitive = rp.primitive_part(coefficients)
    rootset = isolate_roots(ClearedPolynomial(tuple(primitive)))
    assert len(rootset.roots) == len(positive)

    # each root keeps the exact bracket of the same ratpoly steps
    sf = rp.squarefree_part(primitive)[0]
    intervals = rp.isolate_positive_roots(sf)
    for root, exact, (lo, hi) in zip(rootset.roots, positive, intervals):
        lo, hi = rp.refine_root_bisect(sf, lo, hi, PRECISION)
        assert root.bracket == (lo, hi)
        assert hi - lo <= Fraction(PRECISION).limit_denominator(10 ** 18)
        if lo == hi:
            assert rp.poly_eval(sf, lo) == 0 and exact == sympy.Rational(
                lo.numerator, lo.denominator)
        else:
            assert rp.poly_eval(sf, lo) * rp.poly_eval(sf, hi) < 0
            assert sympy.Rational(lo.numerator, lo.denominator) < exact
            assert exact < sympy.Rational(hi.numerator, hi.denominator)


def _expand(factors, zero_power, scale):
    expr = scale * T ** zero_power
    for factor, multiplicity in factors:
        expr *= factor ** multiplicity
    return [int(c) for c in reversed(sympy.Poly(expr, T).all_coeffs())]


def _is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


# den t - num for a rational root num/den
linear = st.fractions(min_value=-12, max_value=12, max_denominator=6).map(
    lambda r: r.denominator * T - r.numerator)
# t^2 + b t + c, irreducible over Q: a complex pair or two real surds
quadratic = st.tuples(st.integers(-9, 9), st.integers(-30, 30)).filter(
    lambda bc: not _is_square(bc[0] ** 2 - 4 * bc[1])).map(
    lambda bc: T ** 2 + bc[0] * T + bc[1])
factor_lists = st.lists(st.tuples(st.one_of(linear, quadratic),
                                  st.integers(1, 3)), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(factor_lists, st.integers(0, 2),
       st.sampled_from([1, -3, 5]))
def test_random_polynomials_match_sympy(factors, zero_power, scale):
    coefficients = _expand(factors, zero_power, scale)
    if len(coefficients) - 1 > zero_power:  # something beside t**k
        check_against_sympy(coefficients)


def test_n16_l1_determinant_matches_sympy():
    res = solve_termination(16, 1)
    assert len(res.rootset.roots) == 8
    check_against_sympy(res.cleared.coefficients)
