import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from heunqdot import ratpoly as rp
from heunqdot.termination import (
    GammaConvention,
    build_gamma_factors,
    determinant_sequence,
)
from test_root_isolation import T, _expand, factor_lists

F = Fraction


def test_descartes_counts_roots():
    # roots at 1, 2, 3; the bound counts the roots in (0, 1) of its argument
    on_0_4 = [-6, 44, -96, 64]          # p(4x): t in (0, 4)
    assert rp._descartes_bound(on_0_4) == 3
    assert rp._descartes_bound(rp._taylor_shift(on_0_4)) == 0  # t in (4, 8)
    # 8 p(3/2 + x) = 8x^3 - 12x^2 - 2x + 3: only t = 2 lies in (3/2, 5/2)
    assert rp._descartes_bound([3, -2, -12, 8]) == 1
    # on the dyadic grid of (0, 4) each root is found exactly at a midpoint
    assert sorted(rp._dyadic_isolation(on_0_4, 0)) == [
        (1, 1, 0), (2, 1, 0), (2, 3, 0)]


def test_isolate_positive_roots_simple_cubic():
    # t^3 - 16: single positive root 16^(1/3)
    p = [-16, 0, 0, 1]
    intervals, n_neg = rp.isolate_positive_roots(p)
    assert len(intervals) == 1 and n_neg == 0
    lo, hi = rp.refine_root_bisect(p, *intervals[0], 1e-13)
    mid = float((lo + hi) / 2)
    assert abs(mid - 16 ** (1 / 3)) < 1e-12
    # exact sign change certification
    assert rp.poly_eval(p, lo) * rp.poly_eval(p, hi) < 0


def test_isolate_detects_exact_rational_root():
    # (t-1)(t-2)(t-3): the Cauchy bound is 12, so subdivision midpoints hit 3
    p = [-6, 11, -6, 1]
    intervals, _ = rp.isolate_positive_roots(p)
    assert (F(3), F(3)) in intervals
    assert len(intervals) == 3


def test_isolate_strips_zero_roots():
    # t * (t - 2): primitive_part strips the factor t
    p = rp.primitive_part([F(0), F(-2), F(1)])
    assert p == [-2, 1]
    intervals, _ = rp.isolate_positive_roots(p)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo < 2 < hi


def test_isolate_counts_negative_roots():
    # (t-1)(t+2)(t+3) = t^3 + 4t^2 + t - 6
    p = [-6, 1, 4, 1]
    intervals, n_neg = rp.isolate_positive_roots(p)
    assert len(intervals) == 1
    assert n_neg == 2


def test_repeated_root_flagged():
    # (t - 1)^2 (t - 3)
    sf, multiple = rp.squarefree_part([-3, 7, -5, 1])
    assert multiple and sf == [3, -4, 1]
    intervals, _ = rp.isolate_positive_roots(sf)
    assert len(intervals) == 2  # distinct roots 1 and 3


# ---------------------------------------------------------------------------
# Refinement: brackets bit-identical to exact bisection
# ---------------------------------------------------------------------------

PRECISIONS = (1e-6, 1e-13, 1e-14)  # decreasing


def bisect_reference(p, lo, hi, widths):
    """Exact bisection of a sign-change bracket, the loop refine_root_bisect
    ran before quadratic interval refinement, stopped at hi - lo <= width for
    each of the decreasing widths in turn: a narrower width only continues
    the same halvings, so one pass gives the bracket for every width."""
    if lo == hi:
        return [(lo, hi)] * len(widths)
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    s_lo = _sign(rp._value_at(p, a, den))
    if s_lo * _sign(rp._value_at(p, b, den)) >= 0:
        raise ValueError("bracket does not straddle a sign change")
    brackets = []
    for width in widths:
        w = Fraction(width).limit_denominator(10 ** 18)
        while (b - a) * w.denominator > w.numerator * den:
            m, a, b, den = a + b, 2 * a, 2 * b, 2 * den
            s_mid = _sign(rp._value_at(p, m, den))
            if s_mid == 0:
                r = Fraction(m, den)
                return brackets + [(r, r)] * (len(widths) - len(brackets))
            if s_lo * s_mid < 0:
                b = m
            else:
                a = m
        brackets.append((Fraction(a, den), Fraction(b, den)))
    return brackets


def _sign(v):
    return (v > 0) - (v < 0)


def assert_refinement_matches_bisection(coefficients):
    """refine_root_bisect gives bisect_reference's Fraction pair on every
    isolating interval of the polynomial, at every precision; returns the
    number of intervals."""
    sf = rp.squarefree_part(rp.primitive_part(coefficients))[0]
    intervals = rp.isolate_positive_roots(sf)[0]
    for lo, hi in intervals:
        refined = [rp.refine_root_bisect(sf, lo, hi, w) for w in PRECISIONS]
        assert refined == bisect_reference(sf, lo, hi, PRECISIONS), (sf, lo, hi)
    return len(intervals)


@pytest.mark.parametrize("convention", list(GammaConvention))
def test_refinement_matches_bisection_on_determinants(convention):
    roots = 0
    for n in range(2, 23):
        for l in range(4):
            system = build_gamma_factors(n, l, convention)
            roots += assert_refinement_matches_bisection(
                determinant_sequence(system)[n])
    assert roots > 400


@settings(max_examples=60, deadline=None)
@given(factor_lists, st.integers(0, 2),
       st.sampled_from([Fraction(1), Fraction(-3, 7), Fraction(5, 2)]))
def test_refinement_matches_bisection_on_random_polynomials(
        factors, zero_power, scale):
    coefficients = _expand(factors, zero_power, scale)
    if len(coefficients) - 1 > zero_power:
        assert_refinement_matches_bisection(coefficients)


@pytest.mark.parametrize("p, root, isolated", [
    ([-6, 11, -6, 1], F(3), True),      # (t-1)(t-2)(t-3): B = 12, 3 = 12/4
    ([-7, 6, 1], F(1), False),          # (t-1)(t+7): B = 8, 1 = 8/8
    ([-15, 2, 1], F(3), False),         # (t-3)(t+5): B = 16, 3 = 16 * 3/16
])
def test_exact_grid_roots_come_back_as_points(p, root, isolated):
    # a root on the grid is exact from isolation, or hit by refinement
    (lo, hi), = [iv for iv in rp.isolate_positive_roots(p)[0]
                 if iv[0] <= root <= iv[1]]
    assert (lo == hi) == isolated
    refined = [rp.refine_root_bisect(p, lo, hi, w) for w in PRECISIONS]
    assert refined == bisect_reference(p, lo, hi, PRECISIONS) == [(root, root)] * 3


def test_refinement_keeps_its_errors():
    with pytest.raises(ValueError, match="does not straddle"):
        rp.refine_root_bisect([-2, 0, 1], F(2), F(3), 1e-13)
    with pytest.raises(ValueError, match="does not straddle"):
        rp.refine_root_bisect([-6, 11, -6, 1], F(1), F(3, 2), 1e-13)
    assert rp.refine_root_bisect([-2, 1], F(2), F(2), 1e-13) == (F(2), F(2))


# ---------------------------------------------------------------------------
# The start level of the Descartes trees
# ---------------------------------------------------------------------------

def _cauchy_scaled(sf):
    """(B, q) as isolate_positive_roots builds them: q(x) = Q^d sf(B x)."""
    bound = rp.cauchy_root_bound(sf)
    d = len(sf) - 1
    return bound, rp._primitive([c * bound.numerator ** i
                                 * bound.denominator ** (d - i)
                                 for i, c in enumerate(sf)])


def _fujiwara_within(q, k):
    """2 max_i |q_(d-i)/q_d|^(1/i) <= 2^-k, by plain integer powers."""
    d = len(q) - 1
    return all(abs(c) * 2 ** ((k + 1) * (d - i)) <= abs(q[-1])
               for i, c in enumerate(q[:-1]))


def _root_moduli(p):
    return [abs(complex(z)) for z in sympy.Poly(list(reversed(p)), T).nroots(n=30)]


def assert_start_level_is_strict(sf):
    """Every root modulus of sf lies below B/2^k0, k0 is the largest level
    Fujiwara's bound allows, and the trees started at k0 and at 0 give the
    same roots and the same negative count."""
    bound, q = _cauchy_scaled(sf)
    k0 = rp._start_level(q)
    assert k0 == 0 or _fujiwara_within(q, k0)
    assert not _fujiwara_within(q, k0 + 1)
    top = bound / 2 ** k0
    assert all(r < top for r in _root_moduli(sf))

    def roots(start):
        return sorted(rp.refine_root_bisect(
            sf, bound * F(c, 1 << k), bound * F(c + w, 1 << k), 1e-13)
            for k, c, w in rp._dyadic_isolation(q, start))

    def negative_count(start):
        mirrored = [-c if i % 2 else c for i, c in enumerate(q)]
        return len(rp._dyadic_isolation(mirrored, start))

    assert roots(k0) == roots(0)
    assert negative_count(k0) == negative_count(0)
    return k0


@pytest.mark.parametrize("d", range(1, 9))
def test_start_level_at_a_power_of_two(d):
    # 2^(jd) x^d - 1: every root has modulus 2^-j and Fujiwara's bound
    # reaches 2^(1-j) exactly, so the start level is j - 1 and no deeper
    for j in range(6):
        q = [-1] + [0] * (d - 1) + [1 << (j * d)]
        assert rp._start_level(q) == max(0, j - 1)
    # t^d - 2^d: every root has modulus 2
    assert_start_level_is_strict([-(1 << d)] + [0] * (d - 1) + [1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=2, max_size=9))
def test_start_level_on_random_polynomials(coefficients):
    if not any(coefficients):
        return
    sf = rp.squarefree_part(rp.primitive_part(coefficients))[0]
    if len(sf) > 1:
        assert_start_level_is_strict(sf)


def test_start_level_skips_empty_levels():
    # the n = 5, l = 0 table determinant: B = 31361, its roots all lie below
    # 31, and the trees start 9 levels down, at (0, B/512)
    p = rp.primitive_part(determinant_sequence(build_gamma_factors(5, 0))[5])
    sf = rp.squarefree_part(p)[0]
    bound, q = _cauchy_scaled(sf)
    assert bound == 31361 and rp._start_level(q) == 9
    assert assert_start_level_is_strict(sf) == 9
