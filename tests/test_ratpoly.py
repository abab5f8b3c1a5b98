import math
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from heunqdot import ratpoly as rp
from heunqdot.report import CONVENTIONS
from heunqdot.termination import (
    GammaConvention,
    build_gamma_factors,
    determinant_sequence,
    solve_termination,
)
from test_root_isolation import T, _expand, factor_lists

F = Fraction
Q = rp.SQUAREFREE_PRIME


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
    intervals = rp.isolate_positive_roots(p)
    assert len(intervals) == 1
    lo, hi = rp.refine_root_bisect(p, *intervals[0], 1e-13)
    mid = float((lo + hi) / 2)
    assert abs(mid - 16 ** (1 / 3)) < 1e-12
    # exact sign change certification
    assert rp.poly_eval(p, lo) * rp.poly_eval(p, hi) < 0


def test_isolate_detects_exact_rational_root():
    # (t-1)(t-2)(t-3): the Cauchy bound is 12, so subdivision midpoints hit 3
    p = [-6, 11, -6, 1]
    intervals = rp.isolate_positive_roots(p)
    assert (F(3), F(3)) in intervals
    assert len(intervals) == 3


def test_isolate_strips_zero_roots():
    # t * (t - 2): primitive_part strips the factor t
    p = rp.primitive_part([0, -2, 1])
    assert p == [-2, 1]
    intervals = rp.isolate_positive_roots(p)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo < 2 < hi


def test_isolate_skips_negative_roots():
    # (t-1)(t+2)(t+3) = t^3 + 4t^2 + t - 6
    p = [-6, 1, 4, 1]
    intervals = rp.isolate_positive_roots(p)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo < 1 < hi


def test_repeated_root_flagged():
    # (t - 1)^2 (t - 3)
    sf, multiple = rp.squarefree_part([-3, 7, -5, 1])
    assert multiple and sf == [3, -4, 1]
    intervals = rp.isolate_positive_roots(sf)
    assert len(intervals) == 2  # distinct roots 1 and 3


# ---------------------------------------------------------------------------
# Square-free part: the modular test ahead of the integer gcd
# ---------------------------------------------------------------------------

def integer_squarefree(p):
    """squarefree_part without the modular test: the integer gcd of p and p'
    decides every case."""
    if len(p) == 1:
        return p, False
    g = rp._gcd(p, rp._primitive(rp.poly_deriv(p)))
    if len(g) == 1:
        return p, False
    return rp._divide_exact(p, g), True


def _counting_gcd(monkeypatch) -> list:
    """The calls of the integer gcd from now on."""
    calls = []
    gcd = rp._gcd

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)
    monkeypatch.setattr(rp, "_gcd", counted)
    return calls


@pytest.mark.parametrize("convention", list(GammaConvention))
def test_squarefree_matches_integer_gcd_on_determinants(convention):
    for n in range(1, 23):
        for l in range(4):
            system = build_gamma_factors(n, l, convention)
            p = rp.primitive_part(determinant_sequence(system)[n])
            assert rp.squarefree_part(p) == integer_squarefree(p), (n, l)


@settings(max_examples=60, deadline=None)
@given(factor_lists, st.sampled_from([1, -3]))
def test_squarefree_matches_integer_gcd_with_repeated_roots(factors, scale):
    p = rp.primitive_part(_expand(factors, 0, scale))
    assert rp.squarefree_part(p) == integer_squarefree(p)


@pytest.mark.parametrize("factors, multiple", [
    ([(Q * T - 1, 1), (T - 2, 1)], False),
    ([(Q * T - 1, 2), (T - 2, 1)], True),
    ([(Q * T + 5, 1), (T ** 2 + 1, 2)], True),
])
def test_squarefree_when_the_prime_divides_the_leading_coefficient(
        monkeypatch, factors, multiple):
    p = rp.primitive_part(_expand(factors, 0, 1))
    assert p[-1] % Q == 0
    calls = _counting_gcd(monkeypatch)
    result = rp.squarefree_part(p)
    assert calls and result == integer_squarefree(p)
    assert result[1] == multiple


def test_squarefree_modulo_the_prime_is_only_a_filter(monkeypatch):
    """t^2 + q is square-free over Q but t^2 modulo q: the integer gcd
    decides."""
    calls = _counting_gcd(monkeypatch)
    assert rp.squarefree_part([Q, 0, 1]) == ([Q, 0, 1], False)
    assert len(calls) == 1


def test_dossier_never_runs_the_integer_gcd(monkeypatch):
    calls = _counting_gcd(monkeypatch)
    solves = 0
    for convention in CONVENTIONS:
        for n in range(2, 6):
            for l in range(2):
                solve_termination(n, l, convention)
                solves += 1
    assert solves == 16 and not calls


# ---------------------------------------------------------------------------
# Refinement: brackets bit-identical to exact bisection
# ---------------------------------------------------------------------------

PRECISIONS = (1e-6, 1e-13, 1e-14)  # decreasing


def bisect_reference(p, lo, hi, widths):
    """Exact bisection of a sign-change bracket from its ends, the brackets
    refine_root_bisect must return, stopped at hi - lo <= width for each of
    the decreasing widths in turn: a narrower width only continues the same
    halvings, so one pass gives the bracket for every width."""
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
    intervals = rp.isolate_positive_roots(sf)
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
       st.sampled_from([1, -3, 5]))
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
    (lo, hi), = [iv for iv in rp.isolate_positive_roots(p)
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
# The float seed of refinement and its fallback
# ---------------------------------------------------------------------------

def _seeding(monkeypatch, move):
    """Replace the float seed by move(seed, cells)."""
    seed = rp._float_seed

    def moved(p, lo, hi, rising, cells):
        return move(seed(p, lo, hi, rising, cells), cells)
    monkeypatch.setattr(rp, "_float_seed", moved)


def _halvings(lo, hi, width):
    """h: the halvings that bring hi - lo to at most width."""
    w = Fraction(width).limit_denominator(10 ** 18)
    h = 0
    while (hi - lo) / 2 ** h > w:
        h += 1
    return h


def _counted_refine(monkeypatch):
    """refine_root_bisect that also returns the exact values it took."""
    value_at, count = rp._value_at, [0]

    def counted(*args):
        count[0] += 1
        return value_at(*args)
    monkeypatch.setattr(rp, "_value_at", counted)

    def refine(*args):
        count[0] = 0
        return rp.refine_root_bisect(*args), count[0]
    return refine


def _determinants(ns):
    return [determinant_sequence(build_gamma_factors(n, l, convention))[n]
            for convention in GammaConvention for n in ns for l in range(3)]


@pytest.mark.parametrize("move", [
    lambda j, cells: None,                  # no seed: bisection alone
    lambda j, cells: 0,                     # the first cell of the grid
    lambda j, cells: cells - 1,             # the last one
    lambda j, cells: min(j + 2, cells - 1),  # two cells right of the root
    lambda j, cells: max(j - 2, 0),         # two cells left of it
], ids=["none", "first", "last", "right2", "left2"])
def test_wrong_seeds_fall_back_to_bisection(monkeypatch, move):
    _seeding(monkeypatch, move)
    for p in _determinants(range(2, 9)):
        assert_refinement_matches_bisection(p)


@pytest.mark.parametrize("offset", [-1, 1])
def test_a_seed_one_cell_off_costs_one_evaluation(monkeypatch, offset):
    """The neighbour on the root's side is certified with one more exact
    value: five per root instead of four."""
    cases = []
    for p in _determinants(range(2, 6)):
        sf = rp.squarefree_part(rp.primitive_part(p))[0]
        cases += [(sf, lo, hi, bisect_reference(sf, lo, hi, [1e-13])[0])
                  for lo, hi in rp.isolate_positive_roots(sf)]
    _seeding(monkeypatch,
             lambda j, cells: min(max(j + offset, 0), cells - 1))
    refine, counts = _counted_refine(monkeypatch), []
    for sf, lo, hi, reference in cases:
        bracket, count = refine(sf, lo, hi, 1e-13)
        assert bracket == reference
        counts.append(count)
    assert set(counts) <= {4, 5} and 5 in counts


def test_evaluations_per_determinant_root(monkeypatch):
    """Exact values per root over n = 2..22, l <= 3 and both conventions:
    4 (the bracket's ends and the seed's cell) at 547 roots, 5 where the
    neighbour holds the root (128), and 6 at the 293 roots of square-free
    degree 18 and up whose seed float roundoff put many cells away, where
    the exact secant through the seed cell's values names the root's cell.
    No root with n <= 22 reaches the bisection fallback."""
    value_at, counts = rp._value_at, []
    refine = rp.refine_root_bisect

    def counted_value_at(*args):
        counts[-1] += 1
        return value_at(*args)

    def counted_refine(*args):
        counts.append(0)
        return refine(*args)
    monkeypatch.setattr(rp, "_value_at", counted_value_at)
    monkeypatch.setattr(rp, "refine_root_bisect", counted_refine)
    for convention in GammaConvention:
        for l in range(4):
            for n in range(2, 23):
                solve_termination(n, l, convention)
    assert Counter(counts) == {4: 547, 5: 128, 6: 293}


def test_coefficients_past_the_float_range_take_bisection():
    # 10^400 t - (3 10^400 + 7): no coefficient is a float
    p = [-(3 * 10 ** 400 + 7), 10 ** 400]
    (lo, hi), = rp.isolate_positive_roots(p)
    assert rp._float_seed(p, lo, hi, True, 1 << 40) is None
    refined = [rp.refine_root_bisect(p, lo, hi, w) for w in PRECISIONS]
    assert refined == bisect_reference(p, lo, hi, PRECISIONS)


def test_without_a_seed_each_halving_costs_one_value(monkeypatch):
    """With no seed a root costs 2 + h exact values: the bracket's two ends
    and one per halving. It costs fewer only when a grid point is the
    root."""
    _seeding(monkeypatch, lambda j, cells: None)
    refine = _counted_refine(monkeypatch)
    for p in _determinants(range(2, 9)):
        sf = rp.squarefree_part(rp.primitive_part(p))[0]
        for lo, hi in rp.isolate_positive_roots(sf):
            for width in PRECISIONS:
                assert refine(sf, lo, hi, width)[1] == 2 + _halvings(
                    lo, hi, width), (sf, lo, hi, width)
    for p, root in (([-7, 6, 1], F(1)), ([-15, 2, 1], F(3))):
        (lo, hi), = [iv for iv in rp.isolate_positive_roots(p)
                     if iv[0] < root < iv[1]]
        bracket, count = refine(p, lo, hi, 1e-13)
        assert bracket == (root, root)
        assert count < 2 + _halvings(lo, hi, 1e-13)


def test_the_one_determinant_whose_roots_reach_the_fallback(monkeypatch):
    """Over n <= 40, l <= 3 and both conventions, only one root gets past
    the seed's two cells: one of the table n = 39, l = 0 determinant
    (square-free degree 57), with 2.8e14 cells between the grid points
    they certify. Every root of it refines to bisection's bracket within h + 6
    exact values: the bracket's ends, two cells and at most h halvings."""
    p = determinant_sequence(build_gamma_factors(39, 0))[39]
    sf = rp.squarefree_part(rp.primitive_part(p))[0]
    refine = _counted_refine(monkeypatch)
    counts = []
    for lo, hi in rp.isolate_positive_roots(sf):
        reference, = bisect_reference(sf, lo, hi, [1e-13])
        bracket, count = refine(sf, lo, hi, 1e-13)
        assert bracket == reference, (lo, hi)
        assert count <= _halvings(lo, hi, 1e-13) + 6
        counts.append(count)
    assert len(sf) - 1 == 57 and sum(c > 6 for c in counts) == 1


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
    same positive roots."""
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

    assert roots(k0) == roots(0)
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
    while not coefficients[-1]:
        coefficients.pop()
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
