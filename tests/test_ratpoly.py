from fractions import Fraction

from heunqdot import ratpoly as rp

F = Fraction


def test_descartes_counts_roots():
    # roots at 1, 2, 3; the bound counts the roots in (0, 1) of its argument
    on_0_4 = [-6, 44, -96, 64]          # p(4x): t in (0, 4)
    assert rp._descartes_bound(on_0_4) == 3
    assert rp._descartes_bound(rp._taylor_shift(on_0_4)) == 0  # t in (4, 8)
    # 8 p(3/2 + x) = 8x^3 - 12x^2 - 2x + 3: only t = 2 lies in (3/2, 5/2)
    assert rp._descartes_bound([3, -2, -12, 8]) == 1
    # on the dyadic grid of (0, 4) each root is found exactly at a midpoint
    assert sorted(rp._dyadic_isolation(on_0_4)) == [
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
