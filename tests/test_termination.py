import random
from fractions import Fraction

import pytest

from heunqdot import ratpoly as rp
from heunqdot.termination import (
    ClearedPolynomial,
    GammaConvention,
    build_gamma_factors,
    clear_denominators,
    coefficient_chain,
    determinant_sequence,
    isolate_roots,
    printed_series_coefficients,
    solve_termination,
)

F = Fraction
TABLE = GammaConvention.TABLE
LITERAL = GammaConvention.LITERAL


class TestGammaFactors:
    def test_n2_l0(self):
        sys_ = build_gamma_factors(2, 0, TABLE)
        (g1,) = sys_.gamma_factors
        assert g1.const == 0 and g1.inv_t == 4  # 4/t

    def test_n3_l0_table(self):
        sys_ = build_gamma_factors(3, 0, TABLE)
        g1, g2 = sys_.gamma_factors
        assert (g1.const, g1.inv_t) == (0, 6)        # 6/t
        assert (g2.const, g2.inv_t) == (12, 6)       # 6(2 + 1/t)

    def test_n3_l0_at_unit_t(self):
        sys_ = build_gamma_factors(3, 0, TABLE)
        assert sys_.gamma_factors[0](F(1)) == 6
        assert sys_.gamma_factors[1](F(1)) == 18

    def test_literal_index_shift(self):
        lit = build_gamma_factors(3, 0, LITERAL)
        g1, g2 = lit.gamma_factors
        assert (g1.const, g1.inv_t) == (0, 6)        # same first factor
        assert (g2.const, g2.inv_t) == (8, 8)        # 8(1 + 1/t): shifted

    def test_factor_count(self):
        for n in range(1, 9):
            assert len(build_gamma_factors(n, 2, TABLE).gamma_factors) == n - 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_gamma_factors(0, 0)
        with pytest.raises(ValueError):
            build_gamma_factors(2, -1)


class TestDeterminantSequence:
    def test_d1_base_case(self):
        seq = determinant_sequence(build_gamma_factors(1, 3, TABLE))
        assert seq.final == {1: F(1, 2)}

    def test_d2_l0(self):
        seq = determinant_sequence(build_gamma_factors(2, 0, TABLE))
        assert seq.final == {2: F(1, 4), -1: F(-4)}  # t^2/4 - 4/t

    def test_d3_l0(self):
        seq = determinant_sequence(build_gamma_factors(3, 0, TABLE))
        assert seq.final == {3: F(1, 8), 1: F(-6), 0: F(-6)}  # t^3/8 - 6t - 6

    def test_denominator_exponent_bounded(self):
        for n in range(1, 9):
            for l in (0, 1, 3):
                seq = determinant_sequence(build_gamma_factors(n, l, TABLE))
                for k, d in enumerate(seq.d, start=1):
                    assert -rp.lau_min_exp(d) <= k - 1

    def test_cleared_degree_is_n_plus_power(self):
        # degree of the cleared polynomial equals n + clearing_power
        for n in range(1, 9):
            for l in (0, 2):
                seq = determinant_sequence(build_gamma_factors(n, l, TABLE))
                cleared = clear_denominators(seq.final)
                assert cleared.degree == n + cleared.clearing_power


class TestClearDenominators:
    def test_d2_example(self):
        cleared = clear_denominators({2: F(1, 4), -1: F(-4)})
        assert cleared.clearing_power == 1
        assert list(cleared.coefficients) == [F(-4), F(0), F(0), F(1, 4)]

    def test_d3_example(self):
        cleared = clear_denominators({3: F(1, 8), 1: F(-6), 0: F(-6)})
        assert cleared.clearing_power == 0
        assert list(cleared.coefficients) == [F(-6), F(-6), F(0), F(1, 8)]

    def test_d1_untouched(self):
        cleared = clear_denominators({1: F(1, 2)})
        assert cleared.clearing_power == 0
        assert list(cleared.coefficients) == [F(0), F(1, 2)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            clear_denominators({})

    def test_cleared_reproduces_laurent(self):
        rng = random.Random(7)
        seq = determinant_sequence(build_gamma_factors(5, 1, TABLE))
        cleared = clear_denominators(seq.final)
        for _ in range(100):
            t = rng.uniform(0.05, 20.0)
            lhs = cleared(t) / t ** cleared.clearing_power
            rhs = rp.lau_eval(seq.final, t)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestRootIsolation:
    def test_n2_l0_closed_form(self):
        res = solve_termination(2, 0)
        (root,) = res.rootset.roots
        assert abs(root.t_star - 16 ** (1 / 3)) < 1e-12
        assert root.refinement_width <= 1e-13

    def test_n3_l1_cubic(self):
        res = solve_termination(3, 1)
        (root,) = res.rootset.roots
        t = root.t_star
        assert abs(t ** 3 - 48 * t - 144) < 1e-10 * 144
        assert root.t_star == pytest.approx(8.1091, rel=5e-5)

    def test_n4_l0_pair(self):
        res = solve_termination(4, 0)
        ts = [r.t_star for r in res.rootset.roots]
        assert ts == pytest.approx([2.47047, 14.1004], rel=5e-5)

    def test_roots_sorted_and_positive(self):
        for n in (2, 3, 4, 5):
            for l in (0, 1):
                roots = solve_termination(n, l).rootset.roots
                ts = [r.t_star for r in roots]
                assert all(t > 0 for t in ts)
                assert ts == sorted(ts)
                for a, b in zip(ts, ts[1:]):
                    assert b - a > max(a_r.refinement_width for a_r in roots)

    def test_residual_bound_at_roots(self):
        for n, l in ((2, 0), (5, 1)):
            res = solve_termination(n, l)
            coeffs = [float(c) for c in res.cleared.coefficients]
            cmax = max(abs(c) for c in coeffs)
            for root in res.rootset.roots:
                val = res.cleared(root.t_star)
                assert abs(val) <= 1e-10 * cmax * root.t_star ** res.cleared.degree

    def test_bracket_certified_by_exact_sign_change(self):
        res = solve_termination(5, 0)
        dense = list(res.cleared.coefficients)
        for root in res.rootset.roots:
            lo = F(root.bracket[0]).limit_denominator(10 ** 17)
            hi = F(root.bracket[1]).limit_denominator(10 ** 17)
            assert rp.poly_eval(dense, lo) * rp.poly_eval(dense, hi) < 0

    def test_n2_family_closed_form_all_l(self):
        # delta'^2 = gamma_1 gives t^3 = 16(2l+1)
        for l in (0, 1, 2, 3):
            res = solve_termination(2, l)
            (root,) = res.rootset.roots
            assert root.t_star ** 3 == pytest.approx(16 * (2 * l + 1), rel=1e-12)

    def test_quantum_condition_consistency(self):
        for n, l in ((2, 0), (4, 1), (5, 0)):
            for root in solve_termination(n, l).rootset.roots:
                eta = (n + l + 1) * root.omega
                assert eta * root.t_star ** 2 == pytest.approx(n + l + 1, rel=1e-14)

    def test_precision_domain(self):
        cleared = solve_termination(2, 0).cleared
        with pytest.raises(ValueError):
            isolate_roots(cleared, precision=1e-20)
        with pytest.raises(ValueError):
            isolate_roots(cleared, precision=1e-3)

    def test_no_positive_roots_for_n1(self):
        res = solve_termination(1, 0)
        assert res.rootset.roots == ()

    def test_zero_constant_term_is_stripped(self):
        # t^3/8 - 3t/2 = t (t^2 - 12) / 8: isolation and refinement both run
        # on the polynomial without its factor t
        rootset = isolate_roots(ClearedPolynomial(
            (F(0), F(-3, 2), F(0), F(1, 8)), 0))
        (root,) = rootset.roots
        assert root.t_star == pytest.approx(12 ** 0.5, abs=1e-13)
        lo, hi = (F(v) for v in root.bracket)
        assert lo < F(root.t_star) < hi and hi - lo <= 1e-13
        assert (rootset.negative_root_count, rootset.complex_root_count) == (1, 0)
        # d_1 = t/2: its one root, t = 0, is neither negative nor complex
        n1 = solve_termination(1, 0).rootset
        assert (n1.negative_root_count, n1.complex_root_count) == (0, 0)

    def test_asymptotic_flag_is_metadata_only(self):
        res = solve_termination(2, 0)
        assert all(r.t_star > 0 for r in res.rootset.roots)
        # t = 0 is not a root of the cleared determinant
        assert res.cleared(0.0) != 0.0


class TestRepeatedRoots:
    """Roots of even multiplicity change no sign of the polynomial itself;
    their brackets are certified on the square-free part."""

    @pytest.mark.parametrize("coeffs, expected", [
        ((9, -6, 1), [3]),               # (t - 3)^2
        ((-18, 21, -8, 1), [2, 3]),      # (t - 3)^2 (t - 2)
    ])
    def test_roots_and_certified_brackets(self, coeffs, expected):
        dense = [F(c) for c in coeffs]
        precision = 1e-13
        rootset = isolate_roots(ClearedPolynomial(tuple(dense), 0),
                                precision=precision)
        assert [r.t_star for r in rootset.roots] == pytest.approx(
            expected, abs=precision)
        sf, multiple = rp.squarefree_part(dense)
        assert multiple
        for root in rootset.roots:
            lo, hi = (F(v) for v in root.bracket)
            assert hi - lo <= precision
            assert lo == hi or rp.poly_eval(sf, lo) * rp.poly_eval(sf, hi) < 0
            assert lo <= F(root.t_star) <= hi
        assert rootset.negative_root_count == 0
        assert rootset.complex_root_count == 0


class TestCoefficientChain:
    def test_first_row(self):
        a, _ = coefficient_chain(1, 0, 1.0)
        assert a == [1.0, -0.5]

    def test_vanishing_at_n2_root(self):
        t = 16 ** (1 / 3)
        a, eff = coefficient_chain(2, 0, t)
        assert a[0] == 1.0
        assert a[1] == pytest.approx(-1.25992, abs=5e-6)
        assert abs(a[2]) < 1e-12
        assert eff == 1

    def test_vanishing_at_n2_l1_root(self):
        t = 48 ** (1 / 3)
        a, eff = coefficient_chain(2, 1, t)
        assert a[1] == pytest.approx(-1.81712, abs=5e-6)
        assert abs(a[2]) < 1e-12
        assert eff == 1

    def test_trailing_coefficient_tracks_determinant(self):
        # A_k = (-1)^k d_k when the same factors drive both recurrences
        sys_ = build_gamma_factors(5, 1, TABLE)
        seq = determinant_sequence(sys_)
        t = F(7, 3)
        chain, _ = coefficient_chain(5, 1, t, TABLE)
        assert all(isinstance(v, F) for v in chain)
        for k in range(1, 6):
            assert chain[k] == (-1) ** k * rp.lau_eval(seq.d[k - 1], t)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            coefficient_chain(2, 0, 0.0)


class TestBruteForceEquivalence:
    def test_recurrence_equals_dense_expansion(self):
        from heunqdot.oracle import dense_determinant_check
        rng = random.Random(11)
        for n in range(1, 7):
            for l in (0, 2):
                for _ in range(10):
                    t = F(rng.randint(1, 400), rng.randint(1, 20))
                    assert dense_determinant_check(n, l, t)

    def test_literal_convention_also_consistent(self):
        from heunqdot.oracle import dense_determinant_check
        assert dense_determinant_check(4, 1, F(7, 2), LITERAL)


class TestPrintedCoefficients:
    def test_printed_matches_chain_through_A2_for_n2(self):
        t = 3.7
        printed = printed_series_coefficients(0, t)
        chain, _ = coefficient_chain(2, 0, t)
        assert printed[0] == chain[0]
        assert printed[1] == pytest.approx(chain[1], rel=1e-12)
        assert printed[2] == pytest.approx(chain[2], rel=1e-12)

    def test_printed_A3_differs_from_any_chain(self):
        # the printed cubic coefficient belongs to neither convention's chain
        t = 5.0
        printed = printed_series_coefficients(0, t)[3]
        for conv in (TABLE, LITERAL):
            chain, _ = coefficient_chain(3, 0, t, conv)
            assert abs(printed - chain[3]) > 1e-6
