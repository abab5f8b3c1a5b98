import logging
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from heunqdot import ratpoly as rp
from heunqdot.termination import (
    PRECISION,
    ClearedPolynomial,
    GammaConvention,
    build_gamma_factors,
    coefficient_chain,
    determinant_sequence,
    isolate_roots,
    printed_series_coefficients,
    solve_termination,
)
from heunqdot.wavefunction import assemble_polynomial

F = Fraction
TABLE = GammaConvention.TABLE
LITERAL = GammaConvention.LITERAL


class TestGammaFactors:
    """Each factor is the integer pair (c, e) with 4 gamma = c + e/t."""

    def test_n2_l0(self):
        assert build_gamma_factors(2, 0, TABLE) == ((0, 16),)  # gamma = 4/t

    def test_n3_l0_table(self):
        g1, g2 = build_gamma_factors(3, 0, TABLE)
        assert g1 == (0, 24)         # 6/t
        assert g2 == (48, 24)        # 6(2 + 1/t)

    def test_n3_l0_at_unit_t(self):
        gammas = build_gamma_factors(3, 0, TABLE)
        assert [(c + e) / 4 for c, e in gammas] == [6, 18]

    def test_literal_index_shift(self):
        g1, g2 = build_gamma_factors(3, 0, LITERAL)
        assert g1 == (0, 24)         # same first factor
        assert g2 == (32, 32)        # 8(1 + 1/t): shifted

    def test_factor_count(self):
        for n in range(1, 9):
            assert len(build_gamma_factors(n, 2, TABLE)) == n - 1

    @pytest.mark.parametrize("conv", [TABLE, LITERAL])
    def test_published_list_is_the_odes_edited(self, conv):
        """Replacing (2l+1)/t by 2l+1 maps each pair (c, e) to c + e. The
        result is 4 times the radial equation's own factors
        2q(n+1-q)(q+2l), q = 1..n, with one of them dropped: q = 2 for
        table and q = n for literal. The split into (c, e) decides D_n, so
        the pairs themselves must be the published closed forms, written
        out here as the lists p = 1..n-1 they were first coded as."""
        def table(n, l, p):  # gamma_1 = 2n(1+alpha), gamma_p, p >= 2
            if p == 1:
                return 0, 8 * n * (2 * l + 1)
            c = 8 * (n - p) * (p + 1)
            return c * p, c * (2 * l + 1)

        def literal(n, l, p):  # gamma_p = 2(n-p+1) p (p+alpha)
            c = 8 * (n - p + 1) * p
            return c * (p - 1), c * (2 * l + 1)

        published = table if conv is TABLE else literal
        assert build_gamma_factors(1, 0, conv) == ()
        for n in range(1, 61):
            for l in range(6):
                pairs = build_gamma_factors(n, l, conv)
                assert pairs == tuple(published(n, l, p)
                                      for p in range(1, n)), (n, l)
                dropped = min(n, 2) if conv is TABLE else n
                ode = [4 * 2 * q * (n + 1 - q) * (q + 2 * l)
                       for q in range(1, n + 1) if q != dropped]
                assert [c + e for c, e in pairs] == ode, (n, l)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_gamma_factors(0, 0)
        with pytest.raises(ValueError):
            build_gamma_factors(2, -1)
        with pytest.raises(ValueError):
            build_gamma_factors(2, 0, "unknown")


def d_seq(n, l, convention=TABLE):
    return determinant_sequence(build_gamma_factors(n, l, convention))


class TestDeterminantSequence:
    """D_k = 2^k t^floor(k/2) d_k, in ascending powers of t."""

    def test_d1_base_case(self):
        assert d_seq(1, 3) == [[1], [0, 1]]  # D_1 = 2 d_1 = t

    def test_d2_l0(self):
        assert d_seq(2, 0)[2] == [-16, 0, 0, 1]  # 4t (t^2/4 - 4/t)

    def test_d3_l0(self):
        # 8t (t^3/8 - 6t - 6)
        assert d_seq(3, 0)[3] == [0, -48, -48, 0, 1]

    def test_denominator_exponent_bounded(self):
        # 2^k t^floor(k/2) clears every denominator of d_k: D_k is a monic
        # integer polynomial of degree k + floor(k/2)
        for n in range(1, 9):
            for l in (0, 1, 3):
                for conv in (TABLE, LITERAL):
                    for k, d in enumerate(d_seq(n, l, conv)):
                        assert all(type(c) is int for c in d)
                        assert len(d) - 1 == k + k // 2 and d[-1] == 1

    def test_cleared_degree_is_n_plus_power(self):
        # n plus the power of t that clears d_n: floor(n/2), less the factor
        # t that D_n carries at odd n
        for n in range(2, 11):
            for l in (0, 2):
                for conv in (TABLE, LITERAL):
                    cleared = solve_termination(n, l, conv).cleared
                    assert cleared.degree == n + n // 2 - n % 2


class TestClearDenominators:
    """The cleared polynomial is the primitive part of D_n without t^k."""

    def test_d2_example(self):
        assert solve_termination(2, 0).cleared.coefficients == (-16, 0, 0, 1)

    def test_d3_example(self):
        cleared = solve_termination(3, 0).cleared
        assert cleared.coefficients == (-48, -48, 0, 1)

    def test_d1_untouched(self):
        # D_1 = t: its one root, t = 0, is stripped
        assert solve_termination(1, 0).cleared.coefficients == (1,)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            rp.primitive_part([0, 0])

    def test_cleared_reproduces_laurent(self):
        # cleared(t) = D_5(t) / (content t) and D_5 = 2^5 t^2 d_5, with the
        # Laurent polynomial d_5 = -A_5 evaluated by the coefficient chain
        rng = random.Random(7)
        d5 = d_seq(5, 1)[5]
        cleared = solve_termination(5, 1).cleared
        content = d5[-1] // cleared.coefficients[-1]
        assert [content * c for c in cleared.coefficients] == d5[1:]
        for _ in range(100):
            t = rng.uniform(0.05, 20.0)
            lhs = content * rp.poly_eval(cleared.coefficients, t) / (32 * t)
            rhs = -coefficient_chain(5, 1, t)[5]
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
                val = rp.poly_eval(res.cleared.coefficients, root.t_star)
                assert abs(val) <= 1e-10 * cmax * root.t_star ** res.cleared.degree

    def test_bracket_certified_by_exact_sign_change(self):
        # each bracket, taken as it is kept, spans a sign change of the
        # square-free cleared determinant in exact integer values, or is an
        # exact root
        def sign(sf, x):
            v = rp._value_at(sf, x.numerator, x.denominator)
            return (v > 0) - (v < 0)

        for convention in GammaConvention:
            for n in range(2, 17):
                for l in range(4):
                    res = solve_termination(n, l, convention)
                    sf = rp.squarefree_part(list(res.cleared.coefficients))[0]
                    for root in res.rootset.roots:
                        lo, hi = (F(v) for v in root.bracket)
                        if lo == hi:
                            assert sign(sf, lo) == 0, (convention, n, l)
                        else:
                            assert lo < hi, (convention, n, l)
                            assert sign(sf, lo) * sign(sf, hi) == -1, (
                                convention, n, l)

    def test_n2_family_closed_form_all_l(self):
        # delta'^2 = gamma_1 gives t^3 = 16(2l+1)
        for l in (0, 1, 2, 3):
            res = solve_termination(2, l)
            (root,) = res.rootset.roots
            assert root.t_star ** 3 == pytest.approx(16 * (2 * l + 1), rel=1e-12)

    def test_quantum_condition_consistency(self):
        for n, l in ((2, 0), (4, 1), (5, 0)):
            for root in solve_termination(n, l).rootset.roots:
                sol = assemble_polynomial(n, l, root.t_star)
                assert sol.omega * root.t_star ** 2 == pytest.approx(1, rel=1e-14)
                assert sol.eta * root.t_star ** 2 == pytest.approx(n + l + 1, rel=1e-14)

    def test_no_positive_roots_for_n1(self):
        res = solve_termination(1, 0)
        assert res.rootset.roots == ()

    def test_zero_constant_term_is_stripped(self):
        # t^3 - 12t = t (t^2 - 12): isolation and refinement both run on the
        # polynomial without its factor t
        rootset = isolate_roots(ClearedPolynomial(tuple(rp.primitive_part(
            [0, -12, 0, 1]))))
        (root,) = rootset.roots
        assert root.t_star == pytest.approx(12 ** 0.5, abs=1e-13)
        lo, hi = root.bracket
        assert lo < F(root.t_star) < hi and hi - lo <= 1e-13

    def test_asymptotic_flag_is_metadata_only(self):
        res = solve_termination(2, 0)
        assert all(r.t_star > 0 for r in res.rootset.roots)
        # t = 0 is not a root of the cleared determinant
        assert rp.poly_eval(res.cleared.coefficients, 0.0) != 0.0


class TestRepeatedRoots:
    """Roots of even multiplicity change no sign of the polynomial itself;
    their brackets are certified on the square-free part."""

    @pytest.mark.parametrize("coeffs, expected", [
        ((9, -6, 1), [3]),               # (t - 3)^2
        ((-18, 21, -8, 1), [2, 3]),      # (t - 3)^2 (t - 2)
    ])
    def test_roots_and_certified_brackets(self, coeffs, expected):
        rootset = isolate_roots(ClearedPolynomial(coeffs))
        assert [r.t_star for r in rootset.roots] == pytest.approx(
            expected, abs=PRECISION)
        sf, multiple = rp.squarefree_part(list(coeffs))
        assert multiple
        for root in rootset.roots:
            lo, hi = root.bracket
            assert hi - lo <= PRECISION
            assert lo == hi or rp.poly_eval(sf, lo) * rp.poly_eval(sf, hi) < 0
            assert lo <= F(root.t_star) <= hi

    def test_made_square_free_once_with_one_warning(self, caplog):
        # (t - 3)^2 (t - 2)
        with caplog.at_level(logging.WARNING):
            isolate_roots(ClearedPolynomial((-18, 21, -8, 1)))
        assert [r.levelno for r in caplog.records] == [logging.WARNING]


class TestCoefficientChain:
    def test_first_row(self):
        a = coefficient_chain(1, 0, 1.0)
        assert a == [1.0, -0.5]

    def test_vanishing_at_n2_root(self):
        t = 16 ** (1 / 3)
        a = coefficient_chain(2, 0, t)
        assert a[0] == 1.0
        assert a[1] == pytest.approx(-1.25992, abs=5e-6)
        assert abs(a[2]) < 1e-12

    def test_vanishing_at_n2_l1_root(self):
        t = 48 ** (1 / 3)
        a = coefficient_chain(2, 1, t)
        assert a[1] == pytest.approx(-1.81712, abs=5e-6)
        assert abs(a[2]) < 1e-12

    @settings(deadline=None)
    @given(st.integers(1, 12), st.integers(0, 4),
           st.sampled_from([TABLE, LITERAL]),
           st.fractions(min_value=F(1, 1000), max_value=1000,
                        max_denominator=1000))
    def test_trailing_coefficient_tracks_determinant(self, n, l, conv, t):
        # A_k = (-1)^k d_k when the same factors drive both recurrences, so
        # D_k = 2^k t^floor(k/2) d_k = (-2)^k t^floor(k/2) A_k
        chain = coefficient_chain(n, l, t, conv)
        assert all(isinstance(v, F) for v in chain)
        for k, d in enumerate(d_seq(n, l, conv)):
            assert rp.poly_eval(d, t) == (-2) ** k * t ** (k // 2) * chain[k]

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            coefficient_chain(2, 0, 0.0)

    def test_root_states_have_degree_n_minus_1(self):
        """In integers, with B_p = 4^p t^p A_p from the pairs (c, e):
        B_0 = 1, B_1 = -2t^2, B_(p+2) = -2t^2 B_(p+1) - 4t(ct + e) B_p.
        B_n and D_n have the same primitive part, so A_n vanishes at every
        root of D_n, and B_(n-1) shares no root with D_n, so A_(n-1) does
        not: a root state has degree n - 1 exactly, for n <= 30, l <= 3 and
        both conventions. Modulo SQUAREFREE_PRIME, which divides neither
        leading coefficient, the gcd has degree 0, which proves it 1 over
        the integers."""
        q = rp.SQUAREFREE_PRIME
        for conv in (TABLE, LITERAL):
            for l in range(4):
                for n in range(2, 31):
                    gammas = build_gamma_factors(n, l, conv)
                    b = [[1], [0, 0, -2]]
                    for c, e in gammas:
                        nxt = [0, 0] + [-2 * v for v in b[-1]]
                        for i, v in enumerate(b[-2]):
                            nxt[i + 1] -= 4 * e * v
                            nxt[i + 2] -= 4 * c * v
                        b.append(nxt)
                    d_n = rp.primitive_part(determinant_sequence(gammas)[n])
                    assert rp.primitive_part(b[n]) == d_n, (conv, n, l)
                    b_prev = rp.primitive_part(b[n - 1])
                    assert b_prev[-1] % q and d_n[-1] % q
                    assert rp._gcd_degree_mod(d_n, b_prev, q) == 0, \
                        (conv, n, l)


class TestBruteForceEquivalence:
    def test_recurrence_equals_dense_expansion(self):
        from heunqdot.termination import dense_determinant_check
        rng = random.Random(11)
        for n in range(1, 7):
            for l in (0, 2):
                for _ in range(10):
                    t = F(rng.randint(1, 400), rng.randint(1, 20))
                    assert dense_determinant_check(n, l, t)

    def test_literal_convention_also_consistent(self):
        from heunqdot.termination import dense_determinant_check
        assert dense_determinant_check(4, 1, F(7, 2), LITERAL)


T = sp.Symbol("t")


def sympy_cleared(gammas):
    """The primitive part, without its factor t^k and with a positive
    leading coefficient, of the tridiagonal determinant with diagonal t/2,
    superdiagonal 1 and subdiagonal gammas, expanded by sympy."""
    n = len(gammas) + 1
    m = sp.zeros(n, n)
    for i in range(n):
        m[i, i] = T / 2
        if i + 1 < n:
            m[i, i + 1] = 1
            m[i + 1, i] = gammas[i]
    # 2t M has integer polynomial entries
    ring = sp.ZZ[T]
    scaled = DomainMatrix.from_Matrix((2 * T * m).applyfunc(sp.expand))
    det = sp.Poly(ring.to_sympy(scaled.convert_to(ring).det()), T)
    coeffs = det.primitive()[1].all_coeffs()[::-1]
    coeffs = coeffs[next(i for i, c in enumerate(coeffs) if c != 0):]
    sign = 1 if coeffs[-1] > 0 else -1
    return tuple(sign * int(c) for c in coeffs)


class TestConventionTable:
    def test_cleared_equals_sympy_determinant(self):
        # the gamma factors straight from the closed forms of the module
        # docstring, with 1+alpha = (2l+1)/t and no use of the integer pairs
        for n in range(1, 13):
            for l in range(4):
                one_alpha = sp.Integer(2 * l + 1) / T
                table = [2 * n * one_alpha if p == 1
                         else 2 * (n - p) * (p + 1) * (p + one_alpha)
                         for p in range(1, n)]
                literal = [2 * (n - p) * (p + 1) * (p + one_alpha)
                           for p in range(n - 1)]
                for conv, gammas in ((TABLE, table), (LITERAL, literal)):
                    cleared = solve_termination(n, l, conv).cleared
                    assert sympy_cleared(gammas) == cleared.coefficients, \
                        (n, l, conv)


class TestPrintedCoefficients:
    def test_printed_matches_chain_through_A2_for_n2(self):
        t = 3.7
        printed = printed_series_coefficients(0, t)
        chain = coefficient_chain(2, 0, t)
        assert printed[0] == chain[0]
        assert printed[1] == pytest.approx(chain[1], rel=1e-12)
        assert printed[2] == pytest.approx(chain[2], rel=1e-12)

    def test_printed_A3_differs_from_any_chain(self):
        # the printed cubic coefficient belongs to neither convention's chain
        t = 5.0
        printed = printed_series_coefficients(0, t)[3]
        for conv in (TABLE, LITERAL):
            chain = coefficient_chain(3, 0, t, conv)
            assert abs(printed - chain[3]) > 1e-6
