import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma

from heunqdot.termination import coefficient_chain, solve_termination
from heunqdot.wavefunction import (
    FloatRangeError,
    PolynomialSolution,
    _gamma_sum,
    assemble_polynomial,
    moment,
    moment_quad,
    norm_integral_closed,
    norm_integral_quad,
    normalize,
    residual,
)


def gaussian_state(l=0, omega=1.0):
    """y = 1: the bare r^(l+1/2) exp(-w r^2/2) profile."""
    sol = PolynomialSolution(n=0, l=l, t_star=1 / math.sqrt(omega),
                             omega=omega, eta=(l + 1) * omega,
                             y_coeffs=(1.0,), A_chain=(1.0,),
                             effective_degree=0)
    return normalize(sol)


def explicit_y(n, l, t, A):
    """The explicit closed-form polynomial build, written independently:

        y_n = y_{n-1} + A_n (sqrt w)^(n-1) r^n /
              (n! (2l+1) [(2l+1) sqrt(w) + 1] ... [(2l+1) sqrt(w) + n-1])

    used as the oracle for the series-to-powers-of-r conversion.
    """
    sw = 1.0 / t
    tl = 2 * l + 1
    coeffs = [A[0], A[1] / tl]
    for p in range(2, n + 1):
        den = math.factorial(p) * tl
        for j in range(1, p):
            den *= tl * sw + j
        coeffs.append(A[p] * sw ** (p - 1) / den)
    return coeffs


class TestAssembly:
    def test_degree_one(self):
        sol = assemble_polynomial(1, 0, 2.0)
        # A_1 = -t/2 = -1, (2l+1) = 1: y = 1 - r
        assert sol.y_coeffs == pytest.approx((1.0, -1.0))

    def test_degenerate_n2_at_root(self):
        sol = assemble_polynomial(2, 0, 16 ** (1 / 3))
        assert sol.y_coeffs[0] == 1.0
        assert sol.y_coeffs[1] == pytest.approx(-1.25992, abs=5e-6)
        assert abs(sol.y_coeffs[2]) < 1e-12
        assert sol.effective_degree == 1

    def test_eta_follows_quantum_condition(self):
        sol = assemble_polynomial(3, 1, 5.0)
        assert sol.eta == pytest.approx((3 + 1 + 1) / 25.0)

    def test_conversion_identity_vs_explicit_forms(self):
        """Series conversion and the explicit denominators agree to 1e-12."""
        rng = random.Random(3)
        for n in range(1, 6):
            for l in (0, 1, 2):
                t = rng.uniform(0.5, 12.0)
                A, _ = coefficient_chain(n, l, t)
                sol = assemble_polynomial(n, l, t, A_chain=A)
                expl = explicit_y(n, l, t, A)
                for _ in range(100):
                    r = rng.uniform(0.0, 8.0)
                    mine = sum(c * r ** p for p, c in enumerate(sol.y_coeffs))
                    ref = sum(c * r ** p for p, c in enumerate(expl))
                    assert mine == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            assemble_polynomial(2, 0, -1.0)


class TestGammaSum:
    def test_monomials_match_scipy_gamma(self):
        """For y = r^j the sum has one term, (1/2) t^m Gamma(m/2) with
        m = 2(l+1)+2j+k, so k = 0..3 takes both parities of m."""
        t = 0.8
        for l in range(4):
            for j in range(41):
                sol = PolynomialSolution(
                    n=j, l=l, t_star=t, omega=1 / t ** 2, eta=1.0,
                    y_coeffs=(0.0,) * j + (1.0,), A_chain=(1.0,),
                    effective_degree=j)
                for k in range(4):
                    m = 2 * (l + 1) + 2 * j + k
                    assert _gamma_sum(sol, k) == pytest.approx(
                        0.5 * t ** m * scipy_gamma(m / 2), rel=1e-13), (l, j, k)


class TestSquareExpansion:
    def test_printed_degree5_formulas(self):
        """c_k of (1 + Ar + Br^2 + Cr^3 + Dr^4 + Er^5)^2, exact arithmetic."""
        rng = random.Random(5)
        A, B, C, D, E = (Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                         for _ in range(5))
        y = [Fraction(1), A, B, C, D, E]
        conv = [sum(y[i] * y[k - i] for i in range(k + 1)
                    if i < 6 and k - i < 6) for k in range(11)]
        printed = [
            Fraction(1), 2 * A, A * A + 2 * B, 2 * (C + A * B),
            B * B + 2 * (D + A * C), 2 * (E + A * D + B * C),
            C * C + 2 * (A * E + B * D), 2 * (B * E + C * D),
            D * D + 2 * C * E, 2 * D * E, E * E,
        ]
        assert conv == printed


class TestNormalization:
    def test_gaussian_l0(self):
        st_ = gaussian_state(l=0)
        assert st_.N == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_gaussian_l1(self):
        assert gaussian_state(l=1).N == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_zero_polynomial_rejected(self):
        sol = PolynomialSolution(n=0, l=0, t_star=1.0, omega=1.0, eta=1.0,
                                 y_coeffs=(0.0,), A_chain=(0.0,),
                                 effective_degree=0)
        with pytest.raises(ValueError):
            normalize(sol)

    def test_closed_form_vs_quadrature_all_states(self):
        for l in (0, 1):
            for n in (2, 3, 4, 5):
                for root in solve_termination(n, l).rootset.roots:
                    sol = assemble_polynomial(n, l, root.t_star)
                    closed = norm_integral_closed(sol)
                    quad = norm_integral_quad(sol)
                    assert closed == pytest.approx(quad, rel=1e-8)

    def test_gamma_sum_cancellation(self):
        """At omega = 0.02 and l = 0 the closed-form norm integral is a sum
        of alternating terms far larger than itself. At n = 20 its roundoff
        is still small and it matches the quadrature; at n = 40 (off by
        2.6e-6) and n = 60 (of the wrong sign at omega = 1e-3) it raises."""
        sol = assemble_polynomial(20, 0, 1 / math.sqrt(0.02))
        assert norm_integral_closed(sol) == pytest.approx(
            norm_integral_quad(sol), rel=1e-9)
        for n, omega in ((40, 0.02), (60, 1e-3)):
            sol = assemble_polynomial(n, 0, 1 / math.sqrt(omega))
            with pytest.raises(FloatRangeError, match="cancellation"):
                normalize(sol)


class TestMoments:
    def test_gaussian_mean_distance(self):
        st_ = gaussian_state(l=0)
        assert moment(st_, 1) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-10)

    def test_zeroth_moment_is_one(self):
        for n, l in ((2, 0), (4, 1)):
            root = solve_termination(n, l).rootset.roots[0]
            st_ = normalize(assemble_polynomial(n, l, root.t_star))
            assert moment(st_, 0) == pytest.approx(1.0, abs=1e-10)

    def test_moments_vs_quadrature(self):
        for n, l in ((2, 0), (3, 1), (5, 0)):
            for root in solve_termination(n, l).rootset.roots:
                st_ = normalize(assemble_polynomial(n, l, root.t_star))
                for k in (1, 2):
                    assert moment(st_, k) == pytest.approx(moment_quad(st_, k),
                                                           rel=1e-8)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            moment(gaussian_state(), -1)


class TestResidual:
    def test_exact_oscillator(self):
        st_ = gaussian_state(l=0)
        grid = np.arange(0.1, 8.0, 1e-3)
        assert residual(st_, grid, coulomb_a=0.0) < 1e-8

    def test_perturbed_eta_blows_up(self):
        st_ = gaussian_state(l=0)
        grid = np.arange(0.1, 8.0, 1e-3)
        base = residual(st_, grid, coulomb_a=0.0)
        bumped = residual(st_, grid, eta=1.1, coulomb_a=0.0)
        assert bumped >= 10 * base

    def test_analytic_root_state_residual_recorded(self):
        # no threshold asserted: the value adjudicates solution quality
        root = solve_termination(2, 0).rootset.roots[0]
        st_ = normalize(assemble_polynomial(2, 0, root.t_star))
        value = residual(st_)
        assert np.isfinite(value) and value >= 0

    def test_grid_touching_zero_rejected(self):
        with pytest.raises(ValueError):
            residual(gaussian_state(), np.linspace(0.0, 5.0, 100))

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError):
            residual(gaussian_state(), np.logspace(-1, 1, 100))


class TestAsymptotics:
    def test_small_r_exponent(self):
        """u / r^(l+1/2) -> y(0) = 1 as r -> 0."""
        for n, l in ((2, 0), (2, 1), (4, 1)):
            root = solve_termination(n, l).rootset.roots[0]
            st_ = normalize(assemble_polynomial(n, l, root.t_star))
            r = 1e-8
            assert st_.u(r) / r ** (l + 0.5) == pytest.approx(1.0, abs=1e-6)

    def test_large_r_decay(self):
        """u grows slower than exp(-w r^2/4) decays: the product vanishes."""
        for n, l in ((2, 0), (5, 1)):
            root = solve_termination(n, l).rootset.roots[0]
            st_ = normalize(assemble_polynomial(n, l, root.t_star))
            r = 20.0 / math.sqrt(st_.omega)
            assert abs(st_.u(r)) * math.exp(st_.omega * r * r / 4) < 1e-30
