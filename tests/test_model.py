import numpy as np
import pytest
from hypothesis import given, strategies as st

from heunqdot.model import (
    MagneticConfig,
    RadialProblem,
    SystemConfig,
    effective_potential_term,
    energy_center_of_mass,
    energy_relative,
    map_magnetic,
    map_to_heun,
    total_energy,
)


class TestHeunMapping:
    def test_unit_frequency_collapses(self):
        p = map_to_heun(RadialProblem(omega=1.0, l=0), eta=0.37)
        assert p.alpha == 0.0
        assert p.beta == 0.0
        assert p.delta == -1.0

    def test_quarter_frequency_l1(self):
        p = map_to_heun(RadialProblem(omega=0.25, l=1), eta=0.75)
        assert p.alpha == pytest.approx(0.5)
        assert p.delta == pytest.approx(-2.0)
        assert p.gamma == pytest.approx(4.5)

    def test_tabulated_root_frequency(self):
        t = 2.5198
        p = map_to_heun(RadialProblem(omega=1 / t ** 2, l=0), eta=0.4725)
        assert p.alpha == pytest.approx(1 / t - 1, abs=1e-9)
        assert p.delta == pytest.approx(-t, abs=1e-9)

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            RadialProblem(omega=0.0, l=0)
        with pytest.raises(ValueError):
            RadialProblem(omega=-1.0, l=0)

    @given(st.floats(1e-4, 10.0), st.integers(0, 4),
           st.floats(1e-6, 10.0))
    def test_parameter_identity(self, omega, l, eta):
        """gamma - alpha - 2 == 2 eta/omega - 2l - 2 to machine precision."""
        p = map_to_heun(RadialProblem(omega=omega, l=l), eta)
        lhs = p.gamma - p.alpha - 2
        rhs = 2 * eta / omega - 2 * l - 2
        tol = max(1e-12, 8 * np.finfo(float).eps * (abs(2 * eta / omega)
                                                    + 2 * l + 2 + abs(p.gamma)))
        assert abs(lhs - rhs) <= tol

    def test_regularity_branch(self):
        for l in range(5):
            p = RadialProblem(omega=0.5, l=l)
            assert p.ell + 1 == pytest.approx(l + 0.5)


class TestEnergies:
    def test_relative_energy_at_table_roots(self):
        assert energy_relative(2, 0, 1 / 2.5198 ** 2) == pytest.approx(0.4725, abs=5e-5)
        assert energy_relative(3, 0, 1 / 7.3825 ** 2) == pytest.approx(0.0734, abs=5e-5)
        assert energy_relative(0, 0, 1.0) == 1.0

    def test_relative_energy_is_exact_product(self):
        assert energy_relative(3, 2, 0.125) == (3 + 2 + 1) * 0.125

    def test_center_of_mass(self):
        assert energy_center_of_mass(0, SystemConfig(1.0)) == 2.0
        assert energy_center_of_mass(2, SystemConfig(0.5)) == 3.0

    def test_total_energy_composition(self):
        omega = 0.157490
        eta = energy_relative(2, 0, omega)
        eps = energy_center_of_mass(0, SystemConfig(2 * omega))
        assert total_energy(eps, eta) == pytest.approx(1.102430, abs=5e-6)

    def test_rejects_negative_quantum_numbers(self):
        with pytest.raises(ValueError):
            energy_relative(-1, 0, 1.0)
        with pytest.raises(ValueError):
            SystemConfig(1.0, n_R=-2)


class TestMagneticMapping:
    def test_zero_field_is_identity(self):
        cfg = MagneticConfig(omega_0=0.1, B=0.0, m=0)
        problem, shift = map_magnetic(cfg)
        assert problem.omega == pytest.approx(0.05)
        assert problem.l == 0
        assert shift == 0.0
        assert cfg.omega_tilde == cfg.omega_0

    def test_pure_field(self):
        cfg = MagneticConfig.from_cyclotron(omega_0=0.0, omega_c=2.0, m=0)
        problem, _ = map_magnetic(cfg)
        assert cfg.omega_tilde == pytest.approx(1.0)
        assert problem.omega == pytest.approx(0.5)

    def test_mixed_case(self):
        cfg = MagneticConfig.from_cyclotron(omega_0=0.3, omega_c=0.8, m=1)
        problem, shift = map_magnetic(cfg)
        assert cfg.omega_tilde == pytest.approx(0.5)
        assert problem.omega == pytest.approx(0.25)
        assert shift == pytest.approx(0.2)

    def test_field_from_B(self):
        cfg = MagneticConfig(omega_0=0.0, B=137.035999, m=0)
        assert cfg.omega_c == pytest.approx(1.0)

    def test_effective_frequency_dominates(self):
        cfg = MagneticConfig(omega_0=0.2, B=10.0, m=3)
        assert cfg.omega_tilde >= cfg.omega_0
        assert cfg.omega_tilde >= cfg.omega_c / 2

    def test_degenerate_config_rejected(self):
        with pytest.raises(ValueError):
            MagneticConfig(omega_0=0.0, B=0.0)

    @given(st.integers(-4, 4))
    def test_sign_of_m_only_flips_shift(self, m):
        cfg_p = MagneticConfig.from_cyclotron(0.2, 0.3, m=m)
        cfg_m = MagneticConfig.from_cyclotron(0.2, 0.3, m=-m)
        prob_p, shift_p = map_magnetic(cfg_p)
        prob_m, shift_m = map_magnetic(cfg_m)
        assert prob_p == prob_m
        assert shift_p == -shift_m


@given(st.floats(0.01, 20.0), st.integers(-4, 4), st.floats(0.05, 5.0))
def test_potential_even_in_l(r, l, omega):
    assert effective_potential_term(r, omega, l) == \
        effective_potential_term(r, omega, -l)
