"""Physical model of two Coulomb-interacting electrons in a 2D harmonic trap.

Everything is in Hartree atomic units (hbar = m = e = 1, lengths in Bohr).
The two-body problem separates into a center-of-mass oscillator of frequency
omega_R = 2*Omega and a relative-motion problem of frequency omega = Omega/2.
The relative radial function u(r) obeys

    u'' + [2*eta - 1/r - omega^2 r^2 - (l^2 - 1/4)/r^2] u = 0

which maps onto the canonical biconfluent Heun equation

    x y'' + (1 + alpha - beta x - 2 x^2) y' +
        [(gamma - alpha - 2) x - (delta + (1 + alpha) beta)/2] y = 0

through u = r^(l+1/2) exp(-omega r^2 / 2) y, x = sqrt(omega) r.  The exponent
branch is fixed to l + 1/2 (regular at the origin); the other branch is
rejected and not configurable.

Note on the center-of-mass energy: the separated CM eigenvalue equation can be
read with either epsilon or 2*epsilon on the right-hand side depending on how
the 2D oscillator spectrum is normalized; this module follows the printed
closed form epsilon = omega_R * (n_R + 1) with a single radial-style label n_R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 137.035999  # a.u.


@dataclass(frozen=True)
class SystemConfig:
    """Trap configuration: external frequency Omega and CM quantum number n_R."""

    trap_frequency_Omega: float
    n_R: int = 0

    def __post_init__(self):
        if self.trap_frequency_Omega <= 0:
            raise ValueError("trap frequency Omega must be positive")
        if self.n_R < 0 or int(self.n_R) != self.n_R:
            raise ValueError("n_R must be a non-negative integer")

    @property
    def omega(self) -> float:
        """Relative-motion frequency, Omega/2."""
        return self.trap_frequency_Omega / 2

    @property
    def omega_R(self) -> float:
        """Center-of-mass frequency, 2*Omega."""
        return 2 * self.trap_frequency_Omega


@dataclass(frozen=True)
class RadialProblem:
    """One instance of the relative-motion radial equation.

    coulomb_a multiplies the 2a/r repulsion (1/2 for the quantum-dot case,
    0 switches the interaction off); the confinement enters through omega
    alone.
    """

    omega: float
    l: int
    coulomb_a: float = 0.5

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.l < 0 or int(self.l) != self.l:
            raise ValueError("l must be a non-negative integer")

    @property
    def ell(self) -> float:
        """Effective exponent parameter: ell + 1 = l + 1/2 (regular branch)."""
        return self.l - 0.5


@dataclass(frozen=True)
class HeunParams:
    """The four canonical parameters."""

    alpha: float
    beta: float
    gamma: float
    delta: float


def map_to_heun(problem: RadialProblem, eta: float) -> HeunParams:
    """Map (omega, l, eta) to the canonical parameter set.

    alpha = (2l+1) sqrt(omega) - 1, beta = 0,
    gamma = 2 eta / omega + (2l+1)(sqrt(omega) - 1), delta = -1/sqrt(omega).
    The combination gamma - alpha - 2 collapses to 2 eta/omega - 2l - 2.
    """
    w = problem.omega
    if w <= 0:
        raise ValueError("omega must be positive")
    sw = math.sqrt(w)
    tl = 2 * problem.l + 1
    return HeunParams(
        alpha=tl * sw - 1,
        beta=0.0,
        gamma=2 * eta / w + tl * (sw - 1),
        delta=-1 / sw,
    )


def energy_relative(n: int, l: int, omega: float) -> float:
    """Relative-motion energy at the quantum condition: eta = (n + l + 1) omega."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    if n < 0 or l < 0:
        raise ValueError("n and l must be non-negative")
    return (n + l + 1) * omega


def energy_center_of_mass(n_R: int, config: SystemConfig) -> float:
    """CM oscillator energy epsilon = omega_R (n_R + 1)."""
    return config.omega_R * (n_R + 1)


def total_energy(epsilon: float, eta: float) -> float:
    """E_T = epsilon + eta (convenience sum)."""
    return epsilon + eta


def effective_potential_term(r, omega: float, l: int, coulomb_a: float = 0.5):
    """The bracket multiplying u in u'' = [...] u, without the energy:

        2a/r + omega^2 r^2 + (l^2 - 1/4)/r^2

    Depends on l only through l**2, so the sign of the angular momentum label
    never matters downstream. Accepts scalars or numpy arrays.
    """
    return 2 * coulomb_a / r + omega ** 2 * r * r + (l * l - 0.25) / (r * r)


@dataclass(frozen=True)
class MagneticConfig:
    """Confinement omega_0 plus a homogeneous magnetic field B (a.u.).

    omega_c = B/c, omega_tilde = sqrt(omega_0^2 + (omega_c/2)^2); the mapped
    radial problem uses omega_tilde/2 and |m|, and the eigenvalue picks up an
    additive shift m*omega_c/4.
    """

    omega_0: float
    B: float = 0.0
    m: int = 0
    speed_of_light: float = SPEED_OF_LIGHT

    def __post_init__(self):
        if self.omega_0 < 0:
            raise ValueError("omega_0 must be non-negative")
        if self.omega_0 == 0 and self.B == 0:
            raise ValueError("degenerate problem: omega_0 = B = 0")

    @classmethod
    def from_cyclotron(cls, omega_0: float, omega_c: float, m: int = 0,
                       speed_of_light: float = SPEED_OF_LIGHT) -> "MagneticConfig":
        return cls(omega_0=omega_0, B=omega_c * speed_of_light, m=m,
                   speed_of_light=speed_of_light)

    @property
    def omega_c(self) -> float:
        return self.B / self.speed_of_light

    @property
    def omega_tilde(self) -> float:
        return math.sqrt(self.omega_0 ** 2 + (self.omega_c / 2) ** 2)

    @property
    def omega_tilde_r(self) -> float:
        return self.omega_tilde / 2

    @property
    def energy_shift(self) -> float:
        """Additive shift relating the shifted and unshifted eigenvalues."""
        return self.m * self.omega_c / 4


def map_magnetic(config: MagneticConfig) -> tuple[RadialProblem, float]:
    """Reduce the magnetic-field problem to a plain RadialProblem plus shift.

    With m = l the field-dressed radial equation coincides with the plain one
    at omega = omega_tilde/2, so everything downstream is reused unchanged.
    """
    problem = RadialProblem(omega=config.omega_tilde_r, l=abs(config.m))
    return problem, config.energy_shift
