"""Physical model of two Coulomb-interacting electrons in a 2D harmonic trap.

Everything is in Hartree atomic units (hbar = m = e = 1, lengths in Bohr).
The two-body problem separates into a center-of-mass oscillator of frequency
omega_R = 2*Omega and a relative-motion problem of frequency omega = Omega/2.
The relative radial function u(r) obeys

    u'' + [2*eta - 1/r - omega^2 r^2 - (l^2 - 1/4)/r^2] u = 0.

With u = r^(l+1/2) exp(-omega r^2 / 2) y and x = sqrt(omega) r it becomes

    x y'' + (2l + 1 - 2 x^2) y' + [(2 eta/omega - 2l - 2) x - t] y = 0,

t = 1/sqrt(omega), which is the biconfluent Heun equation (Ronveaux, Heun's
Differential Equations, OUP 1995, part D)

    x y'' + (1 + alpha - beta x - 2 x^2) y' +
        [(gamma - alpha - 2) x - (delta + (1 + alpha) beta)/2] y = 0

with alpha = 2l, beta = 0, gamma = 2 eta/omega and delta = 2t. A polynomial
y of degree N needs gamma - alpha - 2 = 2N, that is eta = (N + l + 1) omega,
and its coefficients y = sum c_k x^k follow

    (k + 1)(k + 2l + 1) c_(k+1) = t c_k - 2(N + 1 - k) c_(k-1),

so c_(N+1) = 0 is the condition on t. The published condition
(termination) differs from it by three exact edits: 1 + alpha = (2l+1)/t
instead of 2l + 1, every gamma factor multiplied by 4, and one factor
dropped. The exponent branch is fixed to l + 1/2 (regular at the origin);
the other branch is rejected and not configurable.

Note on the center-of-mass energy: the separated CM eigenvalue equation can be
read with either epsilon or 2*epsilon on the right-hand side depending on how
the 2D oscillator spectrum is normalized; this module follows the printed
closed form epsilon = omega_R * (n_R + 1) with a single radial-style label n_R.
The spectrum command applies it.

Every record in the package is a typing.NamedTuple. The two that check
their values (RadialProblem and oracle.ShootingConfig) check in a __new__
over a NamedTuple base, which calls and unpickling go through but _make and
_replace skip.
"""

from __future__ import annotations

import math
from typing import NamedTuple

SPEED_OF_LIGHT = 137.035999  # a.u.
# the strength a of the repulsion 2a/r: 1/2 for the quantum dot
COULOMB_A = 0.5


class _RadialProblem(NamedTuple):
    omega: float
    l: int


class RadialProblem(_RadialProblem):
    """One instance of the relative-motion radial equation; the confinement
    enters through omega alone. l is kept as an int, whatever integral
    type it is given as."""

    __slots__ = ()

    def __new__(cls, omega: float, l: int):
        if not 0 < omega < math.inf:
            raise ValueError("omega must be finite and positive")
        if l < 0 or int(l) != l:
            raise ValueError("l must be a non-negative integer")
        return tuple.__new__(cls, (omega, int(l)))


def effective_potential_term(r, omega: float, l: int, coulomb_on: bool = True):
    """The bracket multiplying u in u'' = [...] u, without the energy:

        2a/r + omega^2 r^2 + (l^2 - 1/4)/r^2,

    with a = COULOMB_A, or a = 0 when coulomb_on is false. Depends on l only
    through l**2, so the sign of the angular momentum label never matters
    downstream. Accepts scalars or numpy arrays; 1/r is formed once, and an
    array r costs three temporaries, the result among them.
    """
    inv = 1 / r
    v = (l * l - 0.25) * inv
    v += 2 * COULOMB_A if coulomb_on else 0.0
    v *= inv
    trap = omega * r
    trap *= trap
    v += trap
    return v


def map_magnetic(omega_0: float, B: float,
                 m: int) -> tuple[RadialProblem, float]:
    """Reduce confinement omega_0 plus a homogeneous field B (a.u.) to a
    plain RadialProblem and an additive eigenvalue shift.

    With omega_c = B/c (c = SPEED_OF_LIGHT), the dressed frequency w =
    sqrt(omega_0^2 + (omega_c/2)^2) and m = l, the field-dressed radial
    equation is the plain one at w/2 and |m|, and the eigenvalue shifts by
    m*omega_c/4. Nothing in the program calls it yet; ROADMAP item 2's
    command will.
    """
    if omega_0 < 0:
        raise ValueError("omega_0 must be non-negative")
    if omega_0 == 0 and B == 0:
        raise ValueError("degenerate problem: omega_0 = B = 0")
    omega_c = B / SPEED_OF_LIGHT
    dressed = math.sqrt(omega_0 ** 2 + (omega_c / 2) ** 2)
    return RadialProblem(omega=dressed / 2, l=abs(m)), m * omega_c / 4
