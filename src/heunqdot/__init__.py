"""Two-electron 2D quantum dot: polynomial states of the radial problem.

Pipeline: map the relative-motion radial equation onto the biconfluent Heun
form, locate the trap frequencies where the series solution terminates
(integer determinant recurrence + Descartes root isolation), assemble and
normalize the resulting wavefunctions, and cross-check every analytic state
against an independent spectral eigensolver of the self-adjoint radial
equation (a Galerkin solve in a Gaussian-weighted half-range polynomial
basis).
"""

__version__ = "0.1.0"
