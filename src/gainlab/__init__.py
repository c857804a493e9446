"""Desk-scale testbed for how PD controller gains shape policy learning.

Modules
-------
dynamics   plants (point mass, decoupled chain, planar 2R arm) + semi-implicit integrator
control    PD/impedance law, torque limits, gain regimes, compliance probe
retarget   torque-to-position retargeting and zero-order-hold replay
noise      error-attenuation theory, its Monte Carlo check, noisy replay
sysid      excitation, spectral loss, CMA-ES, identification, divergence metrics
shaping    action mappings, rewards, constrained objective, shaping search
stats      logistic/OLS fits, Barnard and Mann-Whitney exact tests, Bonferroni
cli        config-driven experiment runner (``gainlab`` entry point)
"""

from . import control, dynamics, noise, retarget, shaping, stats, sysid

__all__ = ["control", "dynamics", "noise", "retarget", "shaping", "stats", "sysid"]
__version__ = "0.1.0"
