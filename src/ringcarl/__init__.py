"""Collective recoil and self-ordering dynamics in a two-side pumped ring cavity.

Subpackages by concern:

* :mod:`ringcarl.core`      -- parameters, units and the mean-field model both
  solvers share: mode equations and their exact flow at fixed bunching,
  coupling, force, the momentum invariant, sampled time series, the one
  split-step run loop
* :mod:`ringcarl.nbody`     -- coupled mode-particle ODE integration and diagnostics
* :mod:`ringcarl.vlasov`    -- semi-Lagrangian kinetic solver on a phase-space grid
* :mod:`ringcarl.stability` -- dispersion relation, growth rates, stability boundary
* :mod:`ringcarl.bgk`       -- travelling-wave relations and run validation
* :mod:`ringcarl.cli`       -- configuration, presets, sweeps, persistence

Mode amplitudes are a complex array (a+, a-, b+, b-); particles and grids are
plain numpy arrays.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
