"""halfwave_lab: numerical laboratory for the half-wave maps equation.

Modules:
  fields     - the spin field on S^2 or H^2 and its initial families
  spectral   - the |grad| Fourier multiplier and grid transforms
  lax        - Lax pair matrices from the Pauli / su(1,1) maps; spectra
  evolution  - time integration on S^2 and H^2, shared with the chain
  chain      - classical Haldane-Shastry spin chain and continuum limit
  solitons   - Blaschke traveling-wave profiles on the real line
  config     - scenario configuration files
  runner     - scenario dispatch and CSV/JSON artifacts
"""

from .chain import chain_energy, chain_rhs, continuum_compare
from .config import ConfigError, ScenarioConfig, parse_config
from .evolution import energy, rhs, run, total_spin
from .fields import (SpinField, constant_field, hyperbolic_circle,
                     random_band_limited, random_rational, tilted_circle)
from .lax import SpectrumReport, build_B, build_L, lax_residual, spectrum
from .runner import dispatch
from .solitons import (BlaschkeProfile, profile_energy, profile_residual,
                       rank_four_lax)

__version__ = "0.1.0"
