"""halfwave_lab: numerical laboratory for the half-wave maps equation.

Modules:
  algebra    - Pauli / su(1,1) vector algebra for both targets
  spectral   - the |grad| Fourier multiplier and grid transforms
  lax        - truncated Lax pair matrices and spectral diagnostics
  evolution  - time integration on S^2 and H^2, shared with the chain
  chain      - classical Haldane-Shastry spin chain and continuum limit
  solitons   - Blaschke traveling-wave profiles on the real line
  config     - scenario configuration files
  runner     - scenario dispatch and CSV/JSON artifacts
"""

from .algebra import cross, eta_cross, eta_dot, pauli_map, su11_map
from .chain import (chain_energy, chain_rhs, chain_rhs_direct, chain_rhs_fft,
                    continuum_compare)
from .config import ConfigError, ScenarioConfig, parse_config
from .evolution import energy, rhs, run, step, total_spin
from .fields import (SpinField, constant_field, hyperbolic_circle,
                     random_band_limited, random_rational, tilted_circle)
from .lax import SpectrumReport, build_B, build_L, lax_residual, spectrum
from .runner import dispatch
from .solitons import (BlaschkeProfile, blaschke_eval, profile_energy,
                       profile_energy_quadrature, profile_eval,
                       profile_residual, rank_four_lax)

__version__ = "0.1.0"
