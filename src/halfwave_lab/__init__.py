"""halfwave_lab: numerical laboratory for the half-wave maps equation.

Modules (the root exports no name; import each from its module):
  fields     - the spin field on S^2 or H^2 and its initial families
  spectral   - the |grad| Fourier multiplier and grid transforms
  lax        - Lax pair matrices from the Pauli / su(1,1) maps; spectra
  evolution  - time integration on S^2 and H^2, shared with the chain
  chain      - classical Haldane-Shastry spin chain and continuum limit
  solitons   - Blaschke traveling-wave profiles on the real line
  config     - scenario configuration files
  runner     - scenario dispatch and CSV/JSON artifacts
  cli        - the halfwave-lab command line
"""

__version__ = "0.1.0"
