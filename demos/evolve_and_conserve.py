"""Evolve sphere- and hyperboloid-valued fields and track conserved quantities.

Integrates the exact rotating solutions with RK4 plus pointwise
renormalization and prints the drifts of energy, total spin, and the
pointwise constraint, together with the sup-norm error against the
closed-form solution at the final time.
"""

import numpy as np

from halfwave_lab.evolution import run
from halfwave_lab.fields import hyperbolic_circle, tilted_circle


def table(label, f0, exact, dt=1e-3, T=1.0):
    print(f"=== {label} ===")
    final, recs = run(f0, dt, T, record_interval=200)
    def spin(r):
        return np.array([r["sx"], r["sy"], r["sz"]])

    e0, s0 = recs[0]["energy"], spin(recs[0])
    print(f"{'t':>5}  {'energy drift':>13}  {'spin drift':>11}  {'defect':>9}")
    for r in recs:
        print(f"{r['t']:5.2f}  {abs(r['energy'] - e0):13.3e}  "
              f"{np.abs(spin(r) - s0).max():11.3e}  {r['defect']:9.1e}")
    err = np.abs(final.values - exact.values).max()
    print(f"sup-norm error vs closed form at T = {T}: {err:.3e}\n")


def main():
    table("tilted circle on the sphere (rotates at omega = c = 0.8)",
          tilted_circle(64, 0.6, 0.8), tilted_circle(64, 0.6, 0.8, 1.0))
    table("circle on the hyperboloid (rotates at omega = sqrt(1 + a^2))",
          hyperbolic_circle(64, 0.75), hyperbolic_circle(64, 0.75, 1.0))


if __name__ == "__main__":
    main()
