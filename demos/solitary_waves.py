"""Traveling-wave profiles on the real line built from Blaschke products.

For Q_v = (sqrt(1 - v^2) Re B, sqrt(1 - v^2) Im B, v) with B a Blaschke
product of degree m, the energy is exactly (1 - v^2) pi m and the
traveling-wave equation holds identically. The associated commutator
operator has rank four with spectrum {-2a, 0, 0, 2a}, a = sqrt(1 - v^2).
"""

import numpy as np

from halfwave_lab import (BlaschkeProfile, profile_energy, profile_residual,
                          rank_four_lax)


def main():
    print("=== energy quantization E = (1 - v^2) pi m ===")
    zeros = (1j, 1 + 2j, -1 + 1.5j)
    print(f"{'m':>2} {'v':>4}  {'energy':>10}  {'E / pi':>8}")
    for m in (1, 2, 3):
        for v in (0.0, 0.5):
            e = profile_energy(BlaschkeProfile(v, zeros[:m]))
            print(f"{m:2d} {v:4.1f}  {e:10.6f}  {e / np.pi:8.4f}")

    print("\n=== traveling-wave residual (closed form) ===")
    x = np.linspace(-50, 50, 1000)
    for v in (0.0, 0.5, 0.9):
        r = profile_residual(BlaschkeProfile(v, (1j,)), x)
        print(f"v = {v:3.1f}: max residual {r:.3e}")

    print("\n=== rank-4 commutator matrix spectrum ===")
    for v in (0.0, 0.5, 0.9):
        lm = rank_four_lax(v)
        eigs = np.sort(np.linalg.eigvalsh(lm))
        a = np.sqrt(1 - v * v)
        tr = np.sum(np.abs(lm) ** 2)
        print(f"v = {v:3.1f}: eigenvalues {np.round(eigs, 6)}, "
              f"Tr|M|^2 = {tr:.6f} (= 8(1 - v^2) = {8 * (1 - v*v):.6f})")


if __name__ == "__main__":
    main()
