"""Classical spin chain with 1/sin^2 couplings and its continuum limit.

Runs the lattice dynamics in rescaled time tau = t/(2N) from samples of
the tilted-circle field and compares against the exact rotating solution
of the continuum equation: the error decreases as the lattice refines.
Also times the O(N log N) convolution force against the O(N^2) loop.
"""

import time

import numpy as np

from halfwave_lab import (SpinField, chain_rhs_direct, chain_rhs_fft,
                          continuum_compare, random_band_limited, rhs,
                          tilted_circle, tilted_circle_exact)
from halfwave_lab.chain import rescale_ratio


def main():
    print("=== lattice -> continuum error, tau = t/(2N), T = 1 ===")
    rows = continuum_compare(
        lambda N: tilted_circle(N, 0.6, 0.8).values,
        lambda N, T: tilted_circle_exact(N, 0.6, 0.8, T).values,
        [32, 64, 128, 256], 1.0)
    print(f"{'N':>5}  {'sup-norm error':>15}")
    for N, err in rows:
        print(f"{N:5d}  {err:15.3e}")

    print("\n=== force rescaling ratio |chain rhs| / (2N |pde rhs|) ===")
    for N in (64, 128, 256):
        f = tilted_circle(N, 0.6, 0.8)
        r = rescale_ratio(f.values, rhs(f.values))
        print(f"N = {N:3d}: ratio = {r:.6f}  (1 - 1/N = {1 - 1/N:.6f})")

    print("\n=== fft vs direct force evaluation at N = 4096 ===")
    c = SpinField(random_band_limited(4096, 4, seed=0).values)
    chain_rhs_fft(c)  # warm up
    t0 = time.perf_counter()
    d = chain_rhs_direct(c)
    t_direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(10):
        f = chain_rhs_fft(c)
    t_fft = (time.perf_counter() - t0) / 10
    print(f"direct: {t_direct * 1e3:8.2f} ms")
    print(f"fft:    {t_fft * 1e3:8.2f} ms   (speedup {t_direct / t_fft:.0f}x)")
    print(f"max deviation: {np.abs(d - f).max():.3e}")


if __name__ == "__main__":
    main()
