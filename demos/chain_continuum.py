"""Classical spin chain with 1/sin^2 couplings and its continuum limit.

Runs the lattice dynamics in rescaled time tau = t/(2N) from samples of
the tilted-circle field and compares against the exact rotating solution
of the continuum equation: the error decreases as the lattice refines.
The chain force is the Fourier multiplier 2|n|(N - |n|), which over 2N is
|n| - n^2/N, so the force ratio to 2N |grad| is 1 - 1/N at bandwidth 1.
"""

from halfwave_lab import continuum_compare


def main():
    print("=== lattice -> continuum error, tau = t/(2N), T = 1 ===")
    rows = continuum_compare(0.6, 0.8, [32, 64, 128, 256], 1.0)
    print(f"{'N':>5}  {'sup-norm error':>15}")
    for N, err in rows:
        print(f"{N:5d}  {err:15.3e}")


if __name__ == "__main__":
    main()
