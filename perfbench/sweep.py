"""Per-call time of one kernel at N = 256, 1024, 4096, and the fitted
scaling exponent d log t / d log N.

    python perfbench/sweep.py SEED KERNEL

KERNEL is a key of ``kernels``. Prints one JSON object
{"exp": .., "s": {"<N>": ..}}. Each time is the median over repeats that
fill at least MIN_SECONDS (at least MIN_REPEATS calls). Run each kernel
in a fresh process: in one shared process `halfwave_op` at N = 4096 ran
three times faster after `chain_energy` at N = 1024, most likely because
glibc raises its mmap and trim thresholds after a large free.
"""

import json
import math
import statistics
import sys
import time

from halfwave_lab import chain, evolution, fields, spectral

SIZES = (256, 1024, 4096)
MIN_SECONDS = 0.25
MIN_REPEATS = 2


def kernels(field):
    """The four calls on one field, by name."""
    spins = chain.SpinChain(field.values)
    return {
        "spectral.halfwave_op": lambda: spectral.halfwave_op(field.values.T),
        "evolution.step": lambda: evolution.step(field, 1e-4, "rk4"),
        "chain.chain_rhs_fft": lambda: chain.chain_rhs_fft(spins),
        "chain.chain_energy": lambda: chain.chain_energy(spins),
    }


def per_call_seconds(call):
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fitted_exponent(sizes, seconds):
    """Least-squares slope of log t against log N."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main(seed, name):
    times = [per_call_seconds(kernels(fields.random_band_limited(n, 8, seed))[name])
             for n in SIZES]
    print(json.dumps({"exp": fitted_exponent(SIZES, times),
                      "s": {str(n): t for n, t in zip(SIZES, times)}}))


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
