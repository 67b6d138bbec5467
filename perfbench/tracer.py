"""Run the halfwave-lab CLI in this process with a span around each layer call.

    python perfbench/tracer.py SPANS.json RUN_ID <halfwave-lab arguments...>

The spans are put in from outside: the module attributes listed in
TARGETS are replaced by wrappers before the CLI runs, so every call that
looks the name up in its module at call time is recorded. A span is
``[name, start, end, parent, run_id]``; ``parent`` is the index of the
enclosing span or -1. Spans stay in memory and are written to SPANS.json
when the CLI returns, together with the rank/dim of every Lax spectrum
and the targets that no longer exist.

Blind spot: ``chain_rhs_fft`` is bound as the default argument of
``chain_step``/``chain_run`` when the module is defined, so no wrapper
reaches it; its time sits in the self time of ``chain.chain_step``
(its calls show as ``chain.inverse_sin2_kernel`` and ``algebra.cross``).
"""

import functools
import importlib
import json
import sys
import time

# (module of halfwave_lab [":Class"], attribute, span name)
TARGETS = (
    ("cli", "parse_config", "config.parse_config"),
    ("cli", "dispatch", "runner.dispatch"),
    ("runner", "build_initial_values", "config.build_initial_values"),
    ("runner", "write_timeseries_csv", "runner.write"),
    ("runner", "write_chain_csv", "runner.write"),
    ("runner", "checkpoint_json", "runner.write"),
    ("evolution", "step", "evolution.step"),
    ("evolution", "diagnose", "evolution.diagnose"),
    ("evolution", "cross", "algebra.cross"),
    ("evolution", "eta_cross", "algebra.eta_cross"),
    ("spectral", "halfwave_op", "spectral.halfwave_op"),
    ("spectral", "modes", "spectral.modes"),
    ("lax", "pauli_map", "algebra.coeff_map"),
    ("lax", "su11_map", "algebra.coeff_map"),
    ("lax", "build_L", "lax.build_L"),
    ("lax", "spectrum", "lax.spectrum"),
    ("chain", "cross", "algebra.cross"),
    ("chain", "chain_step", "chain.chain_step"),
    ("chain", "chain_energy", "chain.chain_energy"),
    ("chain", "inverse_sin2_kernel", "chain.inverse_sin2_kernel"),
    ("fields:SpinField", "renormalized", "fields.renormalized"),
    ("fields:HyperbolicField", "renormalized", "fields.renormalized"),
    ("chain:SpinChain", "renormalized", "chain.renormalized"),
)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = [-1]
        self.lax_rank_dim = []

    def wrap(self, fn, name):
        spans, stack, run_id = self.spans, self.stack, self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1], run_id]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self):
        """Wrap every target that exists; return the names of those missing."""
        missing = []
        for where, attr, name in TARGETS:
            module_name, _, class_name = where.partition(":")
            owner = importlib.import_module("halfwave_lab." + module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{where}.{attr}")
                continue
            if name == "lax.spectrum":
                fn = self._noting_rank(fn)
            setattr(owner, attr, self.wrap(fn, name))
        return missing

    def _noting_rank(self, fn):
        @functools.wraps(fn)
        def spectrum(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.lax_rank_dim.append([report.rank, len(report.singular_values)])
            return report
        return spectrum


def main(argv):
    spans_path, run_id, cli_args = argv[0], int(argv[1]), argv[2:]
    from halfwave_lab import cli  # applies HWL_THREADS before numpy loads

    tracer = Tracer(run_id)
    missing = tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "missing": missing,
                       "lax_rank_dim": tracer.lax_rank_dim}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
