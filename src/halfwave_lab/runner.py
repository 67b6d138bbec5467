"""Scenario dispatch and on-disk artifacts (CSV time series, JSON reports).

Each kind's branch of `dispatch` builds the texts of its OUTPUTS; one loop
writes them. Floats are serialized with 17 significant digits so drift
measurements survive a round trip; identical config + seed gives
bit-identical output.
"""

import functools
import json
import os
from dataclasses import asdict

import numpy as np

from . import chain as chain_mod
from . import evolution, lax, solitons
from .config import ScenarioConfig, build_initial_values


# the files each scenario kind writes, in the order dispatch returns them
OUTPUTS = {"evolve-sphere": ("timeseries.csv", "final_state.json"),
           "evolve-hyperbolic": ("timeseries.csv", "final_state.json"),
           "chain": ("chain.csv",), "lax-spectrum": ("spectrum.json",),
           "hs-compare": ("compare.csv",), "soliton-check": ("soliton.json",)}


def _fmt(x):
    return f"{float(x):.17g}"


def timeseries_csv(records):
    """The CSV text of rows {column: value}: a header, then a line a row."""
    lines = [records[0].keys()] + [map(_fmt, row.values()) for row in records]
    return "".join(",".join(cells) + "\n" for cells in lines)


def checkpoint_json(field):
    """Serialize a field state as a JSON array of triples."""
    return json.dumps({
        "time": field.time,
        "target": field.target,
        "values": [[float(v) for v in row] for row in field.values],
    })


def soliton_report(v, zeros):
    """The soliton-check JSON payload for a profile (v, zeros). The rank-4
    Lax data (eigenvalues, trace_sq = (8/pi) E) exist for degree 1 only; at
    any other degree a "lax" note stands in their place."""
    profile = solitons.BlaschkeProfile(v, zeros)
    x = np.linspace(-50.0, 50.0, 1001)
    report = {
        "energy": solitons.profile_energy(profile),
        "residual_max": solitons.profile_residual(profile, x),
    }
    if profile.degree != 1:
        report["lax"] = (f"rank-4 Lax data hold for degree 1 only; this "
                         f"profile has degree {profile.degree}")
        return report
    r4 = solitons.rank_four_lax(v)
    report["lax_eigenvalues"] = sorted(np.linalg.eigvalsh(r4).tolist())
    report["trace_sq"] = float(np.sum(np.abs(r4) ** 2))
    return report


def dispatch(cfg: ScenarioConfig, out_dir):
    """Run the scenario described by cfg; writes artifacts into out_dir.

    Returns the list of paths written. Exceptions propagate to the CLI,
    which converts them into a machine-readable error record.
    """
    os.makedirs(out_dir, exist_ok=True)

    if cfg.kind in ("evolve-sphere", "evolve-hyperbolic"):
        field = build_initial_values(cfg)
        record = evolution.diagnose if cfg.M is None else functools.partial(
            lax.diagnose, M=cfg.M, rank_tolerance=cfg.rank_tolerance)
        final, records = evolution.run(field, cfg.dt, cfg.T,
                                       cfg.record_interval, cfg.scheme, record)
        texts = [timeseries_csv(records), checkpoint_json(final)]
    elif cfg.kind == "chain":
        field = build_initial_values(cfg)
        _, records = evolution.run(field, cfg.dt, cfg.T, cfg.record_interval,
                                   cfg.scheme, chain_mod.chain_diagnose,
                                   chain_mod.chain_rhs)
        texts = [timeseries_csv(records)]
    elif cfg.kind == "lax-spectrum":
        field = build_initial_values(cfg)
        L = lax.build_L(field, cfg.M or cfg.N // 4)  # config has M >= 1
        report = lax.spectrum(L, field.target, cfg.rank_tolerance)
        texts = [json.dumps(asdict(report), indent=2)]
    elif cfg.kind == "hs-compare":
        rows = chain_mod.continuum_compare(
            float(cfg.initial["a"]), float(cfg.initial["c"]), cfg.N_list, cfg.T)
        texts = [timeseries_csv([{"N": N, "error": e} for N, e in rows])]
    elif cfg.kind == "soliton-check":
        report = soliton_report(cfg.soliton_v, cfg.soliton_zeros)
        texts = [json.dumps(report, indent=2)]
    else:
        raise ValueError(f"unknown scenario kind {cfg.kind!r}")

    paths = [os.path.join(out_dir, name) for name in OUTPUTS[cfg.kind]]
    for path, text in zip(paths, texts):
        with open(path, "w") as fh:
            fh.write(text)
    return paths
