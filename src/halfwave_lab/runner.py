"""Scenario dispatch and on-disk artifacts (CSV time series, JSON reports).

Each kind's branch of `dispatch` builds {file name: text}; one loop writes
it. Floats are serialized with 17 significant digits so drift measurements
survive a round trip; identical config + seed gives bit-identical output.
"""

import functools
import json
import os
from dataclasses import asdict

import numpy as np

from . import chain as chain_mod
from . import evolution, lax, solitons
from .config import ScenarioConfig, build_initial_values


def _fmt(x):
    return f"{float(x):.17g}"


def timeseries_csv(records, energy_column):
    """The CSV text of the records, header t,energy,sx,sy,sz[,trL1..trL4,
    rank,lam1..lam4],defect, with the Lax columns when lax.diagnose made the
    records (rank >= 0); the chain names its energy column H_classical."""
    top_q = lax.TOP_EIGENVALUES
    lax_enabled = records[0].rank >= 0
    cols = ["t", energy_column, "sx", "sy", "sz"]
    if lax_enabled:
        cols += ([f"trL{p}" for p in range(1, lax.TRACE_POWERS + 1)] + ["rank"]
                 + [f"lam{i}" for i in range(1, top_q + 1)])
    cols += ["defect"]
    lines = [",".join(cols) + "\n"]
    for r in records:
        row = [_fmt(r.time), _fmt(r.energy)] + [_fmt(v) for v in r.total_spin]
        if lax_enabled:
            row += [_fmt(v) for v in r.trace_powers.values()] + [str(r.rank)]
            lams = list(r.eigenvalues) + [0.0] * top_q
            row += [_fmt(v) for v in lams[:top_q]]
        row.append(_fmt(r.defect))
        lines.append(",".join(row) + "\n")
    return "".join(lines)


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
        files = {"timeseries.csv": timeseries_csv(records, "energy"),
                 "final_state.json": checkpoint_json(final)}
    elif cfg.kind == "chain":
        field = build_initial_values(cfg)
        _, records = evolution.run(field, cfg.dt, cfg.T, cfg.record_interval,
                                   cfg.scheme, chain_mod.chain_diagnose,
                                   chain_mod.chain_rhs)
        files = {"chain.csv": timeseries_csv(records, "H_classical")}
    elif cfg.kind == "lax-spectrum":
        field = build_initial_values(cfg)
        L = lax.build_L(field, cfg.M or cfg.N // 4)  # config has M >= 1
        report = lax.spectrum(L, field.target, cfg.rank_tolerance)
        files = {"spectrum.json": json.dumps(asdict(report), indent=2)}
    elif cfg.kind == "hs-compare":
        rows = chain_mod.continuum_compare(
            float(cfg.initial["a"]), float(cfg.initial["c"]), cfg.N_list, cfg.T)
        files = {"compare.csv": "N,error\n" + "".join(
            f"{N},{_fmt(err)}\n" for N, err in rows)}
    elif cfg.kind == "soliton-check":
        report = soliton_report(cfg.soliton_v, cfg.soliton_zeros)
        files = {"soliton.json": json.dumps(report, indent=2)}
    else:
        raise ValueError(f"unknown scenario kind {cfg.kind!r}")

    paths = [os.path.join(out_dir, name) for name in files]
    for path, text in zip(paths, files.values()):
        with open(path, "w") as fh:
            fh.write(text)
    return paths
