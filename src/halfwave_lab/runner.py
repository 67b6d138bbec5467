"""Scenario dispatch and on-disk artifacts (CSV time series, JSON reports).

Floats are serialized with 17 significant digits so drift measurements
survive a round trip; identical config + seed gives bit-identical output.
"""

import functools
import json
import os

import numpy as np

from . import chain as chain_mod
from . import evolution, lax, solitons
from .config import ScenarioConfig, build_initial_values


def _fmt(x):
    return f"{float(x):.17g}"


def write_timeseries_csv(path, records, energy_column="energy"):
    """CSV header: t,energy,sx,sy,sz[,trL1..trL4,rank,lam1..lam4],defect,
    with the Lax columns when lax.diagnose made the records (rank >= 0);
    the chain names its energy column H_classical."""
    top_q = lax.TOP_EIGENVALUES
    lax_enabled = records[0].rank >= 0
    cols = ["t", energy_column, "sx", "sy", "sz"]
    if lax_enabled:
        cols += ([f"trL{p}" for p in range(1, lax.TRACE_POWERS + 1)] + ["rank"]
                 + [f"lam{i}" for i in range(1, top_q + 1)])
    cols += ["defect"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for r in records:
            row = [_fmt(r.time), _fmt(r.energy)] + [_fmt(v) for v in r.total_spin]
            if lax_enabled:
                for p in range(1, lax.TRACE_POWERS + 1):
                    tp = r.trace_powers.get(str(p), 0.0)
                    row.append(_fmt(tp if np.isscalar(tp) else tp[0]))
                row.append(str(r.rank))
                lams = list(r.eigenvalues) + [0.0] * top_q
                row += [_fmt(v) for v in lams[:top_q]]
            row.append(_fmt(r.defect))
            fh.write(",".join(row) + "\n")


def write_compare_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("N,error\n")
        for N, err in rows:
            fh.write(f"{N},{_fmt(err)}\n")


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


def dispatch(cfg: ScenarioConfig, out_dir=None):
    """Run the scenario described by cfg; writes artifacts into out_dir.

    Returns the list of paths written. Exceptions propagate to the CLI,
    which converts them into a machine-readable error record.
    """
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    if cfg.kind in ("evolve-sphere", "evolve-hyperbolic"):
        field = build_initial_values(cfg)
        record = evolution.diagnose if cfg.M is None else functools.partial(
            lax.diagnose, M=cfg.M, rank_tolerance=cfg.rank_tolerance)
        final, records = evolution.run(field, cfg.dt, cfg.T,
                                       cfg.record_interval, cfg.scheme, record)
        csv_path = os.path.join(out_dir, "timeseries.csv")
        write_timeseries_csv(csv_path, records)
        ckpt_path = os.path.join(out_dir, "final_state.json")
        with open(ckpt_path, "w") as fh:
            fh.write(checkpoint_json(final))
        paths += [csv_path, ckpt_path]

    elif cfg.kind == "chain":
        field = build_initial_values(cfg)
        _, records = chain_mod.chain_run(field, cfg.dt, cfg.T,
                                         cfg.record_interval, cfg.scheme)
        csv_path = os.path.join(out_dir, "chain.csv")
        write_timeseries_csv(csv_path, records, energy_column="H_classical")
        paths.append(csv_path)

    elif cfg.kind == "lax-spectrum":
        field = build_initial_values(cfg)
        M = cfg.M if cfg.M is not None else cfg.N // 4
        report = lax.spectrum(lax.build_L(field, M),
                              rank_tolerance=cfg.rank_tolerance)
        json_path = os.path.join(out_dir, "spectrum.json")
        with open(json_path, "w") as fh:
            fh.write(report.to_json())
        paths.append(json_path)

    elif cfg.kind == "hs-compare":
        rows = chain_mod.continuum_compare(
            float(cfg.initial["a"]), float(cfg.initial["c"]), cfg.N_list, cfg.T)
        csv_path = os.path.join(out_dir, "compare.csv")
        write_compare_csv(csv_path, rows)
        paths.append(csv_path)

    elif cfg.kind == "soliton-check":
        report = soliton_report(cfg.soliton_v, cfg.soliton_zeros)
        json_path = os.path.join(out_dir, "soliton.json")
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=2)
        paths.append(json_path)

    else:  # pragma: no cover - parse_config already rejects unknown kinds
        raise ValueError(f"unknown scenario kind {cfg.kind!r}")

    return paths
