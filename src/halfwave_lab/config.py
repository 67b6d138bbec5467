"""Scenario configuration: sectioned key-value files, validated up front.

Format (INI-style, parsed with configparser):

    [scenario]
    kind = evolve-sphere        ; evolve-sphere | evolve-hyperbolic | chain |
                                ; lax-spectrum | soliton-check | hs-compare
    N = 128
    M = 16                      ; optional: enables Lax diagnostics
    dt = 1e-3
    T = 1.0
    record_interval = 100
    scheme = rk4                ; rk4 | midpoint
    rank_tolerance = 1e-8
    seed = 0

    [initial]
    family = tilted-circle      ; constant | great-circle | tilted-circle |
                                ; hyperbolic-circle | random-band-limited
    a = 0.6
    c = 0.8

    [compare]                   ; hs-compare only
    N_list = 32, 64, 128, 256

    [soliton]                   ; soliton-check only
    v = 0.5
    zeros = 1j, 1+2j

    [output]
    dir = out
"""

import configparser
import math
from dataclasses import dataclass, field

from . import fields
from .evolution import SCHEMES, step_count

KINDS = ("evolve-sphere", "evolve-hyperbolic", "chain", "lax-spectrum",
         "soliton-check", "hs-compare")
FAMILIES = ("constant", "great-circle", "tilted-circle", "hyperbolic-circle",
            "random-band-limited")

_SCENARIO_KEYS = {"kind", "n", "m", "dt", "t", "record_interval", "scheme",
                  "rank_tolerance", "seed"}
_INITIAL_KEYS = {"family", "a", "c", "bandwidth", "direction"}


class ConfigError(ValueError):
    """Raised with the full list of field errors found in a config."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


@dataclass
class ScenarioConfig:
    kind: str
    N: int = 128
    M: int = None
    dt: float = 1e-3
    T: float = 1.0
    record_interval: int = 1
    scheme: str = "rk4"
    rank_tolerance: float = 1e-8
    seed: int = 0
    initial: dict = field(default_factory=dict)
    N_list: tuple = ()
    soliton_v: float = 0.0
    soliton_zeros: tuple = ()
    out_dir: str = "."


def _get(parser, section, key, cast, default, errors):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except ValueError:
        errors.append(f"[{section}] {key}: cannot parse {raw!r}")
        return default


def parse_config(text):
    """Parse and validate a scenario config; raises ConfigError listing
    every problem found."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"])

    errors = []
    if not parser.has_section("scenario"):
        raise ConfigError(["missing [scenario] section"])

    for key in parser.options("scenario"):
        if key not in _SCENARIO_KEYS:
            errors.append(f"[scenario] unknown key {key!r}")
    if parser.has_section("initial"):
        for key in parser.options("initial"):
            if key not in _INITIAL_KEYS:
                errors.append(f"[initial] unknown key {key!r}")

    kind = _get(parser, "scenario", "kind", str, None, errors)
    if kind not in KINDS:
        errors.append(f"[scenario] kind must be one of {KINDS}, got {kind!r}")
        raise ConfigError(errors)

    cfg = ScenarioConfig(kind=kind)
    cfg.N = _get(parser, "scenario", "n", int, cfg.N, errors)
    cfg.M = _get(parser, "scenario", "m", int, None, errors)
    cfg.dt = _get(parser, "scenario", "dt", float, cfg.dt, errors)
    cfg.T = _get(parser, "scenario", "t", float, cfg.T, errors)
    cfg.record_interval = _get(parser, "scenario", "record_interval", int,
                               cfg.record_interval, errors)
    cfg.scheme = _get(parser, "scenario", "scheme", str, cfg.scheme, errors)
    cfg.rank_tolerance = _get(parser, "scenario", "rank_tolerance", float,
                              cfg.rank_tolerance, errors)
    cfg.seed = _get(parser, "scenario", "seed", int, cfg.seed, errors)

    if cfg.N % 2 != 0 or cfg.N < 4:
        errors.append(f"[scenario] N must be even and >= 4, got {cfg.N}")
    if cfg.M is not None and cfg.M > cfg.N // 2 - 1:
        errors.append(f"[scenario] M must satisfy M <= N/2 - 1, got M={cfg.M}, N={cfg.N}")
    if cfg.dt <= 0:
        errors.append(f"[scenario] dt must be positive, got {cfg.dt}")
    if cfg.T <= 0:
        errors.append(f"[scenario] T must be positive, got {cfg.T}")
    if cfg.record_interval < 1:
        errors.append("[scenario] record_interval must be >= 1")
    if cfg.scheme not in SCHEMES:
        errors.append(f"[scenario] scheme must be rk4 or midpoint, got {cfg.scheme!r}")
    if not (0.0 < cfg.rank_tolerance < 1.0):
        errors.append("[scenario] rank_tolerance must lie in (0, 1)")
    if kind in ("evolve-sphere", "evolve-hyperbolic", "chain") and cfg.dt > 0:
        try:
            step_count(cfg.T, cfg.dt)
        except ValueError as exc:
            errors.append(f"[scenario] {exc}")

    if parser.has_section("initial"):
        cfg.initial = dict(parser.items("initial"))
    if kind != "soliton-check":
        _validate_initial(cfg, errors)

    if kind == "hs-compare":
        raw = _get(parser, "compare", "n_list", str, "", errors) \
            if parser.has_section("compare") else ""
        if not raw:
            errors.append("[compare] N_list required for hs-compare")
        else:
            try:
                cfg.N_list = tuple(int(tok) for tok in raw.split(","))
            except ValueError:
                errors.append(f"[compare] N_list: cannot parse {raw!r}")

    if kind == "soliton-check":
        if not parser.has_section("soliton"):
            errors.append("[soliton] section required for soliton-check")
        else:
            cfg.soliton_v = _get(parser, "soliton", "v", float, 0.0, errors)
            raw = parser.get("soliton", "zeros", fallback="")
            try:
                cfg.soliton_zeros = tuple(
                    complex(tok.strip().replace(" ", ""))
                    for tok in raw.split(",") if tok.strip())
            except ValueError:
                errors.append(f"[soliton] zeros: cannot parse {raw!r}")
            if abs(cfg.soliton_v) >= 1.0:
                errors.append(f"[soliton] |v| < 1 required, got {cfg.soliton_v}")
            if any(z.imag <= 0 for z in cfg.soliton_zeros):
                errors.append("[soliton] all zeros need positive imaginary part")

    cfg.out_dir = parser.get("output", "dir", fallback=cfg.out_dir)

    if errors:
        raise ConfigError(errors)
    return cfg


def _validate_initial(cfg, errors):
    family = cfg.initial.get("family")
    if family not in FAMILIES:
        errors.append(f"[initial] family must be one of {FAMILIES}, got {family!r}")
        return
    sphere_valued = family not in ("constant", "hyperbolic-circle")
    if sphere_valued and cfg.kind == "evolve-hyperbolic":
        errors.append(f"[initial] family {family!r} is sphere-valued but kind is "
                      "evolve-hyperbolic")
    if family == "hyperbolic-circle" and cfg.kind in ("evolve-sphere", "chain"):
        errors.append(f"[initial] hyperbolic-circle is H^2-valued, {cfg.kind} is not")
    if cfg.kind == "hs-compare" and family != "tilted-circle":
        errors.append(f"[initial] hs-compare needs tilted-circle, got {family!r}")
    if family == "constant":
        try:
            _direction(cfg)
        except ValueError as exc:
            errors.append(f"[initial] direction: {exc}")
    elif family == "tilted-circle":
        try:
            a = float(cfg.initial.get("a", ""))
            c = float(cfg.initial.get("c", ""))
        except ValueError:
            errors.append("[initial] tilted-circle requires numeric a and c")
            return
        if abs(a * a + c * c - 1.0) > 1e-12:
            errors.append(
                f"[initial] tilted-circle requires a^2 + c^2 = 1, got "
                f"a={a}, c={c} (a^2+c^2={a * a + c * c})")
    elif family == "hyperbolic-circle":
        try:
            float(cfg.initial.get("a", ""))
        except ValueError:
            errors.append("[initial] hyperbolic-circle requires numeric a")
    elif family == "random-band-limited":
        try:
            int(cfg.initial.get("bandwidth", ""))
        except ValueError:
            errors.append("[initial] random-band-limited requires integer bandwidth")


def _direction(cfg):
    """The constant family's direction (default 1,0,0 on H^2, else 0,0,1); three
    finite numbers, not all zero, in the future cone d1 > |(d2, d3)| on H^2."""
    default = "1,0,0" if cfg.kind == "evolve-hyperbolic" else "0,0,1"
    d = tuple(float(t) for t in cfg.initial.get("direction", default).split(","))
    if len(d) != 3 or not any(d) or not all(map(math.isfinite, d)):
        raise ValueError(f"need three finite numbers, not all zero, got {d}")
    if cfg.kind == "evolve-hyperbolic" and d[0] <= math.hypot(d[1], d[2]):
        raise ValueError(f"evolve-hyperbolic needs d1 > |(d2, d3)|, got {d}")
    return d


def build_initial_values(cfg, N=None):
    """Instantiate the named family as a field object on an N-point grid."""
    N = N if N is not None else cfg.N
    family = cfg.initial.get("family")
    if family == "constant":
        direction = _direction(cfg)
        if cfg.kind == "evolve-hyperbolic":
            return fields.SpinField([direction] * N,
                                    target=fields.HYPERBOLIC).renormalized()
        return fields.constant_field(N, direction)
    if family == "great-circle":
        return fields.great_circle(N)
    if family == "tilted-circle":
        return fields.tilted_circle(N, float(cfg.initial["a"]),
                                    float(cfg.initial["c"]))
    if family == "hyperbolic-circle":
        return fields.hyperbolic_circle(N, float(cfg.initial["a"]))
    if family == "random-band-limited":
        return fields.random_band_limited(N, int(cfg.initial["bandwidth"]),
                                          cfg.seed)
    raise ValueError(f"unknown initial family {family!r}")
