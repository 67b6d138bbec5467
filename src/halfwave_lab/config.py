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

from . import fields, solitons
from .evolution import SCHEMES, step_count
from .fields import HYPERBOLIC, SPHERE

KINDS = ("evolve-sphere", "evolve-hyperbolic", "chain", "lax-spectrum",
         "soliton-check", "hs-compare")
# the target each kind's flow runs on; the others take either
KIND_TARGETS = {"evolve-sphere": SPHERE, "evolve-hyperbolic": HYPERBOLIC,
                "chain": SPHERE}

# RK4 is stable on the imaginary axis up to |dt * lambda| = 2 sqrt(2)
RK4_STABILITY_LIMIT = 2.0 * math.sqrt(2.0)

# [scenario] key besides kind -> (ScenarioConfig field, type)
_SCENARIO_KEYS = {"n": ("N", int), "m": ("M", int), "dt": ("dt", float),
                  "t": ("T", float), "record_interval": ("record_interval", int),
                  "scheme": ("scheme", str),
                  "rank_tolerance": ("rank_tolerance", float),
                  "seed": ("seed", int)}
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
        if key not in _SCENARIO_KEYS and key != "kind":
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
    for key, (name, cast) in _SCENARIO_KEYS.items():
        setattr(cfg, name, _get(parser, "scenario", key, cast,
                                getattr(cfg, name), errors))

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
        # rk4 stability: dt times the largest symbol of the linearized flow,
        # N/2 for |grad| and N^2/2 for the chain coupling
        top, name = (cfg.N ** 2 / 2.0, "N^2/2") if kind == "chain" \
            else (cfg.N / 2.0, "N/2")
        if cfg.scheme == "rk4" and cfg.dt * top > RK4_STABILITY_LIMIT:
            errors.append(
                f"[scenario] dt = {cfg.dt} is past the rk4 stability limit: "
                f"dt*{name} = {cfg.dt * top:.4g} > 2*sqrt(2); use "
                f"dt <= {RK4_STABILITY_LIMIT / top:.4g} or scheme = midpoint")

    if parser.has_section("initial"):
        cfg.initial = dict(parser.items("initial"))
    if kind != "soliton-check":
        _validate_initial(cfg, errors)

    if kind == "hs-compare":
        for key in ("dt", "scheme", "record_interval"):
            if parser.has_option("scenario", key):
                errors.append(f"[scenario] {key} is not used by hs-compare "
                              "(RK4 at dt = 0.5/N^2 per lattice)")
        raw = parser.get("compare", "n_list", fallback="")
        try:
            cfg.N_list = tuple(int(tok) for tok in raw.split(","))
        except ValueError:
            pass  # N_list stays empty and is reported below
        if not cfg.N_list or any(N % 2 != 0 or N < 4 for N in cfg.N_list):
            errors.append("[compare] N_list of even grid sizes >= 4 required "
                          f"for hs-compare, got {raw!r}")

    if kind == "soliton-check":
        if not parser.has_section("soliton"):
            errors.append("[soliton] section required for soliton-check")
        else:
            cfg.soliton_v = _get(parser, "soliton", "v", float, 0.0, errors)
            raw = parser.get("soliton", "zeros", fallback="")
            try:
                cfg.soliton_zeros = parse_zeros(raw)
                solitons.BlaschkeProfile(cfg.soliton_v, cfg.soliton_zeros)
            except ValueError as exc:
                errors.append(f"[soliton] v = {cfg.soliton_v}, zeros = "
                              f"{raw!r}: {exc}")

    cfg.out_dir = parser.get("output", "dir", fallback=cfg.out_dir)

    if errors:
        raise ConfigError(errors)
    return cfg


def parse_zeros(text):
    """Comma-separated complex numbers such as "1j, 1+2j"; ValueError on a
    token that does not parse."""
    return tuple(complex(tok.strip().replace(" ", ""))
                 for tok in text.split(",") if tok.strip())


def _validate_initial(cfg, errors):
    """Build the family's field on the smallest grid, which runs the checks
    of its constructor, and match its target to the kind's."""
    family = cfg.initial.get("family")
    if family not in FAMILIES:
        errors.append(f"[initial] family must be one of {tuple(FAMILIES)}, "
                      f"got {family!r}")
        return
    if cfg.kind == "hs-compare" and family != "tilted-circle":
        errors.append(f"[initial] hs-compare needs tilted-circle, got {family!r}")
    try:
        target = build_initial_values(cfg, N=4).target
    except KeyError as exc:
        errors.append(f"[initial] {family} requires {exc.args[0]}")
    except ValueError as exc:
        errors.append(f"[initial] {family} from {cfg.initial}: {exc}")
    else:
        if KIND_TARGETS.get(cfg.kind, target) != target:
            valued = "H^2-valued" if target == HYPERBOLIC else "sphere-valued"
            errors.append(f"[initial] family {family!r} is {valued}, kind "
                          f"{cfg.kind} is not")


def _constant(cfg, N):
    """The constant family on the kind's target, S^2 for the kinds that take
    either; only `direction` is parsed here."""
    raw = cfg.initial.get("direction")
    d = None if raw is None else [float(t) for t in raw.split(",")]
    return fields.constant_field(N, d, KIND_TARGETS.get(cfg.kind, SPHERE))


# family -> builder(cfg, N) of its field, which raises KeyError on a
# missing parameter and ValueError on a bad one
FAMILIES = {
    "constant": _constant,
    "great-circle": lambda cfg, N: fields.tilted_circle(N, 1.0, 0.0),
    "tilted-circle": lambda cfg, N: fields.tilted_circle(
        N, float(cfg.initial["a"]), float(cfg.initial["c"])),
    "hyperbolic-circle": lambda cfg, N: fields.hyperbolic_circle(
        N, float(cfg.initial["a"])),
    "random-band-limited": lambda cfg, N: fields.random_band_limited(
        N, int(cfg.initial["bandwidth"]), cfg.seed),
}


def build_initial_values(cfg, N=None):
    """Instantiate the named family as a field object on an N-point grid."""
    return FAMILIES[cfg.initial["family"]](cfg, N if N is not None else cfg.N)
