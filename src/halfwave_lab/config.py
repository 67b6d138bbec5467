"""Scenario configuration: sectioned key-value files, validated up front.

Format (INI-style, parsed with configparser). The [scenario], [compare]
and [soliton] keys are parsed through one table, KEYS; each kind accepts
only the keys and the sections it reads, as listed in KINDS, and each
family only the [initial] keys it reads, as listed in FAMILIES. A key no
table lists is an error in every section:

    [scenario]
    kind = evolve-sphere        ; a KINDS key
    N = 128
    M = 16                      ; optional: enables Lax diagnostics
    dt = 1e-3
    T = 1.0
    record_interval = 100
    scheme = rk4                ; an evolution.SCHEMES key
    rank_tolerance = 1e-8
    seed = 0

    [initial]
    family = tilted-circle      ; a FAMILIES key
    a = 0.6
    c = 0.8

    [compare]                   ; hs-compare only
    N_list = 32, 64, 128, 256

    [soliton]                   ; soliton-check only
    v = 0.5
    zeros = 1j, 1+2j
"""

import configparser
import dataclasses
import math

from . import fields, solitons
from .evolution import SCHEMES, step_count
from .fields import HYPERBOLIC, SPHERE

_EVOLVE_KEYS = "N M dt T record_interval scheme rank_tolerance seed".split()
# kind -> (the target its flow runs on, None where either; the ScenarioConfig
# fields it reads, each from its KEYS entry; the sections it reads besides
# [scenario]; the halfwave-lab subcommand that runs it)
KINDS = {"evolve-sphere": (SPHERE, _EVOLVE_KEYS, ["initial"], "evolve"),
         "evolve-hyperbolic": (HYPERBOLIC, _EVOLVE_KEYS, ["initial"], "evolve"),
         "chain": (SPHERE, "N dt T record_interval scheme seed".split(),
                   ["initial"], "chain"),
         "lax-spectrum": (None, "N M rank_tolerance seed".split(), ["initial"],
                          "lax-spectrum"),
         "hs-compare": (None, ["T", "N_list"], ["initial", "compare"],
                        "hs-compare"),
         "soliton-check": (None, ["soliton_v", "soliton_zeros"], ["soliton"],
                           "soliton-check")}
MAX_N = 2 ** 20  # largest grid size N, for N and each hs-compare N_list entry


class ConfigError(ValueError):
    """Raised with the full list of field errors found in a config."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


@dataclasses.dataclass
class ScenarioConfig:
    kind: str
    N: int = 128
    M: int = None
    dt: float = 1e-3
    T: float = 1.0
    record_interval: int = 1
    scheme: str = next(iter(SCHEMES))  # evolution.run's default
    rank_tolerance: float = 1e-8
    seed: int = 0
    initial: dict = dataclasses.field(default_factory=dict)
    N_list: tuple = ()
    soliton_v: float = 0.0
    soliton_zeros: tuple = ()


# (section, key as configparser lowercases it) -> (the ScenarioConfig field
# it sets, the parser of its text, which raises ValueError on bad text)
KEYS = {("scenario", name.lower()): (name, ScenarioConfig.__annotations__[name])
        for name in _EVOLVE_KEYS} | {
    ("compare", "n_list"): ("N_list", lambda raw: tuple(map(int, raw.split(",")))),
    ("soliton", "v"): ("soliton_v", float),
    # comma-separated complex numbers such as "1j, 1+2j"
    ("soliton", "zeros"): ("soliton_zeros", lambda raw: tuple(
        complex(tok.strip().replace(" ", "")) for tok in raw.split(",")
        if tok.strip()))}


def parse_config(text):
    """Parse and validate a scenario config; raises ConfigError listing
    every problem found."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"])

    errors = []
    if not parser.has_section("scenario"):
        raise ConfigError(["missing [scenario] section"])

    kind = parser.get("scenario", "kind", fallback=None)
    used = KINDS[kind][1] if kind in KINDS else ()
    cfg = ScenarioConfig(kind=kind)
    for section in dict.fromkeys(section for section, _ in KEYS):
        for key in parser.options(section) if parser.has_section(section) else ():
            name, parse = KEYS.get((section, key), (None, None))
            raw = parser.get(section, key)
            if name in used:
                try:
                    setattr(cfg, name, parse(raw))
                except ValueError:  # the key as the docs spell it: N, N_list, v
                    key = name.removeprefix("soliton_")
                    errors.append(f"[{section}] {key}: cannot parse {raw!r}")
            elif name is None and (section, key) != ("scenario", "kind"):
                errors.append(f"[{section}] unknown key {key!r}")
            elif name and section == "scenario" and kind in KINDS:
                errors.append(f"[scenario] {name} is not used by {kind}")
    if parser.has_section("initial"):
        known = {"family"}.union(*(keys for keys, _ in FAMILIES.values()))
        family = parser.get("initial", "family", fallback=None)
        reads = FAMILIES[family][0] if family in FAMILIES else known
        for key in parser.options("initial"):
            if key not in known:
                errors.append(f"[initial] unknown key {key!r}")
            elif key != "family" and key not in reads:
                errors.append(f"[initial] {key} is not used by {family}")

    if kind not in KINDS:
        errors.append(f"[scenario] kind must be one of {tuple(KINDS)}, "
                      f"got {kind!r}")
        raise ConfigError(errors)
    sections = KINDS[kind][2]
    for section in parser.sections():
        if section not in ["scenario", *sections]:
            errors.append(f"[{section}] is not used by {kind}")

    if cfg.N > MAX_N:
        errors.append(f"[scenario] N = {cfg.N} is too large, N <= {MAX_N}")
    elif not _is_grid_size(cfg.N):
        errors.append(f"[scenario] N must be even and >= 4, got {cfg.N}")
    if cfg.M is not None and not 1 <= cfg.M <= cfg.N // 2 - 1:
        errors.append("[scenario] M must satisfy 1 <= M <= N/2 - 1, got "
                      f"M={cfg.M}, N={cfg.N}")
    if not 0 < cfg.dt < math.inf:
        errors.append(f"[scenario] dt must be positive and finite, got {cfg.dt}")
    if not 0 < cfg.T < math.inf:
        errors.append(f"[scenario] T must be positive and finite, got {cfg.T}")
    if cfg.record_interval < 1:
        errors.append("[scenario] record_interval must be >= 1")
    if cfg.scheme not in SCHEMES:
        errors.append(f"[scenario] scheme must be {' or '.join(SCHEMES)}, "
                      f"got {cfg.scheme!r}")
    if not (0.0 < cfg.rank_tolerance < 1.0):
        errors.append("[scenario] rank_tolerance must lie in (0, 1)")
    if cfg.seed < 0:
        errors.append(f"[scenario] seed must be >= 0, got {cfg.seed}")
        cfg.seed = 0  # reported once: the family below is built with the default

    initial = None  # the family's field on the smallest grid, once it builds
    if parser.has_section("initial"):
        cfg.initial = dict(parser.items("initial"))
    if "initial" in sections:
        initial = _validate_initial(cfg, errors)

    if "dt" in KINDS[kind][1] and 0 < cfg.dt < math.inf and cfg.N <= MAX_N:
        try:
            step_count(cfg.T, cfg.dt)
        except ValueError as exc:
            errors.append(f"[scenario] {exc}")
        # Each scheme's limit bounds dt times the largest symbol of the
        # linearized flow, N^2/2 for the chain coupling and N/2 for |grad|
        # (N <= MAX_N here, so both are finite floats). On H^2 the flow
        # S x_eta |grad|S grows with the Euclidean norm |S_k| >= 1 of the
        # field, so N/2 is scaled by the largest |S_k| of the initial field
        # (one norm at every site for the H^2 families, exact on the smallest
        # grid); unscaled, the midpoint failed on a = 4, N = 64 from 1.26.
        name, top = ("N^2/2", cfg.N ** 2 / 2.0) if kind == "chain" \
            else ("N/2", cfg.N / 2.0)
        if kind == "evolve-hyperbolic" and initial is not None:
            name = "N/2*max|S|"
            top *= max(math.hypot(*s) for s in initial.values)
        limit, what = SCHEMES.get(cfg.scheme, (math.inf, ""))
        if cfg.dt * top > limit:
            errors.append(f"[scenario] dt = {cfg.dt} is past the {cfg.scheme} "
                          f"{what} limit: dt*{name} = {cfg.dt * top:.4g} > "
                          f"{limit:.4g}; use dt <= {limit / top:.4g}")

    # a missing N_list, or one of the wrong sizes; one that does not parse
    # was reported above
    if "compare" in sections and not (parser.has_option("compare", "n_list")
                                      and all(map(_is_grid_size, cfg.N_list))):
        raw = parser.get("compare", "n_list", fallback="")
        errors.append(f"[compare] N_list of even grid sizes >= 4 and <= "
                      f"{MAX_N} required for {kind}, got {raw!r}")

    if "soliton" in sections:
        if not parser.has_section("soliton"):
            errors.append(f"[soliton] section required for {kind}")
        else:
            try:
                solitons.BlaschkeProfile(cfg.soliton_v, cfg.soliton_zeros)
            except ValueError as exc:
                raw = parser.get("soliton", "zeros", fallback="")
                errors.append(f"[soliton] v = {cfg.soliton_v}, zeros = "
                              f"{raw!r}: {exc}")

    if errors:
        raise ConfigError(errors)
    return cfg


def _is_grid_size(N):
    """The one grid rule, for N and every N_list entry: even, 4 <= N <= MAX_N."""
    return N % 2 == 0 and 4 <= N <= MAX_N


def _validate_initial(cfg, errors):
    """Build the family's field on the smallest grid, which runs the checks
    of its constructor, and match its target to the kind's; return the
    field, or None if it does not build."""
    family = cfg.initial.get("family")
    if family not in FAMILIES:
        errors.append(f"[initial] family must be one of {tuple(FAMILIES)}, "
                      f"got {family!r}")
        return
    if cfg.kind == "hs-compare" and family != "tilted-circle":
        errors.append(f"[initial] hs-compare needs tilted-circle, got {family!r}")
    try:
        field = build_initial_values(cfg, N=4)
    except KeyError as exc:
        errors.append(f"[initial] {family} requires {exc.args[0]}")
    except ValueError as exc:
        errors.append(f"[initial] {family} from {cfg.initial}: {exc}")
    else:
        target = field.target
        if (KINDS[cfg.kind][0] or target) != target:
            valued = "H^2-valued" if target == HYPERBOLIC else "sphere-valued"
            errors.append(f"[initial] family {family!r} is {valued}, kind "
                          f"{cfg.kind} is not")
        return field


def _constant(cfg, N):
    """The constant family on the kind's target, S^2 for the kinds that take
    either; only `direction` is parsed here."""
    raw = cfg.initial.get("direction")
    d = None if raw is None else [float(t) for t in raw.split(",")]
    return fields.constant_field(N, d, KINDS[cfg.kind][0] or SPHERE)


def _random_band_limited(cfg, N):
    """The scenario's N bounds the bandwidth, whatever N builds the field."""
    bandwidth = int(cfg.initial["bandwidth"])
    if not 1 <= bandwidth <= cfg.N // 2 - 1:
        raise ValueError("bandwidth must be >= 1 and <= N/2 - 1 = "
                         f"{cfg.N // 2 - 1}")
    return fields.random_band_limited(N, bandwidth, cfg.seed)


# family -> (the [initial] keys it reads besides family, builder(cfg, N) of
# its field, which raises KeyError on a missing key and ValueError on a bad one)
FAMILIES = {
    "constant": (["direction"], _constant),
    "great-circle": ([], lambda cfg, N: fields.tilted_circle(N, 1.0, 0.0)),
    "tilted-circle": (["a", "c"], lambda cfg, N: fields.tilted_circle(
        N, float(cfg.initial["a"]), float(cfg.initial["c"]))),
    "hyperbolic-circle": (["a"], lambda cfg, N: fields.hyperbolic_circle(
        N, float(cfg.initial["a"]))),
    "random-band-limited": (["bandwidth"], _random_band_limited),
}


def build_initial_values(cfg, N=None):
    """Instantiate the named family as a field object on an N-point grid."""
    return FAMILIES[cfg.initial["family"]][1](cfg, N or cfg.N)
