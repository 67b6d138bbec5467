"""Scenario configuration: sectioned key-value files, validated up front.

Format (INI-style, parsed with configparser). Every key of every section is
parsed through one table, KEYS. Each kind accepts only the keys it reads, as
listed in KINDS, and their sections; an evolve kind reads rank_tolerance only
with M. Each family accepts the keys it reads besides family, as listed in
FAMILIES. A key no table lists is an error in every section. A list (direction,
N_list, zeros) has one entry per comma-separated token, so an empty entry does
not parse. A read key is required, but for the [scenario] keys (ScenarioConfig
defaults) and direction (constant_field's):

    [scenario]
    kind = evolve-sphere        ; a KINDS key
    N = 128
    M = 16                      ; optional: enables Lax diagnostics
    dt = 1e-3
    T = 1.0
    record_interval = 100
    scheme = rk4                ; an evolution.SCHEMES key
    rank_tolerance = 1e-8

    [initial]
    family = tilted-circle      ; a FAMILIES key
    a = 0.6
    c = 0.8

    [compare]                   ; hs-compare only
    N_list = 32, 64, 128, 256

    [soliton]                   ; soliton-check only
    v = 0.5
    zeros = 1j, 1 + 2j
"""

import configparser
import dataclasses
import math

from . import fields, solitons
from .evolution import SCHEMES, step_count
from .fields import HYPERBOLIC, SPHERE

_EVOLVE_KEYS = "N M dt T record_interval scheme rank_tolerance".split()
# kind -> (the target its flow runs on, None where either; the names it
# reads, each from its KEYS entry, whose sections are the ones it reads;
# the halfwave-lab subcommand that runs it)
KINDS = {"evolve-sphere": (SPHERE, [*_EVOLVE_KEYS, "family"], "evolve"),
         "evolve-hyperbolic": (HYPERBOLIC, [*_EVOLVE_KEYS, "family"], "evolve"),
         "chain": (SPHERE, "N dt T record_interval scheme family".split(),
                   "chain"),
         "lax-spectrum": (None, "N M rank_tolerance family".split(),
                          "lax-spectrum"),
         "hs-compare": (None, ["T", "family", "N_list"], "hs-compare"),
         "soliton-check": (None, ["v", "zeros"], "soliton-check")}
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
    # the values of the other sections, by the names KEYS gives them
    initial: dict = dataclasses.field(default_factory=dict)
    compare: dict = dataclasses.field(default_factory=dict)
    soliton: dict = dataclasses.field(default_factory=dict)


def _comma_list(convert):
    """The parser of a list: convert applied to each comma-separated token."""
    return lambda raw: [convert(tok) for tok in raw.split(",")]


# (section, key as configparser lowercases it) -> (its name: a [scenario]
# key's ScenarioConfig field, else its key in its section's dict; the parser
# of its text, which raises ValueError on bad text; whether it is required)
KEYS = {("scenario", n.lower()): (n, ScenarioConfig.__annotations__[n], False)
        for n in [*_EVOLVE_KEYS, "seed"]} | {
    ("initial", "family"): ("family", str, True),
    ("initial", "a"): ("a", float, True),
    ("initial", "c"): ("c", float, True),
    ("initial", "bandwidth"): ("bandwidth", int, True),
    ("initial", "direction"): ("direction", _comma_list(float), False),
    ("compare", "n_list"): ("N_list", _comma_list(int), True),
    ("soliton", "v"): ("v", float, True),
    ("soliton", "zeros"): (  # inner spaces dropped, so "1 + 2j" parses
        "zeros", _comma_list(lambda tok: complex(tok.replace(" ", ""))), True)}


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
    family = parser.get("initial", "family", fallback=None)
    # each name read -> the kind or family that reads it; each section, and
    # seed -> the kind or family that must read every known key in it
    reads = dict.fromkeys(KINDS[kind][1], kind) if kind in KINDS else {}
    owner = {"scenario": kind} if reads else {}
    if reads and KINDS[kind][2] == "evolve" and "m" not in parser["scenario"]:
        del reads["rank_tolerance"]  # the Lax records read it, and they need M
    if "family" in reads and family in FAMILIES:
        reads |= dict.fromkeys(FAMILIES[family][0], family)
        owner |= {"initial": family, "seed": family}  # seed: a family's key
    values = {section: {} for section, _ in KEYS}  # section -> {name: value}
    for section in values:
        for key in parser.options(section) if parser.has_section(section) else ():
            name, parse, _ = KEYS.get((section, key), (None, None, None))
            raw = parser.get(section, key)
            if name in reads:
                try:
                    values[section][name] = parse(raw)
                except ValueError:  # the key as the docs spell it: N, N_list
                    errors.append(f"[{section}] {name}: cannot parse {raw!r}")
            elif name is None and (section, key) != ("scenario", "kind"):
                errors.append(f"[{section}] unknown key {key!r}")
            elif name and section in owner:
                errors.append(f"[{section}] {name} is not used by "
                              f"{owner.get(name, owner[section])}")
    # each name read that has no default and no value: required where it is
    # absent, and reported above where its text does not parse
    unset = set()
    for (section, key), (name, _, required) in KEYS.items():
        if required and name in reads and name not in values[section]:
            unset.add(name)
            if not parser.has_option(section, key):
                errors.append(f"[{section}] {name} is required for {reads[name]}")
    cfg = ScenarioConfig(kind, **values.pop("scenario"), **values)

    if kind not in KINDS:
        errors.append(f"[scenario] kind must be one of {tuple(KINDS)}, "
                      f"got {kind!r}")
        raise ConfigError(errors)
    sections = {section for (section, _), (name, *_) in KEYS.items()
                if name in reads}
    for section in parser.sections():
        if section not in {"scenario", *sections}:
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
    if "family" in cfg.initial:
        initial = _validate_initial(cfg, dict(parser["initial"]), unset, errors)

    if "dt" in reads and 0 < cfg.dt < math.inf and cfg.N <= MAX_N:
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

    # a missing N_list, or one that does not parse, is reported above
    if not all(map(_is_grid_size, cfg.compare.get("N_list", ()))):
        raw = parser.get("compare", "n_list")
        errors.append(f"[compare] N_list of even grid sizes >= 4 and <= "
                      f"{MAX_N} required for {kind}, got {raw!r}")

    if cfg.soliton.keys() == {"v", "zeros"}:  # else reported above
        try:
            solitons.BlaschkeProfile(cfg.soliton["v"], cfg.soliton["zeros"])
        except ValueError as exc:
            errors.append(f"[soliton] v = {cfg.soliton['v']}, zeros = "
                          f"{parser.get('soliton', 'zeros')!r}: {exc}")

    if errors:
        raise ConfigError(errors)
    return cfg


def _is_grid_size(N):
    """The one grid rule, for N and every N_list entry: even, 4 <= N <= MAX_N."""
    return N % 2 == 0 and 4 <= N <= MAX_N


def _validate_initial(cfg, raw, unset, errors):
    """Build the family's field on the smallest grid, which runs the checks
    of its constructor, unless a name it reads is in unset; match its target
    to the kind's and return it, or None. raw is the [initial] text."""
    family = cfg.initial["family"]
    if family not in FAMILIES:
        errors.append(f"[initial] family must be one of {tuple(FAMILIES)}, "
                      f"got {family!r}")
        return
    if cfg.kind == "hs-compare" and family != "tilted-circle":
        errors.append(f"[initial] hs-compare needs tilted-circle, got {family!r}")
    if not unset.isdisjoint(FAMILIES[family][0]):
        return  # reported in parse_config
    try:
        field = build_initial_values(cfg, N=4)
    except ValueError as exc:
        errors.append(f"[initial] {family} from {raw}: {exc}")
    else:
        target = field.target
        if (KINDS[cfg.kind][0] or target) != target:
            valued = "H^2-valued" if target == HYPERBOLIC else "sphere-valued"
            errors.append(f"[initial] family {family!r} is {valued}, kind "
                          f"{cfg.kind} is not")
        return field


def _random_band_limited(cfg, N):
    """The scenario's N bounds the bandwidth, whatever N builds the field."""
    bandwidth = cfg.initial["bandwidth"]
    if not 1 <= bandwidth <= cfg.N // 2 - 1:
        raise ValueError("bandwidth must be >= 1 and <= N/2 - 1 = "
                         f"{cfg.N // 2 - 1}")
    return fields.random_band_limited(N, bandwidth, cfg.seed)


# family -> (the keys it reads besides family, builder(cfg, N) of
# its field from cfg.initial, which raises ValueError on a bad value); the
# constant family takes the kind's target, S^2 for the kinds that take either
FAMILIES = {
    "constant": (["direction"], lambda cfg, N: fields.constant_field(
        N, cfg.initial.get("direction"), KINDS[cfg.kind][0] or SPHERE)),
    "great-circle": ([], lambda cfg, N: fields.tilted_circle(N, 1.0, 0.0)),
    "tilted-circle": (["a", "c"], lambda cfg, N: fields.tilted_circle(
        N, cfg.initial["a"], cfg.initial["c"])),
    "hyperbolic-circle": (["a"], lambda cfg, N: fields.hyperbolic_circle(
        N, cfg.initial["a"])),
    "random-band-limited": (["bandwidth", "seed"], _random_band_limited),
}


def build_initial_values(cfg, N=None):
    """Instantiate the named family as a field object on an N-point grid."""
    return FAMILIES[cfg.initial["family"]][1](cfg, N or cfg.N)
