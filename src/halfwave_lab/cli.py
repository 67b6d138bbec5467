"""Command-line entry points.

    halfwave-lab <subcommand> --config scenario.cfg [--out DIR]

Each scenario kind names its subcommand in config.KINDS; `evolve` runs
both evolve-sphere and evolve-hyperbolic configs. An error writes
error.json and exits 2 (bad config) or 1 (failed run).
"""

import argparse
import json
import os
import sys

from .config import KINDS, ConfigError, parse_config
from .runner import dispatch


def _error_record(out_dir, message):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "error.json")
    with open(path, "w") as fh:
        json.dump({"status": "error", "message": message}, fh, indent=2)
    print(f"error: {message}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="halfwave-lab",
                                     description="half-wave maps numerical lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in dict.fromkeys(command for *_, command in KINDS.values()):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    out_dir = args.out or "."
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except (OSError, ConfigError) as exc:
        _error_record(out_dir, str(exc))
        return 2

    if KINDS[cfg.kind][-1] != args.command:
        _error_record(out_dir,
                      f"config kind {cfg.kind!r} does not match subcommand "
                      f"{args.command!r}")
        return 2

    try:
        paths = dispatch(cfg, args.out)
    except Exception as exc:
        _error_record(args.out or cfg.out_dir, f"{type(exc).__name__}: {exc}")
        return 1
    print("\n".join(paths))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
