"""Command-line entry points.

    halfwave-lab <subcommand> --config scenario.cfg [--out DIR]

Each scenario kind names its subcommand in config.KINDS; `evolve` runs
both evolve-sphere and evolve-hyperbolic configs. Every file of a run goes
into --out, error.json too: it is there only when the last run failed, with
exit 2 (bad config) or 1 (failed run). A run first removes error.json and
the files of every kind (runner.OUTPUTS) from --out, so a failed run leaves
error.json alone. An unusable --out exits 2 as well.
"""

import argparse
import json
import os
import sys

from .config import KINDS, ConfigError, parse_config
from .runner import OUTPUTS, dispatch


def _error_record(path, message):
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
        p.add_argument("--out", default=".", help="output directory (default: .)")
    args = parser.parse_args(argv)

    error_path = os.path.join(args.out, "error.json")
    # left by an earlier run, of any kind
    stale = [os.path.join(args.out, name)
             for name in sorted({"error.json"}.union(*OUTPUTS.values()))]
    try:
        os.makedirs(args.out, exist_ok=True)
        for path in filter(os.path.lexists, stale):
            os.remove(path)
    except OSError as exc:
        print(f"error: cannot use --out {args.out}: {exc}", file=sys.stderr)
        return 2

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        _error_record(error_path, str(exc))
        return 2

    if KINDS[cfg.kind][-1] != args.command:
        _error_record(error_path,
                      f"config kind {cfg.kind!r} does not match subcommand "
                      f"{args.command!r}")
        return 2

    try:
        paths = dispatch(cfg, args.out)
    except Exception as exc:
        _error_record(error_path, f"{type(exc).__name__}: {exc}")
        return 1
    print("\n".join(paths))
    return 0


def entry():
    """The `halfwave-lab` command: main(), then the process ends at once,
    without the interpreter's teardown (23-29 ms). Every file a run writes
    is closed, and every worker process reaped, before main returns; only
    the standard streams need a flush."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    entry()
