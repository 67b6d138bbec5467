"""Command-line entry points.

    halfwave-lab <subcommand> --config scenario.cfg [--out DIR]

Each scenario kind names its subcommand in config.KINDS; `evolve` runs
both evolve-sphere and evolve-hyperbolic configs. Every file of a run goes
into --out, error.json too: it is there only when the last run failed, with
exit 2 (bad config) or 1 (failed run). A run first removes from --out every
file an earlier run may have left (runner.clear). Its files, error.json
too, go through one writer, all or none (runner.write), so a failed run
leaves error.json alone, and an error.json that cannot be written leaves
--out empty, with the same exit code and `error:` line on stderr. An
unusable --out exits 2 as well.
"""

import argparse
import contextlib
import json
import os
import sys

from .config import KINDS, ConfigError, parse_config
from .runner import ERROR, clear, dispatch, write


def main(argv=None):
    parser = argparse.ArgumentParser(prog="halfwave-lab",
                                     description="half-wave maps numerical lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in dict.fromkeys(command for *_, command in KINDS.values()):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
    args = parser.parse_args(argv)

    try:
        clear(args.out)
    except OSError as exc:
        print(f"error: cannot use --out {args.out}: {exc}", file=sys.stderr)
        return 2

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        message, code = str(exc), 2
    else:
        if KINDS[cfg.kind][-1] != args.command:
            message, code = (f"config kind {cfg.kind!r} does not match "
                             f"subcommand {args.command!r}"), 2
        else:
            try:
                paths = dispatch(cfg, args.out)
            except Exception as exc:
                message, code = f"{type(exc).__name__}: {exc}", 1
            else:
                print("\n".join(paths))
                return 0
    print(f"error: {message}", file=sys.stderr)
    with contextlib.suppress(OSError):  # the exit code still tells
        write(args.out, {ERROR: json.dumps({"status": "error",
                                            "message": message}, indent=2)})
    return code


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
