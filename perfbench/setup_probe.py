"""Everything a run pays before its first step, in a fresh process.

    python perfbench/setup_probe.py SCENARIO.cfg

Imports halfwave_lab, parses and validates the scenario file and builds
the initial field. The benchmark times this process from spawn to exit.
"""

import sys

from halfwave_lab import config

with open(sys.argv[1]) as fh:
    config.build_initial_values(config.parse_config(fh.read()))
