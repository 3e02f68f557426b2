"""Set-up time of a fresh interpreter.

Usage: python3 perfbench/setup_probe.py SCENARIO

Prints the seconds taken to import dopplerveil.cli, load and validate the
scenario, and derive its streams.
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402

from dopplerveil.cli import load_scenario_file  # noqa: E402
from dopplerveil.scenario import derive_streams  # noqa: E402

derive_streams(load_scenario_file(sys.argv[1]))
print(time.perf_counter() - T0)
