"""Set-up of one CLI run, timed in a fresh interpreter.

    python3 setup_probe.py SRC_DIR CONFIG LAUNCH_TIME

Imports the CLI, loads and validates CONFIG, and prints the seconds
since LAUNCH_TIME (the parent's ``time.time()`` just before it started
this interpreter): everything a run pays before its first grid point.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

from dissipative_ising import cli  # noqa: E402

cli.validate_config(cli.load_raw(sys.argv[2]))
print(time.time() - float(sys.argv[3]))
