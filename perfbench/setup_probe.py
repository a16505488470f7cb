"""Child process that times one workload's set-up for ``setup_s``.

``run.py`` starts it, with the same environment, and stops the clock when it
prints ``ready``: that covers interpreter start, imports, and loading the
mixture, mesh and config, which is everything before the first workload call.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]]().setup()
print("ready", flush=True)
