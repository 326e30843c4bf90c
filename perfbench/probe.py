"""One set-up, as a fresh process: import cubefield and build a workload's inputs.

    python3 perfbench/probe.py <workload> <seed>

run.py times several of these and reports the median as setup_s.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (imports cubefield)

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]](int(sys.argv[2]))
