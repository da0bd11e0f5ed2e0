"""The command BENCHMARK.json names: one workload, one process.

``python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1``
run from the root of a checkout.  The program under test is imported
from ``src/`` beside this directory; without it there is nothing to
measure and the script exits non-zero before printing a result.
"""

import pathlib
import sys

if __name__ == "__main__":
    root = pathlib.Path(__file__).resolve().parents[2]
    if not (root / "src" / "repro").is_dir():
        sys.exit(f"{root}/src/repro not found: the suite measures that package")
    # Replace the script directory: the suite is imported as a package.
    sys.path[0] = str(root)
    sys.path.insert(0, str(root / "src"))
    from benchmarks.suite.runner import main

    sys.exit(main())
