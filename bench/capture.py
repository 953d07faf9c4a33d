"""Regenerate bench/reference/ from the current sources.

    python3 bench/capture.py

Runs every workload command once and stores its --out report as the
reference the benchmark compares against.  The reports are written as
the CLI produced them; do not edit them by hand.  A command that exits
nonzero or reports "pass": false stores nothing and fails the capture.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from run import OUT, REFERENCE, run_command
from workloads import WORKLOADS


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    ok = True
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for workload in WORKLOADS.values():
            for cmd in workload.commands:
                result = run_command(cmd, Path(tmp), timeout=600.0, reference=None)
                if result.error is not None:
                    ok = False
                    continue
                (REFERENCE / f"{cmd.name}.json").write_bytes(result.report)
                print(f"{cmd.name}: {result.wall_s:.2f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
