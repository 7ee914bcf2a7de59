#!/usr/bin/env python3
"""Recompute all six reference data series into out/figures/.

Usage: python3 scripts/reproduce_all.py [out_dir]
"""

import sys
import time
from pathlib import Path

from bathdd.harness import FIGURE_IDS, reproduce

def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/figures")
    for fig in FIGURE_IDS:
        t0 = time.perf_counter()
        files = reproduce(fig, out)
        print(f"{fig}: {len(files)} files in {1e3 * (time.perf_counter() - t0):.1f} ms")
        for f in files:
            print(f"  {f}")
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
