#!/usr/bin/env python3
"""Recompute all six reference data series into out/figures/, printing each written file's
SHA-256 beside its path, so that two runs compare with one diff (timings aside).

Usage: python3 scripts/reproduce_all.py [out_dir]
"""

import argparse
import hashlib
import time
from pathlib import Path

from bathdd.harness import FIGURE_IDS, reproduce

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Recompute all six reference data series.")
    parser.add_argument("out_dir", nargs="?", default="out/figures", type=Path,
                        help="directory for the figure files (default: out/figures)")
    out = parser.parse_args(argv).out_dir
    for fig in FIGURE_IDS:
        t0 = time.perf_counter()
        files = reproduce(fig, out)
        print(f"{fig}: {len(files)} files in {1e3 * (time.perf_counter() - t0):.1f} ms")
        for f in files:
            print(f"  {f}  {hashlib.sha256(f.read_bytes()).hexdigest()}")
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
