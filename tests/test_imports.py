"""SciPy is loaded by the peripheral analysis only.

Importing bathdd, a dd-mode sweep and the fig1a reproduction must leave SciPy
unloaded; a classification must load it. All four steps run in one fresh
interpreter, since this test process has imported SciPy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, io, json, sys

def loaded():
    return [m for m in ("scipy", "scipy.linalg") if m in sys.modules]

steps = {}
import bathdd
from bathdd import cli, harness
steps["import"] = loaded()
harness.sweep(harness.SweepConfig(channel="zoo:E_updown", mode="dd", n_values=(1, 2),
                                  hamiltonians={"random": 2, "seed": 0}))
steps["sweep"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    steps["reproduce_exit"] = cli.main(["reproduce", "fig1a", "--out", sys.argv[1]])
steps["reproduce"] = loaded()
bathdd.classify(bathdd.to_superoperator(bathdd.builtin("E_updown").channel))
steps["classify"] = loaded()
print(json.dumps(steps))
"""


def test_scipy_is_loaded_by_the_peripheral_analysis_only(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    steps = json.loads(proc.stdout)
    assert steps["import"] == steps["sweep"] == steps["reproduce"] == []
    assert steps["reproduce_exit"] == 0
    assert (tmp_path / "fig1a_random.csv").exists()
    assert "scipy.linalg" in steps["classify"]
