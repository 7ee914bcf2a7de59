"""No command loads SciPy.

Importing bathdd, a dd-mode sweep, the fig1a and fig1b reproductions, a
classification and the CLI's spectrum, zeno-check and dd-check must all leave
SciPy unloaded: the peripheral analysis runs on NumPy's LAPACK. Every step runs
in one fresh interpreter, since this test process has imported SciPy already.
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
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps, exits = {}, {}
import bathdd
from bathdd import cli, harness
steps["import"] = loaded()
harness.sweep(harness.SweepConfig(channel="zoo:E_updown", mode="dd", n_values=(1, 2),
                                  hamiltonians={"random": 2, "seed": 0}))
steps["sweep"] = loaded()
bathdd.classify(bathdd.to_superoperator(bathdd.builtin("E_updown").channel))
steps["classify"] = loaded()
commands = {
    "reproduce_fig1a": ["reproduce", "fig1a", "--out", sys.argv[1]],
    "reproduce_fig1b": ["reproduce", "fig1b", "--out", sys.argv[1]],
    "spectrum": ["spectrum", "zoo:E_df"],
    "zeno_check": ["zeno-check", "zoo:E_omega", "--hamiltonian", "random:0"],
    "dd_check": ["dd-check", "zoo:E_dephase", "--hamiltonian", "random:0"],
}
for step, argv in commands.items():
    with contextlib.redirect_stdout(io.StringIO()):
        exits[step] = cli.main(argv)
    steps[step] = loaded()
print(json.dumps({"steps": steps, "exits": exits}))
"""


def test_no_command_loads_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    out = json.loads(proc.stdout)
    assert list(out["steps"]) == ["import", "sweep", "classify", "reproduce_fig1a",
                                  "reproduce_fig1b", "spectrum", "zeno_check", "dd_check"]
    assert all(modules == [] for modules in out["steps"].values()), out["steps"]
    assert set(out["exits"].values()) == {0}
    assert (tmp_path / "fig1a_random.csv").exists()
    assert (tmp_path / "fig1b_random.csv").exists()
