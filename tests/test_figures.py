"""Every reproduced figure value against its recorded value.

``data/figure_values.json`` holds the (figure, series, n, value) rows of the
nine CSVs that ``reproduce`` writes for the six figures. A change to the
evaluation path must leave each of them within 1e-10.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from bathdd.harness import FIGURE_IDS, reproduce

RECORDED = json.loads((Path(__file__).parent / "data" / "figure_values.json").read_text())


def test_recorded_values_cover_every_figure():
    assert sorted({fig for fig, *_ in RECORDED}) == sorted(FIGURE_IDS)


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_reproduced_values_match_recorded(figure_id, tmp_path):
    reproduce(figure_id, tmp_path)
    got = {}
    for path in tmp_path.glob(f"{figure_id}_*.csv"):
        series = path.stem.split("_", 1)[1]
        for line in path.read_text().splitlines()[1:]:
            n, value = line.split(",")
            got[series, int(n)] = float(value)
    want = {(series, n): value for fig, series, n, value in RECORDED if fig == figure_id}
    assert got.keys() == want.keys()
    assert max(abs(got[k] - want[k]) for k in want) <= 1e-10


SCRIPT = Path(__file__).parent.parent / "scripts" / "reproduce_all.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reproduce_all", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_reproduce_all_script_refuses_what_is_no_out_dir(tmp_path, monkeypatch, capsys):
    # -h and --help print usage and exit 0, a second argument exits 2; neither writes a file
    path, script = SCRIPT, load_script()
    monkeypatch.chdir(tmp_path)
    for argv, code in ((["--help"], 0), (["-h"], 0), (["out", "extra"], 2)):
        monkeypatch.setattr(sys, "argv", [str(path), *argv])
        with pytest.raises(SystemExit) as exc:
            script.main()
        assert exc.value.code == code
        assert list(tmp_path.iterdir()) == []
    out, err = capsys.readouterr()
    assert out.startswith("usage:") and "unrecognized arguments: extra" in err


def test_reproduce_all_script_prints_each_file_with_its_sha256(tmp_path, capsys):
    out = tmp_path / "figures"
    assert load_script().main([str(out)]) == 0
    listed = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]
    assert sorted(Path(path).name for path, _ in listed) == sorted(p.name for p in out.iterdir())
    assert len(listed) == 15
    for path, digest in listed:
        assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest
