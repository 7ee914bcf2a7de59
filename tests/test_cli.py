import json

import numpy as np
import pytest

from bathdd.channel import KrausChannel
from bathdd.cli import build_parser, main
from bathdd.spectral import PERIPHERAL_TOL
from bathdd.zoo import builtin
from test_channel import save_channel


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_built_once_keeps_no_state_between_calls(capsys):
    build_parser.cache_clear()
    fresh = run(capsys, "spectrum", "zoo:E_updown")
    assert run(capsys, "spectrum", "zoo:E_updown", "--tol", "1e-5")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "zoo:E_updown", "--tol", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "spectrum", "zoo:E_updown") == fresh
    assert build_parser() is build_parser()
    assert build_parser().parse_args(["spectrum", "zoo:E_updown"]).tol == PERIPHERAL_TOL


def test_classify_zoo(capsys):
    code, out, _ = run(capsys, "classify", "zoo:E_updown")
    assert code == 0
    rec = json.loads(out)
    assert rec["ergodic"] is True
    assert rec["cycle_lengths"] == [2]


def test_classify_file(tmp_path, capsys):
    p = tmp_path / "sq.json"
    save_channel(builtin("E_square").channel, p)
    code, out, _ = run(capsys, "classify", str(p))
    assert code == 0
    assert json.loads(out)["irreducible"] is True


def test_classify_tol_matches_cycles(tmp_path, capsys):
    # spin flip mixed with weight 1e-6 of the identity: the eigenvalue
    # -0.999998 is peripheral at tol 1e-5 and forms a 2-cycle with 1
    p = 1e-6
    flip = np.sqrt(1 - p) * np.array([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    path = tmp_path / "flip.json"
    save_channel(KrausChannel(2, (*flip, np.sqrt(p) * np.eye(2))), path)
    code, out, _ = run(capsys, "spectrum", str(path), "--tol", "1e-5")
    assert code == 0
    assert json.loads(out)["dim_recurrent"] == 2
    code, out, err = run(capsys, "classify", str(path), "--tol", "1e-5")
    assert code == 0, err
    assert json.loads(out)["cycle_lengths"] == [2]


def test_spectrum_on_the_cut_exits_3(tmp_path, capsys):
    # diagonal kick with coherence eigenvalues c and the float just below
    # it; at tol = 1 - c the cut 1 - tol falls between them
    c = 1 - 1e-6
    c2 = np.nextafter(c, 0)
    k0 = np.diag([1.0, c, c2])
    k1 = np.diag([0.0, np.sqrt(1 - c * c), np.sqrt(1 - c2 * c2)])
    path = tmp_path / "edge.json"
    save_channel(KrausChannel(3, (k0, k1)), path)
    code, out, err = run(capsys, "classify", str(path), "--tol", repr(1 - c))
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "tol=" in err


def test_spectrum(capsys):
    code, out, _ = run(capsys, "spectrum", "zoo:E_triangle")
    assert code == 0
    rec = json.loads(out)
    assert rec["dim_recurrent"] == 3
    phases = sorted(np.angle(complex(re, im)) for re, im in rec["peripheral_values"])
    assert np.allclose(phases, [-2 * np.pi / 3, 0.0, 2 * np.pi / 3], atol=1e-8)


def test_not_cptp_exit_code(tmp_path, capsys):
    bad = {"dim": 2, "kraus": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(SystemExit) as exc:
        main(["classify", str(p)])
    assert exc.value.code == 1


def test_usage_error_missing_file(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/channel.json")
    assert code == 2
    assert "cannot load" in err


def test_usage_error_bad_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["classify", "--help"], 0), ([], 2)])
def test_parser_exit_codes(argv, code, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code


def test_input_too_large_for_memory_exits_2_with_one_line(monkeypatch, capsys):
    import bathdd.cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 11.9 GiB for an array")

    monkeypatch.setattr(bathdd.cli, "dd_check", out_of_memory)
    code, out, err = run(capsys, "dd-check", "zoo:E_updown", "--hamiltonian", "random:1")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1, err


def test_dd_check_random(capsys):
    code, out, _ = run(capsys, "dd-check", "zoo:E_updown",
                       "--hamiltonian", "random:7", "--d1", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["works"] is True
    assert rec["kick_ergodic"] is True
    assert rec["residual"] <= 1e-8


def write_hamiltonian(path, h):
    path.write_text(json.dumps({"matrix": [[[float(x), 0.0] for x in row] for row in h]}))
    return str(path)


def test_dd_check_hamiltonian_file(tmp_path, capsys):
    h = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    code, out, _ = run(capsys, "dd-check", "zoo:E_dephase",
                       "--hamiltonian", write_hamiltonian(tmp_path / "h.json", h), "--d1", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["works"] is False
    assert rec["effective_hamiltonian"] is None  # undefined for a non-ergodic kick


def test_dd_check_prints_effective_hamiltonian(tmp_path, capsys):
    # X kron Z + Z kron I under bath spin flips decouples to Z, printed as
    # [[re, im], ...] rows: the format of a --hamiltonian file
    x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    h = np.kron(x, z) + np.kron(z, np.eye(2))
    code, out, _ = run(capsys, "dd-check", "zoo:E_updown",
                       "--hamiltonian", write_hamiltonian(tmp_path / "h.json", h), "--d1", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["works"] is True
    assert np.allclose(np.array(rec["effective_hamiltonian"]), [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
                       atol=1e-12)


def test_zeno_check(capsys):
    code, out, _ = run(capsys, "zeno-check", "zoo:E_dephase",
                       "--hamiltonian", "random:3")
    assert code == 0
    rec = json.loads(out)
    assert rec["suppressed"] is True
    assert rec["zeno_hamiltonian_norm"] <= 1e-10


def test_zeno_check_bad_seed(capsys):
    code, _, err = run(capsys, "zeno-check", "zoo:E_updown",
                       "--hamiltonian", "random:abc")
    assert code == 2
    assert "seed" in err


def test_sweep_command(tmp_path, capsys):
    cfg = {
        "channel": "zoo:E_updown",
        "mode": "zeno",
        "n_values": [2, 4],
        "hamiltonians": {"random": 2, "seed": 0},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "sweep", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == 0
    csv = (out_dir / "sweep.csv").read_text().splitlines()
    assert csv[0] == "n,metric,value,seed,channel,hamiltonian,t"
    assert len(csv) > 4


def test_sweep_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mode": "zeno"}))
    code, _, err = run(capsys, "sweep", "--config", str(cfg_path),
                       "--out", str(tmp_path / "o"))
    assert code == 2


def test_reproduce_command(tmp_path, capsys):
    code, out, _ = run(capsys, "reproduce", "fig2a", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "fig2a_fixture.csv").exists()
    assert (tmp_path / "fig2a_random.csv").exists()
    assert (tmp_path / "fig2a.json").exists()


SWEEP_BASE = {"channel": "zoo:E_updown", "mode": "zeno", "n_values": [1, 2],
              "hamiltonians": {"random": 2, "seed": 0}}
BAD_FILES = {
    "h2": {"matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
    "h4": {"matrix": [[[float(i == 0 and j == 1), 0.0] for j in range(4)] for i in range(4)]},
    "h3": {"matrix": [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]},
    "bad_mode": {**SWEEP_BASE, "mode": "dephase"},
    "bad_fixture": {**SWEEP_BASE, "hamiltonians": {"fixture": "XX"}},
    "zero_n": {**SWEEP_BASE, "n_values": [0, 2]},
    "repeated_n": {**SWEEP_BASE, "mode": "dd", "n_values": [1, 1, 2]},
    "bad_params": {**SWEEP_BASE, "channel": "zoo:E_square", "channel_params": {"p": 3.0}},
    "unknown_param": {**SWEEP_BASE, "channel": "zoo:E_square", "channel_params": {"q": 3.0}},
    "df_unitary": {**SWEEP_BASE, "channel": "zoo:E_df", "channel_params": {"u0": [[1, 0], [0, 1]]}},
    "fixture_dim": {**SWEEP_BASE, "mode": "dd", "hamiltonians": {"fixture": "ZZI"}},
    "hamiltonians_key": {**SWEEP_BASE, "hamiltonians": {"random": 1, "seeds": 42}},
    "dim1": {"dim": 1, "kraus": [[[[1.0, 0.0]]]]},
    "nan_channel": {"dim": 1, "kraus": [[[[float("nan"), 0.0]]]]},
    "nan_h": {"matrix": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
    "nan_t": {**SWEEP_BASE, "mode": "dd", "t": "nan"},
    "frac_n": {**SWEEP_BASE, "n_values": [1.5, 2]},
    "inf_n": {**SWEEP_BASE, "n_values": [float("inf")]},
    "bool_n": {**SWEEP_BASE, "n_values": [True]},
    "frac_count": {**SWEEP_BASE, "hamiltonians": {"random": 2.7, "seed": 0}},
    "bool_count": {**SWEEP_BASE, "hamiltonians": {"random": True, "seed": 0}},
    "frac_d1": {**SWEEP_BASE, "mode": "dd", "d1": 1.5},
    "bool_d1": {**SWEEP_BASE, "mode": "dd", "d1": True},
    "list_config": [1, 2],
    "frac_dephase_d": {**SWEEP_BASE, "channel": "zoo:E_dephase", "channel_params": {"d": 2.5}},
    "bool_dephase_d": {**SWEEP_BASE, "mode": "dd", "channel": "zoo:E_dephase",
                       "channel_params": {"d": True}},
    "str_dephase_d": {**SWEEP_BASE, "channel": "zoo:E_dephase", "channel_params": {"d": "3"}},
    "bool_t": {**SWEEP_BASE, "t": True},
    "str_t": {**SWEEP_BASE, "t": "1e0"},
    "bool_square_p": {**SWEEP_BASE, "channel": "zoo:E_square", "channel_params": {"p": True}},
    "str_square_p": {**SWEEP_BASE, "channel": "zoo:E_square", "channel_params": {"p": "0.5"}},
    "frac_dim": {"dim": 2.5, "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
    "bool_kraus": {"dim": 2, "kraus": [[[[True, 0], [0, 0]], [[0, 0], [True, 0]]]]},
    "bool_h": {"matrix": [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]},
    "int_channel": {**SWEEP_BASE, "channel": 5},
    "null_channel": {**SWEEP_BASE, "channel": None},
    "pairs_hamiltonians": {**SWEEP_BASE, "hamiltonians": [["random", 2], ["seed", 0]]},
    "missing_channel": {k: v for k, v in SWEEP_BASE.items() if k != "channel"},
    "int_n_values": {**SWEEP_BASE, "n_values": 5},
    "big_n_zeno": {**SWEEP_BASE, "n_values": [1, 10**6 + 1]},
    "big_n_dd": {**SWEEP_BASE, "mode": "dd", "n_values": [1, 10**6 + 1]},
    "huge_n_zeno": {**SWEEP_BASE, "n_values": [1e300]},
    "huge_n_dd": {**SWEEP_BASE, "mode": "dd", "n_values": [1e300]},
    "sweep": SWEEP_BASE,
}


@pytest.mark.parametrize("argv", [
    ["zeno-check", "zoo:E_updown", "--hamiltonian", "{h2}"],
    ["dd-check", "zoo:E_updown", "--hamiltonian", "{h4}"],
    ["zeno-check", "zoo:E_updown", "--hamiltonian", "{h3}"],
    ["dd-check", "zoo:E_updown", "--hamiltonian", "{h3}"],
    ["zeno-check", "zoo:E_updown", "--hamiltonian", "random:-1"],
    ["dd-check", "zoo:E_updown", "--hamiltonian", "random:1", "--d1", "0"],
    ["dd-check", "zoo:E_updown", "--hamiltonian", "random:1", "--d1", "-1"],
    ["classify", "zoo:E_updown", "--tol", "1e-3"],
    ["classify", "zoo:E_updown", "--tol", "0"],
    ["spectrum", "zoo:E_updown", "--tol", "1e-3"],
    ["spectrum", "zoo:E_updown", "--tol", "0"],
    ["zeno-check", "zoo:E_updown", "--hamiltonian", "random:1", "--tol", "-1"],
    ["dd-check", "zoo:E_updown", "--hamiltonian", "random:1", "--tol", "0"],
    ["sweep", "--config", "{bad_mode}", "--out", "{out}"],
    ["sweep", "--config", "{bad_fixture}", "--out", "{out}"],
    ["sweep", "--config", "{zero_n}", "--out", "{out}"],
    ["sweep", "--config", "{repeated_n}", "--out", "{out}"],
    ["sweep", "--config", "{bad_params}", "--out", "{out}"],
    ["sweep", "--config", "{unknown_param}", "--out", "{out}"],
    ["sweep", "--config", "{df_unitary}", "--out", "{out}"],
    ["sweep", "--config", "{fixture_dim}", "--out", "{out}"],
    ["sweep", "--config", "{hamiltonians_key}", "--out", "{out}"],
    ["zeno-check", "{dim1}", "--hamiltonian", "random:1"],
    ["dd-check", "{dim1}", "--hamiltonian", "random:1", "--d1", "1"],
    ["classify", "{nan_channel}"],
    ["zeno-check", "zoo:E_updown", "--hamiltonian", "{nan_h}"],
    ["sweep", "--config", "{nan_t}", "--out", "{out}"],
    ["sweep", "--config", "{frac_n}", "--out", "{out}"],
    ["sweep", "--config", "{inf_n}", "--out", "{out}"],
    ["sweep", "--config", "{bool_n}", "--out", "{out}"],
    ["sweep", "--config", "{frac_count}", "--out", "{out}"],
    ["sweep", "--config", "{bool_count}", "--out", "{out}"],
    ["sweep", "--config", "{frac_d1}", "--out", "{out}"],
    ["sweep", "--config", "{bool_d1}", "--out", "{out}"],
    ["sweep", "--config", "{list_config}", "--out", "{out}"],
    ["sweep", "--config", "{frac_dephase_d}", "--out", "{out}"],
    ["sweep", "--config", "{bool_dephase_d}", "--out", "{out}"],
    ["sweep", "--config", "{str_dephase_d}", "--out", "{out}"],
    ["sweep", "--config", "{bool_t}", "--out", "{out}"],
    ["sweep", "--config", "{str_t}", "--out", "{out}"],
    ["sweep", "--config", "{bool_square_p}", "--out", "{out}"],
    ["sweep", "--config", "{str_square_p}", "--out", "{out}"],
    ["classify", "{frac_dim}"],
    ["classify", "{bool_kraus}"],
    ["zeno-check", "zoo:E_updown", "--hamiltonian", "{bool_h}"],
    ["sweep", "--config", "{int_channel}", "--out", "{out}"],
    ["sweep", "--config", "{null_channel}", "--out", "{out}"],
    ["sweep", "--config", "{pairs_hamiltonians}", "--out", "{out}"],
    ["sweep", "--config", "{missing_channel}", "--out", "{out}"],
    ["sweep", "--config", "{int_n_values}", "--out", "{out}"],
    ["sweep", "--config", "{big_n_zeno}", "--out", "{out}"],
    ["sweep", "--config", "{big_n_dd}", "--out", "{out}"],
    ["sweep", "--config", "{huge_n_zeno}", "--out", "{out}"],
    ["sweep", "--config", "{huge_n_dd}", "--out", "{out}"],
    ["sweep", "--config", "{sweep}", "--out", "{h2}"],
    ["sweep", "--config", "{sweep}", "--out", "{h2}/sub"],
    ["reproduce", "fig1a", "--out", "{h2}"],
], ids=" ".join)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    paths = {"out": str(tmp_path / "out")}
    for key, data in BAD_FILES.items():
        paths[key] = str(tmp_path / f"{key}.json")
        (tmp_path / f"{key}.json").write_text(json.dumps(data))
    try:
        code = main([arg.format(**paths) for arg in argv])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1, err
