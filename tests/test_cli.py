import contextlib
import io
import itertools
import json
import random
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bathdd.channel import KrausChannel, _matrix_to_pairs
from bathdd.cli import build_parser, main
from bathdd.spectral import PERIPHERAL_TOL
from bathdd.zoo import builtin, names
from test_channel import channel_dict, save_channel
from test_zeno import random_hermitian, stinespring_kraus


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


@pytest.mark.parametrize("bad", [
    pytest.param({"dim": 2, "kraus": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]},
                 id="half_identity"),
    # entries that overflow any product: refused before one is formed
    pytest.param({"dim": 2, "kraus": [[[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]]]]},
                 id="huge_identity"),
    pytest.param({"dim": 1, "kraus": [[[[1e308, 1e308]]]]}, id="huge_complex_dim1"),
])
def test_not_cptp_exit_code(bad, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(SystemExit) as exc:
        main(["classify", str(p)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err


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
    # (t/n) (E_i - E_j) past the float range at n = 1
    "huge_t_zeno": {**SWEEP_BASE, "t": 1.7e308},
    "huge_t_dd": {**SWEEP_BASE, "mode": "dd", "t": 1.7e308},
    "sweep": SWEEP_BASE,
    "huge_rho": {**SWEEP_BASE, "channel": "zoo:P_rho",
                 "channel_params": {"rho": [[1e308, 0], [0, 1e308]]}},
    "inf_rho": {**SWEEP_BASE, "channel": "zoo:P_rho",
                "channel_params": {"rho": [[float("inf"), 0], [0, 0]]}},
    # Hermitian only within the absolute floor 1e-12 of the check: refused at every scale
    "tiny_h2": {"matrix": [[[0.0, 0.0], [1e-13, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
    "tiny_h4": {"matrix": [[[1e-13 * (i == j + 2), 0.0] for j in range(4)] for i in range(4)]},
    # reset to |+>, and H = 1.7e308 X kron J (J all ones): H_eff = tr_2[(I kron |+><+|) H]
    # passes the float range though no entry of H does
    "plus_reset": {"dim": 2, "kraus": [[[[0.5**0.5, 0.0], [0.0, 0.0]], [[0.5**0.5, 0.0], [0.0, 0.0]]],
                                       [[[0.0, 0.0], [0.5**0.5, 0.0]], [[0.0, 0.0], [0.5**0.5, 0.0]]]]},
    "huge_xj": {"matrix": [[[1.7e308 * (i // 2 != j // 2), 0.0] for j in range(4)] for i in range(4)]},
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
    ["sweep", "--config", "{huge_t_zeno}", "--out", "{out}"],
    ["sweep", "--config", "{huge_t_dd}", "--out", "{out}"],
    ["sweep", "--config", "{sweep}", "--out", "{h2}"],
    ["sweep", "--config", "{sweep}", "--out", "{h2}/sub"],
    ["reproduce", "fig1a", "--out", "{h2}"],
    ["sweep", "--config", "{huge_rho}", "--out", "{out}"],
    ["sweep", "--config", "{inf_rho}", "--out", "{out}"],
    ["zeno-check", "zoo:E_updown", "--hamiltonian", "{tiny_h2}"],
    ["dd-check", "zoo:E_updown", "--hamiltonian", "{tiny_h4}"],
    ["dd-check", "{plus_reset}", "--hamiltonian", "{huge_xj}"],
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


# --- fuzz: every input ends in a documented exit code and at most one stderr line --------

FUZZ_ZOO = [f"zoo:{name}" for name in names() if builtin(name).channel.dim <= 4]
# keys whose value sizes an allocation: a dimension, a Hamiltonian count
SIZE_KEYS = {"dim": 4, "d": 4, "d1": 3, "random": 3}
ODD_LEAVES = [float("nan"), float("inf"), -float("inf"), 0, -0.0, 1.5, True, None, "1", "",
              [], {}]


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _scaled(value, factor):
    """Every number in ``value`` times ``factor`` (inf past the float range)."""
    if _is_number(value):
        return value * factor
    if isinstance(value, list):
        return [_scaled(v, factor) for v in value]
    if isinstance(value, dict):
        return {k: _scaled(v, factor) for k, v in value.items()}
    return value


def _place(rng, value):
    """The path of keys and indices to a random node of ``value``: a walk down from the root
    that stops at each inner node with probability 1/4."""
    path = []
    while isinstance(value, (dict, list)) and value and rng.random() < 0.75:
        key = rng.choice(list(value) if isinstance(value, dict) else range(len(value)))
        path.append(key)
        value = value[key]
    return path


def _edit(rng, value, path):
    """``value`` with one edit at ``path``: a number scaled by 10^k (k in [-300, 308]), a
    subtree scaled as a whole, replaced by an odd value or wrapped in a list, a key or entry
    dropped or repeated, or an extra key."""
    if path:
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[path[0]] = _edit(rng, value[path[0]], path[1:])
        return copy
    kind = rng.choice(["scale", "scale_all", "odd", "drop", "repeat", "extra", "wrap"])
    if kind in ("scale", "scale_all"):
        factor = rng.choice([1.0, -1.0, 0.7]) * 10.0 ** rng.randint(-300, 308)
        return _scaled(value, factor) if kind == "scale_all" or _is_number(value) else value
    if kind in ("odd", "wrap") or not value or not isinstance(value, (dict, list)):
        return rng.choice(ODD_LEAVES) if kind == "odd" else [value] if kind == "wrap" else value
    key = rng.choice(list(value) if isinstance(value, dict) else range(len(value)))
    if isinstance(value, dict):
        return {k: v for k, v in value.items() if k != key} if kind == "drop" \
            else {**value, "extra": rng.choice(ODD_LEAVES)}
    return value[:key] + value[key + 1:] if kind == "drop" else value + [value[key]]


def _bounded(value):
    """``value`` with every size key (``SIZE_KEYS``) capped, so no example allocates more
    than a few MB; a count of random Hamiltonians left out (100 by default) is set to 2."""
    if isinstance(value, list):
        return [_bounded(v) for v in value]
    if not isinstance(value, dict):
        return value
    out = {k: min(v, SIZE_KEYS[k]) if k in SIZE_KEYS and _is_number(v) and v == v else _bounded(v)
           for k, v in value.items()}
    if "seed" in out and "random" not in out and "fixture" not in out:
        out["random"] = 2
    return out


def _mutated(rng, value):
    """``value`` after up to three ``_edit``s at random places, with sizes bounded."""
    for _ in range(rng.randint(0, 3)):
        value = _edit(rng, value, _place(rng, value))
    return _bounded(value)


CONFIG_SKELETONS = [
    {"channel": channel, "mode": mode, "n_values": n_values, "hamiltonians": hamiltonians,
     **[{}, {"t": 0.5}, {"d1": 1}, {"d1": 2, "t": 2.0}][i % 4],
     **({"channel_params": {"E_square": {"p": 0.3}, "E_dephase": {"d": 3},
                            "P_rho": {"rho": [[0.5, 0], [0, 0.5]]},
                            "E_omega": {"omega": [[0.3, 0], [0, 0.7]]}}[channel[4:]]}
        if channel[4:] in ("E_square", "E_dephase", "P_rho", "E_omega") and i % 3 else {})}
    for i, (channel, mode, n_values, hamiltonians) in enumerate(itertools.product(
        [*FUZZ_ZOO, "{channel}"], ["zeno", "dd"], [[1, 2], [3], [1, 10, 100]],
        [{"random": 2, "seed": 0}, {"random": 1, "seed": 7}, {"fixture": "ZZ"},
         {"fixture": "ZZI"}]))]
SKELETONS = {  # valid files: every zoo kick with d <= 4, and random channels of rank 1 to 3
    "channel": [channel_dict(builtin(spec[4:]).channel) for spec in FUZZ_ZOO]
    + [channel_dict(KrausChannel(d, tuple(stinespring_kraus(d, r, np.random.default_rng(d)))))
       for d in (2, 3, 4) for r in (1, 2, 3)],
    "hamiltonian": [{"matrix": _matrix_to_pairs(random_hermitian(n, np.random.default_rng(seed)))}
                    for n in (2, 3, 4, 6, 8, 1, 5, 12) for seed in range(3)],
    "config": CONFIG_SKELETONS,
    "file": [{}],
}
CHANNELS = [*FUZZ_ZOO, "{channel}", "{channel}", "{channel}", "zoo:nope", "{out}/none.json"]
HAMILTONIANS = ["{hamiltonian}", "{hamiltonian}", "{hamiltonian}", "random:0", "random:12",
                "random:-1", "random:x", f"random:{10**30}"]
TOLS = ["1e-8", "1e-6", "1e-5", "1e-300", "0", "-1", "nan", "inf", "x"]
D1S = ["2", "1", "3", "0", "-1", "1.5", "x"]


def _argv(rng):
    """argv of one of the six subcommands, with {channel}, {hamiltonian}, {config}, {file}
    and {out} standing for paths that the test fills in; one in ten is cut or extended."""
    command = rng.choice(["classify", "spectrum", "dd-check", "zeno-check", "sweep", "reproduce"])
    if command == "sweep":
        argv = [command, "--config", "{config}", "--out", rng.choice(["{out}", "{out}", "{file}"])]
    elif command == "reproduce":  # to a file path: refused before any figure is computed
        argv = [command, rng.choice(["fig1a", "fig3b", "fig9"]), "--out", "{file}"]
    else:
        argv = [command, rng.choice(CHANNELS)]
        if command in ("dd-check", "zeno-check"):
            argv += ["--hamiltonian", rng.choice(HAMILTONIANS)]
        if command == "dd-check" and rng.random() < 0.3:
            argv += ["--d1", rng.choice(D1S)]
        if rng.random() < 0.3:
            argv += ["--tol", rng.choice(TOLS)]
    if rng.random() < 0.1:
        argv = rng.choice([argv[:-1], [*argv, "--bogus"], argv[1:]])
    return argv


def _case(seed):
    """(argv, files): ``_argv``, and the files that argv names (a config's channel file too),
    each a valid skeleton mutated by ``_mutated``, all chosen by one random seed."""
    rng = random.Random(seed)
    argv = _argv(rng)
    named = {key for key in SKELETONS if any(f"{{{key}}}" in arg for arg in argv)}
    if "config" in named:
        named.add("channel")
    return argv, {key: _mutated(rng, rng.choice(SKELETONS[key])) for key in sorted(named)}


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**64 - 1).map(_case))
@example(case=(["classify", "{channel}"],
               {"channel": {"dim": 2, "kraus": [[[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]]}}))
@example(case=(["classify", "{channel}"], {"channel": {"dim": 1, "kraus": [[[[1e308, 1e308]]]]}}))
def test_fuzzed_input_exits_with_a_documented_code_and_one_line(case):
    argv, files = case
    out, err = io.StringIO(), io.StringIO()
    named = files or any("{out}" in arg for arg in argv)  # no directory when argv names no path
    with tempfile.TemporaryDirectory() if named else contextlib.nullcontext("") as tmp:
        paths = {key: f"{tmp}/{key}.json" for key in SKELETONS} | {"out": f"{tmp}/out"}
        for key, data in files.items():
            with open(paths[key], "w") as f:
                f.write(json.dumps(data).replace("{channel}", paths["channel"]))
        argv = [arg.format(**paths) for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3), (code, argv, err.getvalue())
    assert len(err.getvalue().strip().splitlines()) == (code != 0), (code, argv, err.getvalue())
