import json

import numpy as np
import pytest

from bathdd.channel import to_superoperator, validate_cptp
from bathdd.cli import main
from bathdd.linalg import kron
from bathdd.zoo import DF_RHO0, DF_RHO1, DF_U0, DF_U1, builtin, names, pauli
from helpers import apply


@pytest.mark.parametrize("name", names())
def test_all_zoo_channels_cptp(name):
    assert validate_cptp(builtin(name).channel).passed


def test_names_cover_reference_table():
    assert set(names()) == {
        "E_updown", "E_hook", "E_triangle", "E_square",
        "E_dephase", "P_rho", "E_omega", "E_df",
    }


def test_unknown_name():
    with pytest.raises(KeyError):
        builtin("nope")


def test_square_parameter_validation():
    with pytest.raises(ValueError):
        builtin("E_square", p=0.0)
    with pytest.raises(ValueError):
        builtin("E_square", p=1.0)


def test_updown_action():
    s = to_superoperator(builtin("E_updown").channel)
    assert np.allclose(apply(s, np.diag([1.0, 0.0])), np.diag([0.0, 1.0]))


def test_p_rho_projects_onto_target():
    rho = np.diag([0.3, 0.7]).astype(complex)
    s = to_superoperator(builtin("P_rho", rho=rho).channel)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(apply(s, a), np.trace(a) * rho)


def test_p_rho_rejects_non_state():
    with pytest.raises(ValueError):
        builtin("P_rho", rho=np.diag([0.5, 0.7]))


BAD_STATES = {
    "non_hermitian": [[0.5, 0.5], [0.0, 0.5]],
    "negative": [[2.0, 0.0], [0.0, -1.0]],
    "wrong_trace": [[0.5, 0.0], [0.0, 0.7]],
    "non_square": [[0.5, 0.5]],
}


@pytest.mark.parametrize("state", BAD_STATES)
@pytest.mark.parametrize("name,param", [
    ("P_rho", "rho"), ("E_omega", "omega"), ("E_df", "rho0"), ("E_df", "rho1"),
])
def test_invalid_state_parameter_raises_and_exits_2(name, param, state, tmp_path, capsys):
    # eigh reads one triangle only, so a non-Hermitian state must be refused
    # before it, not replaced by the Hermitian matrix of that triangle
    with pytest.raises(ValueError, match=param):
        builtin(name, **{param: BAD_STATES[state]})
    cfg = {"channel": f"zoo:{name}", "channel_params": {param: BAD_STATES[state]},
           "mode": "zeno", "n_values": [1], "hamiltonians": {"random": 1, "seed": 0}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err


def test_omega_resets_bath():
    omega = np.diag([0.2, 0.8]).astype(complex)
    s = to_superoperator(builtin("E_omega", omega=omega).channel)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    tr2 = a.reshape(2, 2, 2, 2)
    tr2 = np.einsum("ajbj->ab", tr2)
    assert np.allclose(apply(s, a), kron(tr2, omega))


def test_omega_idempotent():
    s = to_superoperator(builtin("E_omega").channel)
    assert np.allclose(s.matrix @ s.matrix, s.matrix, atol=1e-12)


def test_df_block_permutation():
    # block label flips each step while the middle qubit evolves unitarily
    s = to_superoperator(builtin("E_df").channel)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    e00 = np.zeros((2, 2), dtype=complex)
    e00[0, 0] = 1
    e11 = np.zeros((2, 2), dtype=complex)
    e11[1, 1] = 1
    got = apply(s, kron(kron(e00, x), a))
    expected = np.trace(a) * kron(kron(e11, DF_U1 @ x @ DF_U1.conj().T), DF_RHO1)
    assert np.allclose(got, expected, atol=1e-12)
    got = apply(s, kron(kron(e11, x), a))
    expected = np.trace(a) * kron(kron(e00, DF_U0 @ x @ DF_U0.conj().T), DF_RHO0)
    assert np.allclose(got, expected, atol=1e-12)
    # inter-block coherences are destroyed
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1
    assert np.allclose(apply(s, kron(kron(e01, x), a)), 0, atol=1e-12)


def test_witness_hamiltonians_shapes():
    for name in names():
        for label, h, expected in builtin(name).witnesses:
            assert h.shape[0] == builtin(name).channel.dim
            assert np.allclose(h, h.conj().T)
            assert isinstance(expected, bool)


def test_pauli_algebra():
    assert np.allclose(pauli("x") @ pauli("y"), 1j * pauli("z"))
    for w in "xyz":
        assert np.allclose(pauli(w) @ pauli(w), np.eye(2))
