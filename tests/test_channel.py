import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bathdd.channel import (
    ChannelError,
    KrausChannel,
    Superoperator,
    _lift,
    channel_from_dict,
    choi,
    extend_with_identity,
    load_channel,
    to_superoperator,
    validate_cptp,
)
from bathdd.linalg import dagger, kron
from bathdd.zoo import builtin
from helpers import apply, channel_dict, random_unitary, save_channel


def unit(d, i, j):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def matrix_unit_oracle(ch):
    """Independent superoperator construction: apply the Kraus sum to every
    matrix unit and stack the vectorized outputs as columns."""
    d = ch.dim
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            out = sum(k @ unit(d, i, j) @ dagger(k) for k in ch.kraus)
            s[:, d * i + j] = out.reshape(-1)
    return s


# --- validation --------------------------------------------------------------


def test_validate_identity():
    rep = validate_cptp(KrausChannel(2, (np.eye(2),)))
    assert rep.passed
    assert rep.trace_residual == pytest.approx(0.0, abs=1e-14)


def test_validate_updown():
    assert validate_cptp(builtin("E_updown").channel).passed


@pytest.mark.parametrize("kraus", [
    pytest.param((np.eye(2) / 2,), id="subnormalized"),
    # an entry above 1 + CPTP_TOL is refused before Sum E^dag E is formed
    pytest.param((np.diag([1 + 1e-6, 0]), np.diag([0, 1])), id="entry_above_one"),
])
@pytest.mark.filterwarnings("error")
def test_validate_not_cptp_fails(kraus):
    rep = validate_cptp(KrausChannel(2, kraus))
    assert not rep.passed
    assert rep.trace_residual > 0.1


def test_kraus_shape_mismatch():
    with pytest.raises(ChannelError):
        KrausChannel(2, (np.eye(3),))
    with pytest.raises(ChannelError):
        KrausChannel(2, ())


# --- superoperator -----------------------------------------------------------


def test_superoperator_identity():
    ch = KrausChannel(2, (np.eye(2),))
    assert np.allclose(to_superoperator(ch).matrix, np.eye(4))


def test_superoperator_matrix_unit_oracle_updown():
    ch = builtin("E_updown").channel
    s = to_superoperator(ch)
    assert np.allclose(s.matrix, matrix_unit_oracle(ch))
    # populations swap, coherences die
    assert np.allclose(apply(s, unit(2, 1, 1)), unit(2, 0, 0))
    assert np.allclose(apply(s, unit(2, 0, 1)), 0)


def test_superoperator_projection_channel_structure():
    # the map rho -> tr(rho) I/2 is vec(I/2) vec(I)^dag
    ch = builtin("P_rho").channel
    s = to_superoperator(ch)
    assert np.allclose(s.matrix, matrix_unit_oracle(ch))
    oracle = np.outer((np.eye(2) / 2).reshape(-1), np.eye(2).reshape(-1).conj())
    assert np.allclose(s.matrix, oracle)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_cptp_spectrum_in_unit_disc(seed):
    # random CPTP channel from a Stinespring isometry
    rng = np.random.default_rng(seed)
    d, k = 3, 2
    u = random_unitary(d * k, seed)
    iso = u[:, :d]  # columns: input basis embedded into d*k
    kraus = tuple(iso[i * d : (i + 1) * d, :] for i in range(k))
    ch = KrausChannel(d, kraus)
    assert validate_cptp(ch).passed
    vals = np.linalg.eigvals(to_superoperator(ch).matrix)
    assert np.max(np.abs(vals)) <= 1 + 1e-9
    # trace preservation in vectorized form: vec(I) is a left eigenvector
    s = to_superoperator(ch).matrix
    vi = np.eye(d).reshape(-1)
    assert np.linalg.norm(vi @ s - vi) < 1e-10


def test_apply_examples():
    s_tri = to_superoperator(builtin("E_triangle").channel)
    assert np.allclose(apply(s_tri, unit(3, 0, 0)), unit(3, 2, 2))
    s_id = Superoperator(3, np.eye(9))
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    assert np.allclose(apply(s_id, a), a)


# --- Choi --------------------------------------------------------------------


def test_choi_identity_is_maximally_entangled():
    lam = choi(Superoperator(2, np.eye(4)))
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1 / np.sqrt(2)
    assert np.allclose(lam, np.outer(omega, omega.conj()))
    assert np.real(np.trace(lam @ lam)) == pytest.approx(1.0)


def test_choi_depolarizing_is_maximally_mixed():
    lam = choi(to_superoperator(builtin("P_rho").channel))
    assert np.allclose(lam, np.eye(4) / 4)


def test_choi_unitary_is_pure():
    u = random_unitary(3, 9)
    ch = KrausChannel(3, (u,))
    lam = choi(to_superoperator(ch))
    vals = np.linalg.eigvalsh(lam)
    assert np.sum(vals > 1e-10) == 1
    assert np.real(np.trace(lam @ lam)) == pytest.approx(1.0)


def test_choi_trace_one():
    for name in ("E_updown", "E_square", "E_omega"):
        lam = choi(to_superoperator(builtin(name).channel))
        assert np.trace(lam) == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh((lam + dagger(lam)) / 2)) > -1e-10


# --- tensoring / composition -------------------------------------------------


@pytest.mark.parametrize("shape", [(3, 3), (4, 9), (16,), (1, 1, 4, 4)])
def test_superoperator_refuses_a_matrix_of_the_wrong_shape(shape):
    with pytest.raises(ChannelError, match="does not match dim 2"):
        Superoperator(2, np.zeros(shape))


@pytest.mark.parametrize("d1", [0, -1])
def test_lift_refuses_d1_below_one(d1):
    with pytest.raises(ChannelError, match="d1 must be at least 1"):
        _lift(np.eye(4), np.eye(4), d1)


def test_extend_with_identity_trivial():
    s = to_superoperator(builtin("E_updown").channel)
    assert extend_with_identity(s, 1) is s


def test_extend_with_identity_product_action():
    s2 = to_superoperator(builtin("E_updown").channel)
    big = extend_with_identity(s2, 2)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    got = apply(big, kron(x, unit(2, 1, 1)))
    assert np.allclose(got, kron(x, unit(2, 0, 0)))


def test_extend_with_identity_matches_kraus_extension():
    ch = builtin("E_square").channel
    s_ext = extend_with_identity(to_superoperator(ch), 2)
    ext = KrausChannel(6, tuple(kron(np.eye(2), k) for k in ch.kraus))
    assert np.allclose(s_ext.matrix, to_superoperator(ext).matrix)
    assert np.trace(choi(s_ext)) == pytest.approx(1.0, abs=1e-10)


def test_power_and_compose():
    s = to_superoperator(builtin("E_updown").channel)
    # squared spin-flip keeps populations, kills coherences (dephasing)
    s2 = np.linalg.matrix_power(s.matrix, 2)
    oracle = matrix_unit_oracle(builtin("E_dephase", d=2).channel)
    assert np.allclose(s2, oracle)
    assert np.allclose(np.linalg.matrix_power(s.matrix, 1), s.matrix)


# --- file format -------------------------------------------------------------


def test_json_roundtrip(tmp_path):
    ch = builtin("E_square", p=0.3).channel
    path = tmp_path / "sq.json"
    save_channel(ch, path)
    back = load_channel(path)
    assert back.dim == 3
    assert back.name == "E_square"
    for a, b in zip(ch.kraus, back.kraus):
        assert np.allclose(a, b)


def test_dict_format_pairs():
    ch = KrausChannel(2, (np.array([[0, 1j], [1, 0]], dtype=complex) / np.sqrt(2),
                          np.eye(2) / np.sqrt(2)), name="x")
    data = channel_dict(ch)
    assert data["dim"] == 2
    assert data["kraus"][0][0][1] == [0.0, pytest.approx(1 / np.sqrt(2))]
    back = channel_from_dict(json.loads(json.dumps(data)))
    assert np.allclose(back.kraus[0], ch.kraus[0])


def test_bad_dict_raises():
    with pytest.raises(ChannelError):
        channel_from_dict({"dim": 2})
    with pytest.raises(ChannelError):
        channel_from_dict({"dim": "x", "kraus": []})
