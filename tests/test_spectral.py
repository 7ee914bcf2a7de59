import numpy as np
import pytest

from bathdd.channel import Superoperator, power, to_superoperator
from bathdd.spectral import (
    SpectralError,
    analyze_peripheral,
    cluster_indices,
    fixed_point_state,
    peripheral_power,
)
from bathdd.zoo import builtin

Z = np.diag([1.0, -1.0]).astype(complex)


def dec_of(name, **params):
    return analyze_peripheral(to_superoperator(builtin(name, **params).channel))


def test_cluster_indices():
    vals = np.array([1.0, 1.0 + 1e-10, -1.0, 0.5])
    clusters = cluster_indices(vals, tol=1e-8)
    merged = sorted(tuple(c) for c in clusters)
    assert merged == [(0, 1), (2,), (3,)]


def test_projection_channel_single_peripheral():
    dec = dec_of("P_rho")
    assert dec.dim_fixed == 1
    assert dec.dim_recurrent == 1
    assert np.allclose(dec.peripheral_values, [1.0])
    # P(A) = rho_* tr(A): projection equals the channel itself
    s = to_superoperator(builtin("P_rho").channel)
    assert np.allclose(dec.projections[0].matrix, s.matrix, atol=1e-10)


def test_updown_peripheral_structure():
    dec = dec_of("E_updown")
    assert sorted(np.round(dec.peripheral_values.real, 9)) == [-1.0, 1.0]
    assert list(dec.multiplicities) == [1, 1]
    # closed-form projections: 1/2 I tr(I .) and 1/2 Z tr(Z .)
    p0 = np.outer(np.eye(2).reshape(-1) / 2, np.eye(2).reshape(-1).conj())
    p1 = np.outer(Z.reshape(-1) / 2, Z.reshape(-1).conj())
    got = {0: dec.projections[0].matrix, 1: dec.projections[1].matrix}
    assert np.allclose(got[0], p0, atol=1e-9)
    assert np.allclose(got[1], p1, atol=1e-9)


def test_triangle_cube_roots():
    dec = dec_of("E_triangle")
    expected = sorted(np.exp(2j * np.pi * np.arange(3) / 3), key=lambda z: np.angle(z))
    got = sorted(dec.peripheral_values, key=lambda z: np.angle(z))
    assert np.allclose(got, expected, atol=1e-9)


@pytest.mark.parametrize("name,params", [
    ("E_updown", {}), ("E_hook", {}), ("E_triangle", {}), ("E_square", {}),
    ("E_dephase", {"d": 3}), ("P_rho", {}), ("E_omega", {}), ("E_df", {}),
])
def test_projection_identities(name, params):
    s = to_superoperator(builtin(name, **params).channel)
    dec = analyze_peripheral(s)
    # P_l P_l' = delta_ll' P_l
    for i, pi in enumerate(dec.projections):
        for j, pj in enumerate(dec.projections):
            prod = pi.matrix @ pj.matrix
            target = pi.matrix if i == j else 0 * pi.matrix
            assert np.linalg.norm(prod - target) < 1e-8
    # E_phi = E P_phi = P_phi E
    e_phi = dec.peripheral_part.matrix
    p_phi = dec.peripheral_projection.matrix
    assert np.linalg.norm(e_phi - s.matrix @ p_phi) < 1e-8
    assert np.linalg.norm(e_phi - p_phi @ s.matrix) < 1e-8
    assert dec.dim_fixed >= 1
    # peripheral eigenvector residuals
    for lam, rs in zip(dec.peripheral_values, dec.right_ops):
        for r in rs:
            v = r.reshape(-1)
            assert np.linalg.norm(s.matrix @ v - lam * v) < 1e-8 * np.linalg.norm(s.matrix)


def test_fixed_point_states():
    assert np.allclose(fixed_point_state(dec_of("E_updown")), np.eye(2) / 2, atol=1e-9)
    hook = fixed_point_state(dec_of("E_hook"))
    assert np.allclose(hook, np.diag([0.5, 0.5, 0.0]), atol=1e-9)
    for p in (0.5, 0.25):
        sq = fixed_point_state(dec_of("E_square", p=p))
        assert np.allclose(sq, np.diag([p / 2, (1 - p) / 2, 0.5]), atol=1e-9)


def test_fixed_point_requires_ergodic():
    with pytest.raises(SpectralError):
        fixed_point_state(dec_of("E_dephase", d=2))


def test_peripheral_power():
    dec = dec_of("E_updown")
    assert np.allclose(peripheral_power(dec, 0).matrix,
                       dec.peripheral_projection.matrix, atol=1e-9)
    # (-1)^2 = 1: squared peripheral part is the peripheral projection
    assert np.allclose(peripheral_power(dec, 2).matrix,
                       dec.peripheral_projection.matrix, atol=1e-9)
    assert np.allclose(peripheral_power(dec, 2).matrix,
                       power(dec.peripheral_part, 2).matrix, atol=1e-9)


def test_peripheral_power_dephasing_is_itself():
    s = to_superoperator(builtin("E_dephase", d=2).channel)
    dec = analyze_peripheral(s)
    for n in (1, 3, 10):
        assert np.allclose(peripheral_power(dec, n).matrix, s.matrix, atol=1e-9)


@pytest.mark.parametrize("jordan", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_projections_exact_beside_defective_block(jordan, seed):
    # M = X D X^-1 with peripheral values (1, -1, i), a Jordan block at 0.5
    # and a random contracting diagonal: the peripheral projections are
    # X[:, k] X^-1[k, :] exactly, however ill-conditioned the block is
    rng = np.random.default_rng(seed)
    n = 16
    d = np.zeros((n, n), dtype=complex)
    d[[0, 1, 2], [0, 1, 2]] = [1.0, -1.0, 1j]
    block = range(3, 3 + jordan)
    d[block, block] = 0.5
    d[block[:-1], block[1:]] = 1.0
    rest = range(3 + jordan, n)
    radius = 0.9 * np.sqrt(rng.uniform(size=len(rest)))
    d[rest, rest] = radius * np.exp(2j * np.pi * rng.uniform(size=len(rest)))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x_inv = np.linalg.inv(x)

    dec = analyze_peripheral(Superoperator(4, x @ d @ x_inv))
    exact = x[:, :3] @ x_inv[:3, :]
    assert np.max(np.abs(dec.peripheral_projection.matrix - exact)) <= 1e-10
    for lam, p in zip(dec.peripheral_values, dec.projections):
        k = int(np.argmin(np.abs(np.diag(d)[:3] - lam)))
        exact_k = np.outer(x[:, k], x_inv[k, :])
        assert np.max(np.abs(p.matrix - exact_k)) <= 1e-10


def test_peripheral_jordan_block_is_defective():
    # eigenvalue 1 carries a 2x2 Jordan block: not the superoperator of a
    # channel, whose peripheral spectrum is always diagonalizable
    m = np.diag([1.0, 1.0, 0.5, 0.2]).astype(complex)
    m[0, 1] = 1.0
    with pytest.raises(SpectralError, match="defective"):
        analyze_peripheral(Superoperator(2, m))


def test_tol_validation():
    s = to_superoperator(builtin("E_updown").channel)
    with pytest.raises(ValueError):
        analyze_peripheral(s, tol=0.0)
    with pytest.raises(ValueError):
        analyze_peripheral(s, tol=1e-3)
