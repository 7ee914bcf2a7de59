import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bathdd.hamiltonian import (
    _hermitian_basis,
    adjoint_rep,
    random_hamiltonian,
    schmidt,
)
from bathdd.linalg import dagger, expm, kron, unvec, vec

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + dagger(g)) / 2


def test_adjoint_rep_identity_is_zero():
    assert np.allclose(adjoint_rep(np.eye(3)).matrix, 0)


def test_adjoint_rep_z():
    # [Z, |i><j|] = (z_i - z_j) |i><j|
    assert np.allclose(adjoint_rep(Z).matrix, np.diag([0.0, 2.0, -2.0, 0.0]))


@settings(max_examples=20)
@given(st.integers(0, 10_000))
def test_adjoint_rep_commutator_oracle(seed):
    h = random_hermitian(3, seed)
    a = random_hermitian(3, seed + 1)
    got = unvec(adjoint_rep(h).matrix @ vec(a))
    assert np.allclose(got, h @ a - a @ h)


def test_adjoint_rep_exponential_is_conjugation():
    h = random_hermitian(2, 12)
    t = 0.37
    s = expm(-1j * t * adjoint_rep(h).matrix)
    u = expm(-1j * t * h)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    got = (s @ a.reshape(-1)).reshape(2, 2)
    assert np.allclose(got, u @ a @ dagger(u), atol=1e-12)


def test_adjoint_rep_requires_hermitian():
    with pytest.raises(ValueError):
        adjoint_rep(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_basis_orthonormal_complete(d):
    basis = _hermitian_basis(d)
    assert len(basis) == d * d
    assert np.allclose(basis[0], np.eye(d) / np.sqrt(d))
    for i, a in enumerate(basis):
        assert np.allclose(a, dagger(a))
        if i > 0:
            assert abs(np.trace(a)) < 1e-12
        for j, b in enumerate(basis):
            g = np.trace(dagger(a) @ b)
            assert abs(g - (1.0 if i == j else 0.0)) < 1e-12


# --- Schmidt decomposition ---------------------------------------------------


def test_schmidt_zz():
    sd = schmidt(kron(Z, Z), 2, 2)
    assert sd.identity_coefficient == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sd.h1, 0, atol=1e-12)
    assert np.allclose(sd.h2, 0, atol=1e-12)
    assert len(sd.terms) == 1
    a, b = sd.terms[0]
    assert np.allclose(kron(a, b), kron(Z, Z), atol=1e-12)


def test_schmidt_purely_local():
    h = kron(Z, np.eye(2)) + kron(np.eye(2), X)
    sd = schmidt(h, 2, 2)
    assert np.allclose(sd.h1, Z, atol=1e-12)
    assert np.allclose(sd.h2, X, atol=1e-12)
    assert sd.terms == ()


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_schmidt_reconstruction(seed):
    h = random_hermitian(6, seed)
    sd = schmidt(h, 2, 3)
    eye1, eye2 = np.eye(2), np.eye(3)
    back = sd.identity_coefficient * np.eye(6) + kron(sd.h1, eye2) + kron(eye1, sd.h2)
    back = back + sum((kron(a, b) for a, b in sd.terms), np.zeros((6, 6)))
    assert np.linalg.norm(back - h) <= 1e-10 * max(1, np.linalg.norm(h))
    # gauge: traceless Hermitian local parts, symmetric norm split
    assert abs(np.trace(sd.h1)) < 1e-10
    assert abs(np.trace(sd.h2)) < 1e-10
    for a, b in sd.terms:
        assert np.allclose(a, dagger(a), atol=1e-10)
        assert np.allclose(b, dagger(b), atol=1e-10)
        assert abs(np.trace(a)) < 1e-10
        assert abs(np.trace(b)) < 1e-10
        assert np.linalg.norm(a) == pytest.approx(np.linalg.norm(b), abs=1e-9)


def test_schmidt_dim_mismatch():
    with pytest.raises(ValueError):
        schmidt(np.eye(6, dtype=complex), 2, 2)


# --- random Hamiltonians -----------------------------------------------------


def test_random_hamiltonian_contract():
    h = random_hamiltonian(4, 42)
    assert np.allclose(h, dagger(h))
    assert np.linalg.norm(h, 2) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(h, random_hamiltonian(4, 42))
    assert not np.array_equal(h, random_hamiltonian(4, 43))


def test_random_hamiltonian_ensemble_band():
    # frozen reference: mean Frobenius norm over 1000 draws at d=2 was 1.110
    vals = [np.linalg.norm(random_hamiltonian(2, s)) for s in range(1000)]
    assert 1.08 <= float(np.mean(vals)) <= 1.14
