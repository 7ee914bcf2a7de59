import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bathdd.channel import _hermitian_coordinates
from bathdd.hamiltonian import _random_hamiltonians, adjoint_rep, random_hamiltonian, schmidt
from bathdd.linalg import dagger, expm, kron
from helpers import apply

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])


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
    got = apply(adjoint_rep(h), a)
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


@pytest.mark.parametrize("d", range(1, 9))
def test_hermitian_basis_orthonormal_complete(d):
    # the package's one basis, the columns Q_m of Q read as d x d operators: Hermitian, and Q
    # unitary, so orthonormal in the HS product and complete
    q = _hermitian_coordinates(d)[2]
    assert q.shape == (d * d, d * d)
    basis = q.T.reshape(-1, d, d)
    assert np.array_equal(basis, dagger(basis))
    gram = np.einsum("mij,nij->mn", basis.conj(), basis)
    assert np.abs(gram - np.eye(d * d)).max() < 1e-15
    # complete: every operator is the sum of its coordinates times the basis
    rng = np.random.default_rng(d)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    coords = np.einsum("mij,ij->m", basis.conj(), x)
    assert np.abs(np.tensordot(coords, basis, axes=(0, 0)) - x).max() < 1e-14


# --- Schmidt decomposition ---------------------------------------------------


def test_schmidt_zz():
    sd = schmidt(kron(Z, Z), 2, 2)
    assert sd.identity_coefficient == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sd.h1, 0, atol=1e-12)
    assert np.allclose(sd.h2, 0, atol=1e-12)
    assert len(sd.terms) == 1
    a, b = sd.terms[0]
    assert np.allclose(kron(a, b), kron(Z, Z), atol=1e-12)
    # the cut is relative to ||H||_F: 2^k (ZZ + XI) keeps its one term at every scale, and is
    # rebuilt within 1e-12 of its own norm (an absolute floor dropped the term at k = -45)
    for k in (0, -20, -38, -40, -45, 40, -900, 900):
        h = 2.0**k * (kron(Z, Z) + kron(X, np.eye(2)))
        sd = schmidt(h, 2, 2)
        assert len(sd.terms) == 1, k
        back = kron(sd.h1, np.eye(2)) + kron(np.eye(2), sd.h2) + kron(*sd.terms[0])
        back = back + sd.identity_coefficient * np.eye(4)
        assert np.linalg.norm((back - h) / 2.0**k) <= 1e-12 * np.linalg.norm(h / 2.0**k), k


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
    check_schmidt(h, 2, 3, schmidt(h, 2, 3))


def check_schmidt(h, d1, d2, sd):
    """H rebuilt from ``sd`` within 1e-10 ||H||, with the gauge: traceless Hermitian local parts
    and factors, each singular value split into factors of equal norm."""
    eye1, eye2 = np.eye(d1), np.eye(d2)
    back = sd.identity_coefficient * np.eye(d1 * d2) + kron(sd.h1, eye2) + kron(eye1, sd.h2)
    back = back + sum((kron(a, b) for a, b in sd.terms), np.zeros((d1 * d2, d1 * d2)))
    assert np.linalg.norm(back - h) <= 1e-10 * max(1, np.linalg.norm(h))
    assert abs(np.trace(sd.h1)) < 1e-10
    assert abs(np.trace(sd.h2)) < 1e-10
    for a, b in sd.terms:
        assert np.allclose(a, dagger(a), atol=1e-10)
        assert np.allclose(b, dagger(b), atol=1e-10)
        assert abs(np.trace(a)) < 1e-10
        assert abs(np.trace(b)) < 1e-10
        assert np.linalg.norm(a) == pytest.approx(np.linalg.norm(b), abs=1e-9)


def test_schmidt_degenerate_heisenberg():
    # XX + YY + ZZ: three equal singular values, so only their span is fixed; it is rebuilt
    h = kron(X, X) + kron(Y, Y) + kron(Z, Z)
    sd = schmidt(h, 2, 2)
    assert sd.identity_coefficient == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sd.h1, 0, atol=1e-12) and np.allclose(sd.h2, 0, atol=1e-12)
    assert len(sd.terms) == 3
    norms = [np.linalg.norm(a) ** 2 for a, _ in sd.terms]
    assert norms == pytest.approx([2.0] * 3, abs=1e-12)  # each singular value is ||X||_F^2 = 2
    check_schmidt(h, 2, 2, sd)


@settings(max_examples=10)
@given(st.integers(0, 10_000))
def test_schmidt_qutrit_pair(seed):
    h = random_hermitian(9, seed)
    sd = schmidt(h, 3, 3)
    assert len(sd.terms) == 8  # a generic H on C^3 kron C^3 has full interaction rank (d^2 - 1)
    check_schmidt(h, 3, 3, sd)


def gell_mann(d):
    """The generalized Gell-Mann basis: I/sqrt(d), then the symmetric, antisymmetric and
    diagonal traceless elements, HS-orthonormal."""
    basis = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for i in range(d):
        for j in range(i + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[i, j] = sym[j, i] = 1 / np.sqrt(2)
            asym = np.zeros((d, d), dtype=complex)
            asym[i, j], asym[j, i] = -1j / np.sqrt(2), 1j / np.sqrt(2)
            basis += [sym, asym]
    for l in range(1, d):
        diag = np.diag([1.0] * l + [-l] + [0.0] * (d - l - 1)).astype(complex)
        basis.append(diag / np.sqrt(l * (l + 1)))
    return np.stack(basis)


def gell_mann_schmidt(h, d1, d2):
    """(identity coefficient, h1, h2, singular values, factor pairs) from the real coefficients
    of H in the Gell-Mann product basis, the traceless block SVD'd, in ``schmidt``'s gauge."""
    g1, g2 = gell_mann(d1), gell_mann(d2)
    coeff = np.real(np.einsum("mji,nlk,ikjl->mn", g1, g2, h.reshape(d1, d2, d1, d2)))
    h1 = np.tensordot(coeff[1:, 0], g1[1:], axes=(0, 0)) / np.sqrt(d2)
    h2 = np.tensordot(coeff[0, 1:], g2[1:], axes=(0, 0)) / np.sqrt(d1)
    u, s, vt = np.linalg.svd(coeff[1:, 1:])
    pairs = []
    for a in range(s.size):
        f1 = np.sqrt(s[a]) * np.tensordot(u[:, a], g1[1:], axes=(0, 0))
        f2 = np.sqrt(s[a]) * np.tensordot(vt[a], g2[1:], axes=(0, 0))
        flat = f1.reshape(-1)
        if np.real(flat[np.argmax(np.abs(flat) > 1e-12 * np.max(np.abs(flat)))]) < 0:
            f1, f2 = -f1, -f2
        pairs.append((f1, f2))
    return coeff[0, 0] / np.sqrt(d1 * d2), h1, h2, s, pairs


@pytest.mark.parametrize("d1, d2", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4)])
def test_schmidt_matches_the_gell_mann_expansion(d1, d2):
    # the same decomposition as from the Gell-Mann basis: the identity coefficient, the local
    # parts, and the factors of every simple singular value (a simple one fixes its factors up
    # to the gauge's sign)
    for seed in range(5):
        h = random_hermitian(d1 * d2, 100 * d1 + 10 * d2 + seed)
        sd = schmidt(h, d1, d2)
        ident, h1, h2, s, pairs = gell_mann_schmidt(h, d1, d2)
        assert abs(sd.identity_coefficient - ident) < 1e-12
        assert np.abs(sd.h1 - h1).max() < 1e-12 and np.abs(sd.h2 - h2).max() < 1e-12
        assert len(sd.terms) == np.count_nonzero(s > 1e-12 * np.linalg.norm(h))
        gaps = np.abs(s[:, None] - s) + np.eye(s.size)
        for a, (f1, f2) in enumerate(sd.terms):
            if gaps[a].min() > 1e-6:
                assert np.abs(f1 - pairs[a][0]).max() < 1e-12
                assert np.abs(f2 - pairs[a][1]).max() < 1e-12


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


@pytest.mark.parametrize("d", range(2, 9))
def test_random_hamiltonian_draws_are_bitwise_symmetric(d):
    # (g + g^T)/2 is exactly symmetric, as IEEE addition commutes, so the draw takes no check
    _, _, h = _random_hamiltonians(d, range(250))
    assert np.isfinite(h).all() and np.array_equal(h, h.swapaxes(-1, -2))
