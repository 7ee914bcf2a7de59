"""Reference computations for the benchmark's correctness checks.

Nothing here calls into bathdd. Each quantity is recomputed from Kraus
operators and Hamiltonians with plain numpy, by another route than the
library's: time steps from an ``eigh`` of the Hamiltonian instead of ``expm``
of the commutator superoperator, Choi states and partial traces from the
channel's action on matrix units, and fixed-space dimensions from the SVD
nullity of S - I instead of the peripheral eigen-analysis.
"""

from __future__ import annotations

import numpy as np

# Agreement required between a library value and its recomputation.
VALUE_TOL = 1e-9
# Singular values of S - I below this count towards the fixed space.
NULLITY_TOL = 1e-7
# Reference constants of the witness (fixture) series, with the tolerance the
# acceptance criteria use.
FIXTURE_CONSTANTS = {"ZZ": 0.59, "ZZI": 0.59, "ZI": 1.68}
FIXTURE_TOL = 0.02

_Z = np.diag([1.0, -1.0]).astype(complex)
_I2 = np.eye(2, dtype=complex)


def _unit(d: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


# Kraus operators of the figure kicks, written out from their definitions.
KICKS = {
    # population flip |0> <-> |1>
    "E_updown": (_unit(2, 0, 1), _unit(2, 1, 0)),
    # full dephasing of a qubit
    "E_dephase": (_unit(2, 0, 0), _unit(2, 1, 1)),
    # A -> tr_2(A) kron I/2: the second qubit is reset to the maximally mixed state
    "E_omega": tuple(
        np.kron(_I2, np.sqrt(0.5) * _unit(2, m, k)) for m in range(2) for k in range(2)
    ),
}

FIXTURES = {
    "ZZ": np.kron(_Z, _Z),
    "ZI": np.kron(_Z, _I2),
    "ZZI": np.kron(np.kron(_Z, _Z), _I2),
}


def superoperator(kraus) -> np.ndarray:
    """Row-vectorised superoperator sum_k K kron conj(K)."""
    return sum(np.kron(k, k.conj()) for k in kraus)


def extended_superoperator(kraus, d1: int) -> np.ndarray:
    """Superoperator of I_1 kron E, from the Kraus operators I_1 kron K."""
    eye = np.eye(d1)
    return superoperator([np.kron(eye, k) for k in kraus])


def random_hamiltonian(d: int, seed: int) -> np.ndarray:
    """The library's documented random ensemble, re-derived: a real Gaussian
    symmetric matrix with unit operator norm."""
    g = np.random.default_rng(seed).standard_normal((d, d))
    h = (g + g.T) / 2
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


def kicked_evolution(kick: np.ndarray, h: np.ndarray, t: float, n: int) -> np.ndarray:
    """(E V(t/n))^n with V(tau) = U e^{-i tau E} U^dag acting as V . V^dag."""
    energies, u = np.linalg.eigh(h)
    v = (u * np.exp(-1j * (t / n) * energies)) @ u.conj().T
    step = kick @ np.kron(v, v.conj())
    return np.linalg.matrix_power(step, n)


def _apply(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    d = x.shape[0]
    return (s @ x.reshape(-1)).reshape(d, d)


def reduced_choi_purity(s: np.ndarray, d1: int, d2: int) -> float:
    """Purity of the Choi state of ``s`` with the bath output and bath ancilla
    traced out: (1/d) sum_{i,j,b} tr_B[E(|i b><j b|)] kron |i><j|."""
    d = d1 * d2
    red = np.zeros((d1 * d1, d1 * d1), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            out = np.zeros((d1, d1), dtype=complex)
            for b in range(d2):
                image = _apply(s, _unit(d, i * d2 + b, j * d2 + b))
                out += np.trace(image.reshape(d1, d2, d1, d2), axis1=1, axis2=3)
            red += np.kron(out, _unit(d1, i, j))
    red /= d
    return float(np.real(np.vdot(red, red)))


def choi_state(s: np.ndarray) -> np.ndarray:
    """(1/d) sum_{ij} E(|i><j|) kron |i><j|."""
    d = int(round(np.sqrt(s.shape[0])))
    lam = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = _unit(d, i, j)
            lam += np.kron(_apply(s, unit), unit)
    return lam / d


def choi_distance(s_a: np.ndarray, s_b: np.ndarray) -> float:
    """Trace norm of the difference of the two Choi states, by SVD."""
    return float(np.sum(np.linalg.svd(choi_state(s_a - s_b), compute_uv=False)))


def peripheral_projection(kick: np.ndarray) -> np.ndarray:
    """P_phi = lim_k E^(12 k), taken at k = 16.

    Valid for kicks whose peripheral eigenvalues are roots of unity of an
    order dividing 12 and whose other eigenvalues vanish after a few kicks;
    the figure kicks (E_updown, E_dephase, E_omega) satisfy E^3 = E.
    """
    return np.linalg.matrix_power(kick, 12 * 16)


def peripheral_power(kick: np.ndarray, projection: np.ndarray, n: int) -> np.ndarray:
    """E_phi^n = E^n P_phi."""
    return np.linalg.matrix_power(kick, n) @ projection


def fixed_space_dim(s: np.ndarray) -> int:
    """Nullity of S - I, by SVD."""
    sv = np.linalg.svd(s - np.eye(s.shape[0]), compute_uv=False)
    return int(np.sum(sv <= NULLITY_TOL))


def random_stinespring(d: int, rank: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Kraus operators of a random channel: the d x d blocks of a Haar-like
    isometry C^d -> C^(d rank) from the QR of a complex Gaussian matrix."""
    g = rng.standard_normal((d * rank, d)) + 1j * rng.standard_normal((d * rank, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return tuple(q[k * d:(k + 1) * d, :] for k in range(rank))


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian Hermitian matrix with unit operator norm."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))
