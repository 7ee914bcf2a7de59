"""Dense complex linear algebra substrate.

Everything downstream works with plain ``numpy.ndarray`` of dtype complex128.
This module wraps the handful of primitives the rest of the package relies on:
general (non-Hermitian) eigendecomposition with paired left/right eigenvectors,
matrix exponential, SVD-based norms, and Kronecker products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "EigenSystem",
    "LinalgError",
    "assert_hermitian",
    "cluster_indices",
    "dagger",
    "eig",
    "expm",
    "is_hermitian",
    "kron",
    "operator_norm",
    "trace_norm",
    "unvec",
    "vec",
]

# Eigenvalues closer than this (absolute) are treated as one degenerate cluster.
CLUSTER_TOL = 1e-8

# Left/right overlap blocks with condition number above this mark a defective
# (non-diagonalizable) cluster.
DEFECT_COND = 1e8


class LinalgError(RuntimeError):
    """Numerical failure in a linear-algebra primitive."""


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def is_hermitian(m: np.ndarray, tol: float = 1e-12) -> bool:
    m = np.asarray(m, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(m)))
    return float(np.max(np.abs(m - dagger(m)))) <= tol * scale


def assert_hermitian(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    return m


def vec(m: np.ndarray) -> np.ndarray:
    """Row vectorization: vec(|i><j|) is the (d*i+j)-th basis vector."""
    return np.asarray(m, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, d: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if d is None:
        d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape(d, d)


def trace_norm(m: np.ndarray) -> float:
    return float(np.sum(scipy.linalg.svdvals(m)))


def operator_norm(m: np.ndarray) -> float:
    s = scipy.linalg.svdvals(m)
    return float(s[0]) if s.size else 0.0


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def expm(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expm requires a square matrix")
    return scipy.linalg.expm(m)


def cluster_indices(values: np.ndarray, tol: float = CLUSTER_TOL) -> list[np.ndarray]:
    """Group indices of eigenvalues lying within ``tol`` of each other.

    Greedy transitive clustering; adequate because the channels of interest
    have O(1) gaps between distinct eigenvalue groups.
    """
    values = np.asarray(values)
    n = values.size
    assigned = np.full(n, -1, dtype=int)
    clusters: list[list[int]] = []
    for i in np.argsort(-np.abs(values)):
        for ci, members in enumerate(clusters):
            if any(abs(values[i] - values[j]) <= tol for j in members):
                members.append(int(i))
                assigned[i] = ci
                break
        else:
            assigned[i] = len(clusters)
            clusters.append([int(i)])
    return [np.array(sorted(c)) for c in clusters]


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues with paired right and left eigenvectors.

    Left eigenvectors solve the adjoint problem, M^dag l_i = conj(lambda_i) l_i,
    and are biorthogonalized against the right eigenvectors within each
    degenerate eigenvalue cluster (l_i^dag r_j = delta_ij). ``defective`` is set
    when some cluster's left/right overlap is too ill-conditioned to invert,
    i.e. the matrix is (numerically) non-diagonalizable there.
    """

    values: np.ndarray
    right_vectors: np.ndarray  # columns
    left_vectors: np.ndarray  # columns
    clusters: list[np.ndarray] = field(default_factory=list)
    defective: bool = False
    defective_clusters: tuple[int, ...] = ()


def eig(m: np.ndarray, cluster_tol: float = CLUSTER_TOL) -> EigenSystem:
    """Full eigendecomposition of a general square complex matrix.

    Eigenvalues are grouped into clusters of width ``cluster_tol``; left
    eigenvectors are matched to right clusters by eigenvalue proximity and
    renormalized blockwise through the inverse of the overlap matrix.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("eig requires a square matrix")
    try:
        w, vr = np.linalg.eig(m)
        wl, vl = np.linalg.eig(dagger(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise LinalgError(f"eigensolver did not converge: {exc}") from exc

    clusters = cluster_indices(w, cluster_tol)
    left = np.zeros_like(vr)
    wl_as_right = wl.conj()
    used = np.zeros(w.size, dtype=bool)
    defective_clusters: list[int] = []

    for ci, idx in enumerate(clusters):
        lam = w[idx].mean()
        order = np.argsort(np.abs(wl_as_right - lam))
        picked = [int(j) for j in order if not used[j]][: idx.size]
        used[picked] = True
        lc = vl[:, picked]
        rc = vr[:, idx]
        overlap = dagger(lc) @ rc
        sv = scipy.linalg.svdvals(overlap) if overlap.size else np.array([])
        # both vector sets are unit-norm, so a diagonalizable cluster has an
        # overlap with smallest singular value of order 1
        if sv.size == 0 or sv[-1] < 1.0 / DEFECT_COND or sv[0] / sv[-1] > DEFECT_COND:
            defective_clusters.append(ci)
            left[:, idx] = lc
        else:
            left[:, idx] = lc @ dagger(np.linalg.inv(overlap))

    return EigenSystem(
        values=w,
        right_vectors=vr,
        left_vectors=left,
        clusters=clusters,
        defective=bool(defective_clusters),
        defective_clusters=tuple(defective_clusters),
    )
