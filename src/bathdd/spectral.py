"""Peripheral spectral analysis of a CPTP superoperator.

Extracts the peripheral eigenvalues (modulus 1), their spectral projections,
and the peripheral part and peripheral projection of the channel. Only the
peripheral eigenvalues are clustered, paired with left eigenvectors and
checked for defects: that part of a channel's spectrum is always
diagonalizable, and nothing downstream reads the rest. A Hermitian basis of
the space of recurrences is derived from the right eigenoperators on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channel import Superoperator
from .linalg import dagger, eig, unvec

__all__ = [
    "PeripheralDecomposition",
    "SpectralError",
    "analyze_peripheral",
    "cluster_indices",
    "fixed_point_state",
    "peripheral_power",
]

PERIPHERAL_TOL = 1e-8
MAX_PERIPHERAL_TOL = 1e-4

# Left/right overlap blocks with condition number above this mark a defective
# (non-diagonalizable) cluster.
DEFECT_COND = 1e8


class SpectralError(RuntimeError):
    """Peripheral decomposition failure (ill-conditioned cluster, etc.)."""


@dataclass(frozen=True)
class PeripheralDecomposition:
    """Spectral data of the peripheral part of a channel.

    ``peripheral_values`` holds one representative eigenvalue per cluster,
    eigenvalue 1 first; ``multiplicities`` the cluster sizes.
    ``projections[i]`` is the spectral projection onto the i-th peripheral
    eigenspace, and ``right_ops[i]``/``left_ops[i]`` are its right and left
    eigenoperators, biorthonormal within the cluster.
    """

    dim: int
    peripheral_values: np.ndarray
    multiplicities: np.ndarray
    projections: tuple[Superoperator, ...]
    peripheral_part: Superoperator
    peripheral_projection: Superoperator
    right_ops: tuple[tuple[np.ndarray, ...], ...]  # per cluster, unvec'd right eigvecs
    left_ops: tuple[tuple[np.ndarray, ...], ...]

    @property
    def dim_fixed(self) -> int:
        return int(self.multiplicities[0])

    @property
    def dim_recurrent(self) -> int:
        return int(np.sum(self.multiplicities))

    @property
    def recurrent_basis(self) -> tuple[np.ndarray, ...]:
        """Hermitian basis of the space of recurrences, orthonormal in the
        Hilbert-Schmidt inner product."""
        ops = [x for cluster in self.right_ops for x in cluster]
        return _hermitian_span_basis(ops, self.dim_recurrent)


def _hermitian_span_basis(ops: list[np.ndarray], rank: int) -> tuple[np.ndarray, ...]:
    """Hermitian HS-orthonormal basis of the span of operators closed under dagger.

    The peripheral eigenspaces of a channel are closed under the adjoint, so the
    Hermitian and anti-Hermitian parts of the eigenoperators span the same
    complex space; Gram-Schmidt keeps the first ``rank`` independent ones.
    """
    candidates: list[np.ndarray] = []
    for x in ops:
        candidates.append((x + dagger(x)) / 2)
        candidates.append((x - dagger(x)) / 2j)
    basis: list[np.ndarray] = []
    for c in candidates:
        v = c.copy()
        for b in basis:
            v = v - np.trace(dagger(b) @ v) * b
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            basis.append(v / nrm)
        if len(basis) == rank:
            break
    if len(basis) != rank:
        raise SpectralError(
            f"could not extract a Hermitian basis of rank {rank} (got {len(basis)})"
        )
    return tuple(basis)


def cluster_indices(values: np.ndarray, tol: float = PERIPHERAL_TOL) -> list[np.ndarray]:
    """Group indices of eigenvalues lying within ``tol`` of each other.

    Greedy transitive clustering; adequate because the channels of interest
    have O(1) gaps between distinct eigenvalue groups.
    """
    values = np.asarray(values)
    clusters: list[list[int]] = []
    for i in np.argsort(-np.abs(values)):
        for members in clusters:
            if any(abs(values[i] - values[j]) <= tol for j in members):
                members.append(int(i))
                break
        else:
            clusters.append([int(i)])
    return [np.array(sorted(c)) for c in clusters]


def analyze_peripheral(s: Superoperator, tol: float = PERIPHERAL_TOL) -> PeripheralDecomposition:
    """Decompose the peripheral part of a CPTP superoperator.

    Eigenvalues with |lambda| >= 1 - tol count as peripheral and are grouped
    into clusters of width ``tol``. Each cluster takes the as yet unused left
    eigenvectors whose eigenvalues lie nearest its mean and is biorthogonalized
    through the inverse of its left/right overlap. The peripheral part of a
    channel is always diagonalizable, so a defective cluster is an error.
    """
    if not 0 < tol <= MAX_PERIPHERAL_TOL:
        raise ValueError(f"tol must lie in (0, {MAX_PERIPHERAL_TOL:g}]")
    d = s.dim
    w, vr, wl, vl = eig(s.matrix)
    on = np.flatnonzero(np.abs(w) >= 1 - tol)
    if not on.size:
        raise SpectralError("no peripheral eigenvalue found; channel not CPTP?")

    used = np.zeros(wl.size, dtype=bool)
    clusters = []  # (eigenvalue, projection, right ops, left ops)
    for members in cluster_indices(w[on], tol):
        idx = on[members]
        lam = w[idx].mean()
        picked = [int(j) for j in np.argsort(np.abs(wl - lam)) if not used[j]][: idx.size]
        used[picked] = True
        r = vr[:, idx]
        lc = vl[:, picked]
        overlap = dagger(lc) @ r
        sv = scipy.linalg.svdvals(overlap)
        # both vector sets are unit-norm, so a diagonalizable cluster has an
        # overlap with smallest singular value of order 1
        if sv[-1] < 1.0 / DEFECT_COND or sv[0] / sv[-1] > DEFECT_COND:
            raise SpectralError(
                "peripheral eigenvalue cluster is defective or ill-conditioned; "
                "tol may be too loose for this channel"
            )
        l = lc @ dagger(np.linalg.inv(overlap))
        clusters.append((
            lam,
            Superoperator(d, r @ dagger(l)),
            tuple(unvec(r[:, j], d) for j in range(idx.size)),
            tuple(unvec(l[:, j], d) for j in range(idx.size)),
        ))

    # put the lambda = 1 cluster first
    values = np.array([c[0] for c in clusters])
    order = np.argsort(np.abs(values - 1.0), kind="stable")
    values = values[order]
    clusters = [clusters[i] for i in order]
    if abs(values[0] - 1.0) > tol * 10:
        raise SpectralError("eigenvalue 1 not found in the peripheral spectrum")
    projections = tuple(c[1] for c in clusters)
    e_phi = sum(lam * p.matrix for lam, p in zip(values, projections))
    return PeripheralDecomposition(
        dim=d,
        peripheral_values=values,
        multiplicities=np.array([len(c[2]) for c in clusters]),
        projections=projections,
        peripheral_part=Superoperator(d, e_phi),
        peripheral_projection=Superoperator(d, sum(p.matrix for p in projections)),
        right_ops=tuple(c[2] for c in clusters),
        left_ops=tuple(c[3] for c in clusters),
    )


def fixed_point_state(dec: PeripheralDecomposition) -> np.ndarray:
    """The unique fixed-point state of an ergodic channel."""
    if dec.dim_fixed != 1:
        raise SpectralError(
            f"fixed-point space is {dec.dim_fixed}-dimensional; "
            "use right_ops[0] for non-ergodic channels"
        )
    x = dec.right_ops[0][0]
    tr = np.trace(x)
    if abs(tr) < 1e-12:
        raise SpectralError("fixed operator is traceless; cannot normalize to a state")
    rho = x / tr
    return (rho + dagger(rho)) / 2


def peripheral_power(dec: PeripheralDecomposition, n: int) -> Superoperator:
    """E_phi^n = sum_l lambda_l^n P_l, computed spectrally."""
    if n < 0:
        raise ValueError("n must be non-negative")
    m = sum(
        lam**n * p.matrix for lam, p in zip(dec.peripheral_values, dec.projections)
    )
    return Superoperator(dec.dim, m)
