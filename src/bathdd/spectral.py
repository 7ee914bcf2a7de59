"""Peripheral spectral analysis of a CPTP superoperator.

Extracts the peripheral eigenvalues (modulus 1), their spectral projections,
and the peripheral projection of the channel. One
ordered Schur form splits the peripheral eigenvalues from the rest of the
spectrum and gives their biorthonormal right and left eigenvectors. Only
they are clustered and checked for defects: that part of a channel's
spectrum is always diagonalizable, and nothing downstream reads the rest.
The right and left eigenoperators of each cluster are kept, because the
decoherence-free test of ``classify`` reads them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Superoperator
from .linalg import LinalgError, dagger, eig, unvec

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

# A cluster whose unit right eigenvectors have condition number above this is
# defective (non-diagonalizable).
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
    peripheral_projection: Superoperator
    right_ops: tuple[tuple[np.ndarray, ...], ...]  # per cluster, unvec'd right eigvecs
    left_ops: tuple[tuple[np.ndarray, ...], ...]

    @property
    def dim_fixed(self) -> int:
        return int(self.multiplicities[0])

    @property
    def dim_recurrent(self) -> int:
        return int(np.sum(self.multiplicities))


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

    Eigenvalues with |lambda| >= 1 - tol count as peripheral. One ordered
    Schur form (``linalg.eig``) gives them with biorthonormal right and left
    eigenvectors, which are grouped into clusters of width ``tol``. The
    peripheral part of a channel is always diagonalizable, so a defective
    cluster is an error, and so is a spectrum too close to the cut 1 - tol to
    split there.
    """
    if not 0 < tol <= MAX_PERIPHERAL_TOL:
        raise ValueError(f"tol must lie in (0, {MAX_PERIPHERAL_TOL:g}]")
    d = s.dim
    try:
        w, r, lh = eig(s.matrix, 1 - tol)
    except LinalgError as exc:
        raise SpectralError(f"no peripheral decomposition at tol={tol:g}: {exc}") from exc
    if not w.size:
        raise SpectralError("no peripheral eigenvalue found; channel not CPTP?")

    clusters = cluster_indices(w, tol)
    for idx in clusters:
        if np.linalg.cond(r[:, idx]) > DEFECT_COND:
            raise SpectralError(
                "peripheral eigenvalue cluster is defective or ill-conditioned; "
                "tol may be too loose for this channel"
            )
    # put the lambda = 1 cluster first
    values = np.array([w[idx].mean() for idx in clusters])
    order = np.argsort(np.abs(values - 1.0), kind="stable")
    values, clusters = values[order], [clusters[i] for i in order]
    if abs(values[0] - 1.0) > tol * 10:
        raise SpectralError("eigenvalue 1 not found in the peripheral spectrum")
    projections = tuple(Superoperator(d, r[:, idx] @ lh[idx]) for idx in clusters)
    return PeripheralDecomposition(
        dim=d,
        peripheral_values=values,
        multiplicities=np.array([idx.size for idx in clusters]),
        projections=projections,
        peripheral_projection=Superoperator(d, r @ lh),
        right_ops=tuple(tuple(unvec(r[:, j], d) for j in idx) for idx in clusters),
        left_ops=tuple(tuple(unvec(lh[j].conj(), d) for j in idx) for idx in clusters),
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
