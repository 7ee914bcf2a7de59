"""Peripheral spectral analysis of a CPTP superoperator.

Extracts the peripheral eigenvalues (modulus 1), their spectral projections,
the peripheral part and peripheral projection of the channel, and Hermitian
bases for the fixed-point space and the space of recurrences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Superoperator
from .linalg import LinalgError, dagger, eig, unvec, vec

__all__ = [
    "PeripheralDecomposition",
    "SpectralError",
    "analyze_peripheral",
    "fixed_point_state",
    "peripheral_power",
]

PERIPHERAL_TOL = 1e-8
MAX_PERIPHERAL_TOL = 1e-4


class SpectralError(RuntimeError):
    """Peripheral decomposition failure (ill-conditioned cluster, etc.)."""


@dataclass(frozen=True)
class PeripheralDecomposition:
    """Spectral data of the peripheral part of a channel.

    ``peripheral_values`` holds one representative eigenvalue per cluster;
    ``multiplicities`` the cluster sizes. ``projections[i]`` is the spectral
    projection onto the i-th peripheral eigenspace. The fixed/recurrent bases
    are Hermitian and orthonormal in the Hilbert-Schmidt inner product.
    """

    dim: int
    peripheral_values: np.ndarray
    multiplicities: np.ndarray
    projections: tuple[Superoperator, ...]
    peripheral_part: Superoperator
    peripheral_projection: Superoperator
    fixed_basis: tuple[np.ndarray, ...]
    recurrent_basis: tuple[np.ndarray, ...]
    right_ops: tuple[tuple[np.ndarray, ...], ...]  # per cluster, unvec'd right eigvecs
    left_ops: tuple[tuple[np.ndarray, ...], ...]

    @property
    def dim_fixed(self) -> int:
        return len(self.fixed_basis)

    @property
    def dim_recurrent(self) -> int:
        return int(np.sum(self.multiplicities))


def _hermitian_span_basis(ops: list[np.ndarray], dim: int, rank: int) -> tuple[np.ndarray, ...]:
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


def analyze_peripheral(s: Superoperator, tol: float = PERIPHERAL_TOL) -> PeripheralDecomposition:
    """Decompose the peripheral part of a CPTP superoperator.

    Eigenvalues with |lambda| >= 1 - tol count as peripheral. Projections are
    assembled cluster-blockwise from biorthogonalized right/left eigenvectors;
    the peripheral part of a channel is always diagonalizable, so a defective
    peripheral cluster is reported as an error.
    """
    if not 0 < tol <= MAX_PERIPHERAL_TOL:
        raise ValueError(f"tol must lie in (0, {MAX_PERIPHERAL_TOL:g}]")
    d = s.dim
    es = eig(s.matrix, cluster_tol=tol)

    peripheral = [
        (ci, idx)
        for ci, idx in enumerate(es.clusters)
        if abs(es.values[idx].mean()) >= 1 - tol
    ]
    if not peripheral:
        raise SpectralError("no peripheral eigenvalue found; channel not CPTP?")
    for ci, _ in peripheral:
        if ci in es.defective_clusters:
            raise SpectralError(
                "peripheral eigenvalue cluster is defective or ill-conditioned; "
                "tol may be too loose for this channel"
            )

    values = []
    mults = []
    projections = []
    right_ops = []
    left_ops = []
    for _, idx in peripheral:
        lam = es.values[idx].mean()
        r = es.right_vectors[:, idx]
        l = es.left_vectors[:, idx]
        values.append(lam)
        mults.append(idx.size)
        projections.append(Superoperator(d, r @ dagger(l)))
        right_ops.append(tuple(unvec(r[:, j], d) for j in range(idx.size)))
        left_ops.append(tuple(unvec(l[:, j], d) for j in range(idx.size)))

    values = np.array(values)
    mults = np.array(mults)
    # put the lambda = 1 cluster first
    order = np.argsort(np.abs(values - 1.0), kind="stable")
    values = values[order]
    mults = mults[order]
    projections = [projections[i] for i in order]
    right_ops = [right_ops[i] for i in order]
    left_ops = [left_ops[i] for i in order]
    if abs(values[0] - 1.0) > tol * 10:
        raise SpectralError("eigenvalue 1 not found in the peripheral spectrum")

    e_phi = sum(lam * p.matrix for lam, p in zip(values, projections))
    p_phi = sum(p.matrix for p in projections)

    fixed_basis = _hermitian_span_basis(list(right_ops[0]), d, int(mults[0]))
    all_right = [x for ops in right_ops for x in ops]
    recurrent_basis = _hermitian_span_basis(all_right, d, int(np.sum(mults)))

    return PeripheralDecomposition(
        dim=d,
        peripheral_values=values,
        multiplicities=mults,
        projections=tuple(projections),
        peripheral_part=Superoperator(d, e_phi),
        peripheral_projection=Superoperator(d, p_phi),
        fixed_basis=fixed_basis,
        recurrent_basis=recurrent_basis,
        right_ops=tuple(right_ops),
        left_ops=tuple(left_ops),
    )


def fixed_point_state(dec: PeripheralDecomposition) -> np.ndarray:
    """The unique fixed-point state of an ergodic channel."""
    if dec.dim_fixed != 1:
        raise SpectralError(
            f"fixed-point space is {dec.dim_fixed}-dimensional; "
            "use fixed_basis for non-ergodic channels"
        )
    x = dec.fixed_basis[0]
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
