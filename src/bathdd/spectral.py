"""Peripheral spectral analysis of a CPTP superoperator.

One eigensolver call (``linalg.eig``, NumPy's LAPACK) splits the peripheral
eigenvalues (modulus 1) from the rest of the spectrum and gives their
biorthonormal right and left eigenvectors; every spectral projection and power
of the peripheral part is read from those, in the rank of that part. A channel
preserves Hermiticity, so its superoperator is a real matrix in the coordinates
(X_ii, Re X_ij, Im X_ij) and the eigensolver runs in real arithmetic; a matrix
that is not Hermiticity-preserving to rounding is not a channel and is refused.
Only the peripheral part, always diagonalizable for a channel, is clustered and
checked for defects.

Analyses are memoised in-process by content: a kick with the same matrix
bytes and tolerance is analysed once, in a cache bounded at ``_CACHE_SIZE``
entries, and every caller shares that one read-only decomposition. What the
verdicts derive from a decomposition alone (``classify``'s profile, ``zeno``'s
lifted eigendata and same-cluster mask per d1, the fixed state) is derived
once too, by ``PeripheralDecomposition.derive``, and kept on the decomposition,
so it lives and dies with its ``_analyze`` entry. Separate processes share
nothing, so a single CLI verdict still takes one eigensolver call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import Superoperator, _hermitian_coordinates
from .linalg import LinalgError, dagger, eig

__all__ = [
    "PeripheralDecomposition",
    "SpectralError",
    "analyze_peripheral",
    "fixed_point_state",
    "peripheral_power",
]

PERIPHERAL_TOL = 1e-8
MAX_PERIPHERAL_TOL = 1e-4

# A peripheral eigenvalue whose condition number ||r_j|| ||l_j|| (unit right
# eigenvector, biorthonormal left one) exceeds this is defective or too close
# to being so: the peripheral part of a channel is diagonalizable.
DEFECT_COND = 1e8

# S is accepted as Hermiticity-preserving (HP) when ||conj(S) - F S F|| <= HP_RTOL ||S||
# (Frobenius; F swaps vec indices (i, j) and (j, i)). The two sides of an HP
# map agree entry by entry; a kick built from Kraus operators or from products
# of superoperators misses that by rounding only, at most 1.6 eps ||S|| over
# the zoo, Stinespring kicks up to d = 8, their squares and their identity
# extensions. Dropping an anti-HP part of 100 eps moves nothing above rounding.
HP_RTOL = 100 * np.finfo(float).eps


def _real_form(d: int, data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T, T^-1 and the real T S T^-1 of the S with these bytes; ValueError unless S is HP."""
    x = np.frombuffer(data, dtype=complex).reshape(d, d, d, d)  # F S F swaps axes 0, 1 and 2, 3
    if np.linalg.norm(x.conj() - x.transpose(1, 0, 3, 2)) > HP_RTOL * np.linalg.norm(x):
        raise ValueError("superoperator is not Hermiticity-preserving: not a channel")
    t, t_inv = _hermitian_coordinates(d)[:2]
    return t, t_inv, (t @ x.reshape(d * d, d * d) @ t_inv).real


# Distinct (kick, tol) analyses kept per process, and (kick, d1) factors in ``zeno``; at
# d = 8 a key holds a 64 x 64 complex matrix, so 64 entries keep at most 4 MB of keys.
_CACHE_SIZE = 64


class SpectralError(RuntimeError):
    """Peripheral decomposition failure (ill-conditioned cluster, etc.)."""


@dataclass(frozen=True)
class PeripheralDecomposition:
    """Spectral data of the peripheral part of a channel.

    ``peripheral_values`` holds one representative eigenvalue per cluster,
    eigenvalue 1 first; ``multiplicities`` the cluster sizes. ``right``
    (d^2 x k) holds the k peripheral right eigenvectors as columns and
    ``left`` (k x d^2) their left adjoints as rows, with left @ right = I_k,
    both grouped by cluster in the order of ``peripheral_values``.
    ``_derived`` holds what ``derive`` has built from this decomposition.
    """

    dim: int
    peripheral_values: np.ndarray
    multiplicities: np.ndarray
    right: np.ndarray
    left: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def derive(self, build, *args):
        """``build(self, *args)``, built once per decomposition and key (build, *args) and kept
        here, so that it lives and dies with the decomposition's ``_analyze`` entry. It is shared
        by every caller, so its arrays (the value, or each item of a tuple) are made read-only;
        a build that raises keeps nothing."""
        key = (build, *args)
        if key not in self._derived:
            value = build(self, *args)
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            self._derived[key] = value
        return self._derived[key]

    @property
    def dim_fixed(self) -> int:
        return int(self.multiplicities[0])

    @property
    def dim_recurrent(self) -> int:
        return int(np.sum(self.multiplicities))


def _cluster_indices(values: np.ndarray, tol: float = PERIPHERAL_TOL) -> list[np.ndarray]:
    """Group indices of eigenvalues by single linkage at ``tol``: two share a cluster when a
    chain of steps of at most ``tol`` joins them, so the partition does not depend on the
    order of ``values``. Clusters come in the order of their first member by descending
    |lambda|, the negative imaginary part first among equal moduli, so that the two halves of
    a conjugate pair come in one order whatever the order of ``values``.
    """
    values = np.asarray(values)
    order = np.lexsort((values.imag, -np.abs(values)))
    near = (np.abs(values[order, None] - values[order]) <= tol) * 1.0  # float: BLAS squarings
    for _ in range((len(order) - 1).bit_length()):  # ceil(log2 k) squarings reach k - 1 steps
        near = np.minimum(near @ near, 1.0)
    heads = np.flatnonzero(~np.tril(near, -1).any(axis=1))  # no member before them
    return [np.sort(order[near[h] > 0]) for h in heads]


def analyze_peripheral(s: Superoperator, tol: float = PERIPHERAL_TOL) -> PeripheralDecomposition:
    """Decompose the peripheral part of a CPTP superoperator.

    Eigenvalues with |lambda| >= 1 - tol count as peripheral. One
    ``linalg.eig`` call gives them with biorthonormal right and left
    eigenvectors, which are grouped by single linkage at ``tol``, in an order
    that does not depend on the eigensolver's (``_cluster_indices``). S must
    preserve Hermiticity, as every channel does (``ValueError`` otherwise); it
    goes to ``eig`` as the real matrix T S T^-1 and its eigenvectors are
    mapped back. The peripheral part of a channel is always diagonalizable,
    so a defective eigenvalue is an error, and so is a spectrum too close to
    the cut 1 - tol to split there.

    The result is memoised by content (dim, matrix bytes, tol) in a bounded
    in-process cache, so asking several questions of one kick costs one
    eigensolver call; another process analyses afresh. It is shared between
    callers, so its arrays are read-only; refused input is not cached and
    raises on every call.
    """
    if not 0 < tol <= MAX_PERIPHERAL_TOL:
        raise ValueError(f"tol must lie in (0, {MAX_PERIPHERAL_TOL:g}]")
    return _analyze(s.dim, s.matrix.tobytes(), float(tol))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _analyze(d: int, data: bytes, tol: float) -> PeripheralDecomposition:
    """The body of ``analyze_peripheral`` on the bytes of S."""
    t, t_inv, m = _real_form(d, data)
    try:
        w, r, lh = eig(m, 1 - tol)
    except LinalgError as exc:
        raise SpectralError(f"no peripheral decomposition at tol={tol:g}: {exc}") from exc
    if not w.size:
        raise SpectralError("no peripheral eigenvalue found; channel not CPTP?")
    # NaN left vectors (singular W) fail the comparison too
    if not np.all(np.linalg.norm(r, axis=0) * np.linalg.norm(lh, axis=1) <= DEFECT_COND):
        raise SpectralError("peripheral eigenvalue cluster is defective or ill-conditioned; "
                            "tol may be too loose for this channel")
    r, lh = t_inv @ r, lh @ t

    clusters = _cluster_indices(w, tol)
    # put the lambda = 1 cluster first
    values = np.array([w[idx].mean() for idx in clusters])
    order = np.argsort(np.abs(values - 1.0), kind="stable")
    values, clusters = values[order], [clusters[i] for i in order]
    if abs(values[0] - 1.0) > tol * 10:
        raise SpectralError("eigenvalue 1 not found in the peripheral spectrum")
    idx = np.concatenate(clusters)
    arrays = values, np.array([c.size for c in clusters]), r[:, idx], lh[idx]
    for a in arrays:
        a.flags.writeable = False  # shared by every caller of this kick
    return PeripheralDecomposition(d, *arrays)


def fixed_point_state(dec: PeripheralDecomposition) -> np.ndarray:
    """The invariant state P_1(I/d) reached from the maximally mixed input: the
    unique fixed-point state of an ergodic channel, and among the many
    invariant states of a larger fixed space the one I/d relaxes to."""
    d, k = dec.dim, dec.dim_fixed
    rho = (dec.right[:, :k] @ (dec.left[:k] @ (np.eye(d) / d).reshape(-1))).reshape(d, d)
    rho = (rho + dagger(rho)) / 2
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise SpectralError("fixed-point projection of I/d is traceless; map not trace-preserving?")
    return rho / tr


def peripheral_power(dec: PeripheralDecomposition, n: int) -> Superoperator:
    """E_phi^n = right diag(lambda^n) left, a real lambda powered as a real: (-1)^n stays real."""
    if n < 0:
        raise ValueError("n must be non-negative")
    lam_n = np.repeat([v.real**n if v.imag == 0 else v**n for v in dec.peripheral_values.tolist()],
                      dec.multiplicities)
    return Superoperator(dec.dim, (dec.right * lam_n) @ dec.left)
