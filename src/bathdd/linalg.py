"""Dense complex linear algebra substrate.

Everything downstream works with plain ``numpy.ndarray`` of dtype complex128.
This module wraps the handful of primitives the rest of the package relies on:
the eigenvalues of modulus above a radius of a real matrix with biorthonormal
right and left eigenvectors (one ordered real Schur form, returning complex
eigendata), matrix exponential, the SVD-based trace norm, and Kronecker products.
SciPy is imported by ``eig`` and ``expm`` on their first call, so importing the
package, dd-mode sweeps and the dd figure reproductions never load it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "LinalgError",
    "assert_hermitian",
    "dagger",
    "eig",
    "expm",
    "is_hermitian",
    "kron",
    "trace_norm",
    "unvec",
    "vec",
]


class LinalgError(RuntimeError):
    """Numerical failure in a linear-algebra primitive."""


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _unit(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M / c, c): per matrix, the power of two c putting M / c's largest |Re| or |Im| in [1, 2)."""
    m = np.ascontiguousarray(m, dtype=complex).view(float)
    c = np.ldexp(1.0, np.frexp(np.abs(m).max(axis=(-2, -1)))[1] - 1)
    return (m / c[..., None, None]).view(complex), c  # as reals: exact, and c may be subnormal


def _hermitian_rule(m: np.ndarray, c) -> bool:
    """``is_hermitian``'s rule on M / c, given as m = M / c from ``_unit``: |M - M^dag| entrywise
    within 1e-12 max(1/c, ||M / c||_F), per matrix of a stack; c = 1 makes the rule relative."""
    norm = np.maximum(1 / np.maximum(c, 2.0**-1000), np.linalg.norm(m, axis=(-2, -1)))
    return bool((np.abs(m - dagger(m)).max(axis=(-2, -1)) <= 1e-12 * norm).all())


def is_hermitian(m: np.ndarray) -> bool:
    """True when the matrix, or every matrix of a (k, d, d) stack, is finite and Hermitian
    entrywise within 1e-12 times max(1, its own Frobenius norm)."""
    m = np.asarray(m, dtype=complex)
    return bool(np.isfinite(m).all()) and _hermitian_rule(*_unit(m))  # no overflow on M / c


def assert_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
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


def trace_norm(m: np.ndarray) -> float | np.ndarray:
    """Sum of the singular values of a matrix, or one per matrix of a stack."""
    return np.linalg.svd(m, compute_uv=False).sum(axis=-1)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, as one broadcast product (no np.kron overhead)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


def expm(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expm requires a square matrix")
    import scipy.linalg

    return scipy.linalg.expm(m)


def eig(m: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues w of modulus >= radius of a real square matrix M, with
    right eigenvectors r and left adjoints lh: M r = r diag(w),
    lh M = diag(w) lh and lh r = I. ``radius=0`` selects the whole spectrum.
    w, r and lh are complex; complex M raises ``ValueError``.

    One ordered real Schur form M = Q T Q^T puts the selection first, one
    quasi-triangular Sylvester solve T11 Y - Y T22 = -T12 splits it off, and
    with T11 = W diag(w) W^-1, r = Q1 W has unit columns and
    lh = W^-1 [I, -Y] Q^T (NaN where W is singular: the selection is then
    defective). The 2x2 diagonal blocks of T hold complex-conjugate pairs; a
    pair has one modulus, so the selection never splits it.
    """
    if np.iscomplexobj(m):
        raise ValueError("eig takes a real matrix")
    import scipy.linalg

    try:
        t, q, k = scipy.linalg.schur(m, sort=lambda x, y: math.hypot(x, y) >= radius)
        w, vecs = np.linalg.eig(t[:k, :k])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise LinalgError(f"eigensolver did not converge: {exc}") from exc
    vecs = vecs.astype(complex, copy=False)
    lh = q.T[:k]
    if 0 < k < len(t):
        y, scale, info = scipy.linalg.lapack.dtrsyl(t[:k, :k], t[k:, k:], -t[:k, k:], isgn=-1)
        if info:
            raise LinalgError(f"eigenvalues either side of |z| = {radius!r} too close to split")
        lh = lh - (y / scale) @ q.T[k:]
    try:
        lh = np.linalg.solve(vecs, lh)
    except np.linalg.LinAlgError:
        lh = np.full(lh.shape, np.nan, dtype=complex)
    return w.astype(complex, copy=False), q[:, :k] @ vecs, lh
