"""Dense complex linear algebra substrate.

Everything downstream works with plain ``numpy.ndarray`` of dtype complex128.
This module wraps the handful of primitives the rest of the package relies on:
the eigenvalues of modulus above a radius of a real matrix with biorthonormal
right and left eigenvectors (from NumPy's LAPACK, returning complex eigendata),
matrix exponential, the SVD-based trace norm, and Kronecker products. Only
``expm`` uses SciPy, a test dependency imported on its first call; no command calls it.
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
    entrywise within 1e-12 times max(1, its own Frobenius norm).

    One pass reads each matrix's largest |Re| or |Im|, NaN or inf when it is not finite. When
    every one lies in [2^-400, 2^400], ``_unit``'s power-of-two rescale is exact and cannot
    change the decision, so the rule runs on M itself; otherwise it runs on M / c, so that no
    norm or difference overflows or underflows."""
    m = np.ascontiguousarray(m, dtype=complex)
    big = np.abs(m.view(float)).max(axis=(-2, -1))
    if not np.isfinite(big).all():
        return False
    if 2.0**-400 <= big.min() and big.max() <= 2.0**400:
        return _hermitian_rule(m, 1.0)
    return _hermitian_rule(*_unit(m))


def assert_hermitian(m: np.ndarray) -> np.ndarray:
    """M as complex if ``is_hermitian``, the floored rule of computed maps and states."""
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    return m


def _hamiltonian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, H / c, c), ``_unit``'s exact scale, for a Hamiltonian H or each of a stack, else
    ``ValueError``: the package's one rule for every H, finite and Hermitian by ``_hermitian_rule``
    on H / c itself, so that it is relative and c H meets it with H for each power of two c."""
    h = np.asarray(h, dtype=complex)
    if np.isfinite(h).all():
        m, c = _unit(h)
        if _hermitian_rule(m, 1.0):
            return h, m, c
    raise ValueError("matrix is not Hermitian within tolerance")


def trace_norm(m: np.ndarray) -> float | np.ndarray:
    """Sum of the singular values of a matrix, or one per matrix of a stack."""
    return np.linalg.svd(m, compute_uv=False).sum(axis=-1)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, as one broadcast product (no np.kron overhead)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


def expm(m: np.ndarray) -> np.ndarray:
    """e^M from ``scipy.linalg.expm``, imported here: SciPy comes with the test extra only."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expm requires a square matrix")
    import scipy.linalg

    return scipy.linalg.expm(m)


# ``eig``'s route for one selected eigenvalue keeps its vectors when both residuals are at
# most this times ||M||_F (the left one relative to ||lh||): one solve reaches 5.6e-15 on 560
# mixing Stinespring kicks (d <= 8), and a border orthogonal to an eigenvector misses by far.
_LONE_RTOL = 1e-13


def _lone_eigenvectors(m: np.ndarray, lam: float) -> tuple[np.ndarray, ...] | None:
    """``eig``'s (w, r, lh) for M's simple real eigenvalue near lam, at the two-sided Rayleigh
    quotient, or None when a residual fails ``_LONE_RTOL``. One stacked solve takes both vectors
    from the bordered system [[M - lam I, b], [b^T, 0]] and its transpose, b the unit all-ones
    vector: it is nonsingular when lam is simple and b meets both eigenvectors, even when lam is
    exact and M - lam I singular."""
    n = len(m)
    border = np.zeros((n + 1, n + 1))
    border[:n, :n] = m - lam * np.eye(n)
    border[:n, n] = border[n, :n] = 1 / math.sqrt(n)
    e = np.eye(n + 1)[[n, n], :, None]  # e_n, the last unit vector, on both sides
    with np.errstate(all="ignore"):  # a failed solve ends in NaN, and the guard refuses it
        try:
            x, y = np.linalg.solve(np.stack([border, border.T]), e)[:, :n, 0]
        except np.linalg.LinAlgError:
            return None
        lam = (y @ m @ x) / (y @ x)
        r = x / np.linalg.norm(x)
        lh = y / (y @ r)
        bound = _LONE_RTOL * np.linalg.norm(m)
        if not (np.linalg.norm(m @ r - lam * r) <= bound
                and np.linalg.norm(lh @ m - lam * lh) <= bound * np.linalg.norm(lh)):
            return None
    return np.array([lam], dtype=complex), r[:, None].astype(complex), lh[None].astype(complex)


def eig(m: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues w of modulus >= radius of a real square matrix M, with
    right eigenvectors r and left adjoints lh: M r = r diag(w),
    lh M = diag(w) lh and lh r = I. ``radius=0`` selects the whole spectrum.
    w, r and lh are complex and r has unit columns; complex M raises ``ValueError``.

    NumPy's LAPACK alone: ``eigvals`` gives the spectrum and the selection. A
    selected and an unselected eigenvalue within eps max|M| of each other raise
    ``LinalgError``, as no rounding-level split of them means anything. One
    selected eigenvalue (a mixing channel's 1) takes its vectors from one stacked
    bordered solve (``_lone_eigenvectors``); otherwise, or when their
    residual fails, r and L are the selected right eigenvectors of M and of M^T.
    Those span the right and left invariant subspaces of the selection, so
    lh = (L^T r)^-1 L^T needs no pairing of the two (NaN where L^T r is singular:
    the selection is then defective), and two selections of different sizes
    raise ``LinalgError``. A real M's conjugate pairs have one modulus, so the
    selection never splits a pair.
    """
    if np.iscomplexobj(m):
        raise ValueError("eig takes a real matrix")
    m = np.asarray(m, dtype=float)
    try:
        values = np.linalg.eigvals(m)
        on = np.abs(values) >= radius
        k = np.count_nonzero(on)
        if 0 < k < len(m) and (np.abs(values[on, None] - values[~on]).min()
                               <= np.finfo(float).eps * np.abs(m).max()):
            raise LinalgError(f"eigenvalues either side of |z| = {radius!r} too close to split")
        if k == 1 and (lone := _lone_eigenvectors(m, values[on][0].real)):
            return lone
        w, r = np.linalg.eig(m)
        w_left, left = np.linalg.eig(m.T)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise LinalgError(f"eigensolver did not converge: {exc}") from exc
    on, on_left = np.abs(w) >= radius, np.abs(w_left) >= radius
    if on.sum() != on_left.sum():
        raise LinalgError(f"left and right selections at |z| = {radius!r} differ in size")
    w, r, left = w[on].astype(complex), r[:, on].astype(complex), left[:, on_left].T.astype(complex)
    try:
        lh = np.linalg.solve(left @ r, left)
    except np.linalg.LinAlgError:
        lh = np.full(left.shape, np.nan, dtype=complex)
    return w, r, lh
