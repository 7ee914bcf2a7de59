"""Quantum channel model: Kraus lists, superoperators, and Choi matrices.

Channels are canonically stored as Kraus operator lists; the d^2 x d^2
superoperator matrix (row-vectorization convention, so the matrix of
A . B is A kron B^T) is rebuilt from them on each ``to_superoperator`` call.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

import numpy as np

from .linalg import dagger, kron

__all__ = [
    "ChannelError",
    "CptpReport",
    "KrausChannel",
    "Superoperator",
    "channel_from_dict",
    "choi",
    "load_channel",
    "to_superoperator",
    "validate_cptp",
]

CPTP_TOL = 1e-10


class ChannelError(ValueError):
    """Malformed channel specification."""


@dataclass(frozen=True)
class KrausChannel:
    """A channel E(rho) = sum_k E_k rho E_k^dag on a d-dimensional space."""

    dim: int
    kraus: tuple[np.ndarray, ...]
    name: str = ""

    def __post_init__(self):
        if not self.kraus:
            raise ChannelError("a channel needs at least one Kraus operator")
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        for k in ops:
            if k.shape != (self.dim, self.dim):
                raise ChannelError(
                    f"Kraus operator of shape {k.shape} does not match dim {self.dim}"
                )
        object.__setattr__(self, "kraus", ops)


@dataclass(frozen=True)
class Superoperator:
    """The d^2 x d^2 matrix of a linear map on operators (row vectorization),
    or a (k, d^2, d^2) stack of k such maps."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2:] != (self.dim**2, self.dim**2):
            raise ChannelError(
                f"superoperator matrix {m.shape} does not match dim {self.dim}"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class CptpReport:
    trace_residual: float
    passed: bool


def validate_cptp(ch: KrausChannel) -> CptpReport:
    """Check sum_k E_k^dag E_k = I within CPTP_TOL: a Kraus list is CP by construction."""
    if np.max(np.abs(ch.kraus)) > 1 + CPTP_TOL:  # no TP channel has one; refused before a product
        return CptpReport(float("inf"), False)
    residual = float(np.linalg.norm(sum(dagger(k) @ k for k in ch.kraus) - np.eye(ch.dim)))
    return CptpReport(residual, residual <= CPTP_TOL)


def to_superoperator(ch: KrausChannel) -> Superoperator:
    """Matrix of the Kraus sum: sum_k E_k kron conj(E_k)."""
    m = sum(kron(k, k.conj()) for k in ch.kraus)
    return Superoperator(ch.dim, m)


def choi(s: Superoperator) -> np.ndarray:
    """The d^2 x d^2 Choi state (E kron I)(|Omega><Omega|) with the 1/d
    normalization (unit trace for a trace-preserving map); a stack of maps
    gives the stack of their Choi states."""
    d, shape = s.dim, s.matrix.shape
    return s.matrix.reshape(*shape[:-2], d, d, d, d).swapaxes(-3, -2).reshape(shape) / d


@functools.lru_cache(maxsize=None)
def _hermitian_coordinates(d: int) -> tuple[np.ndarray, ...]:
    """The package's one read-only table of Hermitian coordinates on d x d operators: T with
    T vec(X) = (X_ii; Re X_ij for i < j; Im X_ij for i < j), its exact inverse, Q, the pairs
    i < j as two index arrays, the flat indices of each (i, j) and then of each (i, i), and
    Re T and Im T interleaved column by column: y T = (y @ them).view(complex) for a real y.

    X is Hermitian exactly when T vec(X) is real, so a Hermiticity-preserving S is the real
    T S T^-1, each entry a sum of at most four of S: T and T^-1 hold only 0, 1, 1/2, +-i/2, +-i.
    Q, T^-1 with unit columns, is the one HS-orthonormal Hermitian basis of M_d (``_plan``,
    ``schmidt``); ``_real_form`` and ``_lift`` read T and T^-1, and ``zeno`` the rest."""
    n, diagonal = d * d, np.arange(d) * (d + 1)
    units = np.eye(n).reshape(n, d, d)
    i, j = np.triu_indices(d, 1)
    upper, lower = units[d * i + j], units[d * j + i]
    basis = np.concatenate([units[diagonal], upper + lower, 1j * (upper - lower)])
    t_inv = basis.reshape(n, n).T
    # T = D T^-1^dag with D = diag(1 on the X_ii rows, 1/2 on the others)
    t = t_inv.conj().T / np.where(np.arange(n) < d, 1.0, 2.0)[:, None]
    q = t_inv / np.linalg.norm(t_inv, axis=0)
    parts = np.stack([t.real, t.imag], axis=-1).reshape(n, -1)
    table = t, t_inv, q, i, j, np.concatenate([d * i + j, diagonal]), parts
    for a in table:
        a.flags.writeable = False  # shared by every caller
    return table


def _lift(columns: np.ndarray, rows: np.ndarray, d1: int) -> tuple[np.ndarray, np.ndarray]:
    """The (columns, rows) of a bath map M = columns @ rows lifted to those of
    I_d1 kron M: each column X_b, read as a d x d operator, becomes the d1^2 operators
    G_m kron X_b, G_m the Hermitian basis of M_d1 (columns of T^-1, ``_hermitian_coordinates``),
    and each row likewise with the dual rows of T, grouped by b. So eigendata stay grouped
    by cluster, E = A B lifts to rank d1^2 r, and Hermitian columns, and rows real on
    Hermitian input, stay so. For d1 = 1 they are the inputs themselves."""
    if d1 < 1:
        raise ChannelError("d1 must be at least 1")
    if d1 == 1:
        return columns, rows
    d, k = isqrt(columns.shape[0]), columns.shape[1]
    t, t_inv = _hermitian_coordinates(d1)[:2]
    basis, dual = t_inv.T.reshape(-1, d1, d1), t.reshape(-1, d1, d1)
    lifted_columns = np.einsum("mkl,ijb->kiljbm", basis, columns.reshape(d, d, k))
    lifted_rows = np.einsum("mkl,bij->bmkilj", dual, rows.reshape(k, d, d))
    n, k1 = (d1 * d) ** 2, k * d1 * d1
    return lifted_columns.reshape(n, k1), lifted_rows.reshape(k1, n)


def extend_with_identity(s2: Superoperator, d1: int) -> Superoperator:
    """Superoperator of I_1 kron E_2 acting on B(H_1 kron H_2): E_2 = E_2 I, lifted by ``_lift``."""
    if d1 == 1:
        return s2
    columns, rows = _lift(s2.matrix, np.eye(s2.dim**2), d1)
    return Superoperator(d1 * s2.dim, columns @ rows)


# --- channel file format -----------------------------------------------------


def _matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _real(value, what: str) -> float:
    """``value`` as a float; a bool, a string or any other non-number is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    """``value`` as an int; a bool or a non-integral number is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _matrix_from_pairs(rows) -> np.ndarray:
    m = np.array([[complex(_real(re, "a matrix entry"), _real(im, "a matrix entry"))
                   for re, im in row] for row in rows], dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def channel_from_dict(data: dict) -> KrausChannel:
    try:
        dim = _integer(data["dim"], "dim")
        kraus = tuple(_matrix_from_pairs(k) for k in data["kraus"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ChannelError(f"bad channel specification: {exc}") from exc
    return KrausChannel(dim, kraus, name=str(data.get("name", "")))


def load_channel(path: str | Path) -> KrausChannel:
    return channel_from_dict(json.loads(Path(path).read_text()))
