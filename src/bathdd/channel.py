"""Quantum channel model: Kraus lists, superoperators, and Choi matrices.

Channels are canonically stored as Kraus operator lists; the d^2 x d^2
superoperator matrix (row-vectorization convention, so the matrix of
A . B is A kron B^T) is rebuilt from them on each ``to_superoperator`` call.
"""

from __future__ import annotations

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
    "extend_with_identity",
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
    positivity_residual: float  # max(0, -min eigenvalue of the Choi matrix)
    passed: bool


def validate_cptp(ch: KrausChannel) -> CptpReport:
    """Check trace preservation and complete positivity of a Kraus channel within CPTP_TOL."""
    acc = sum(dagger(k) @ k for k in ch.kraus)
    trace_residual = float(np.linalg.norm(acc - np.eye(ch.dim)))
    lam = choi(to_superoperator(ch))
    min_eig = float(np.min(np.linalg.eigvalsh((lam + dagger(lam)) / 2)))
    positivity_residual = max(0.0, -min_eig)
    passed = trace_residual <= CPTP_TOL and positivity_residual <= CPTP_TOL
    return CptpReport(trace_residual, positivity_residual, passed)


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


def _lift(columns: np.ndarray, rows: np.ndarray, d1: int) -> tuple[np.ndarray, np.ndarray]:
    """The (columns, rows) of a bath map M = columns @ rows lifted to those of
    I_d1 kron M: each column X_b, read as a d x d operator, becomes the d1^2
    operators E_kl kron X_b, and each row likewise, grouped by b. So eigendata
    stay grouped by cluster, and the factors of E = A B become the rank
    d1^2 r factors of I_d1 kron E. For d1 = 1 they are the inputs themselves."""
    if d1 < 1:
        raise ChannelError("d1 must be at least 1")
    if d1 == 1:
        return columns, rows
    d, k = isqrt(columns.shape[0]), columns.shape[1]
    eye = np.eye(d1)
    lifted_columns = np.einsum("km,ln,ijb->kiljbmn", eye, eye, columns.reshape(d, d, k))
    lifted_rows = np.einsum("km,ln,bij->bmnkilj", eye, eye, rows.reshape(k, d, d))
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
