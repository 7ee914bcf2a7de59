"""Quantum channel model: Kraus lists, superoperators, and Choi states.

Channels are canonically stored as Kraus operator lists; the d^2 x d^2
superoperator matrix (row-vectorization convention, so the matrix of
A . B is A kron B^T) is rebuilt from them on each ``to_superoperator`` call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import dagger, kron, unvec, vec

__all__ = [
    "ChannelError",
    "ChoiState",
    "CptpReport",
    "KrausChannel",
    "Superoperator",
    "apply",
    "channel_from_dict",
    "channel_to_dict",
    "choi",
    "extend_with_identity",
    "identity_superoperator",
    "load_channel",
    "power",
    "save_channel",
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
    """The d^2 x d^2 matrix of a linear map on operators (row vectorization)."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim**2, self.dim**2):
            raise ChannelError(
                f"superoperator matrix {m.shape} does not match dim {self.dim}"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class ChoiState:
    """Normalized Choi-Jamiolkowski state (unit trace)."""

    dim: int
    matrix: np.ndarray

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


@dataclass(frozen=True)
class CptpReport:
    trace_residual: float
    positivity_residual: float  # max(0, -min eigenvalue of the Choi matrix)
    passed: bool


def validate_cptp(ch: KrausChannel, tol: float = CPTP_TOL) -> CptpReport:
    """Check trace preservation and complete positivity of a Kraus channel."""
    acc = sum(dagger(k) @ k for k in ch.kraus)
    trace_residual = float(np.linalg.norm(acc - np.eye(ch.dim)))
    lam = choi(to_superoperator(ch))
    min_eig = float(np.min(np.linalg.eigvalsh((lam.matrix + dagger(lam.matrix)) / 2)))
    positivity_residual = max(0.0, -min_eig)
    passed = trace_residual <= tol and positivity_residual <= tol
    return CptpReport(trace_residual, positivity_residual, passed)


def to_superoperator(ch: KrausChannel) -> Superoperator:
    """Matrix of the Kraus sum: sum_k E_k kron conj(E_k)."""
    m = sum(kron(k, k.conj()) for k in ch.kraus)
    return Superoperator(ch.dim, m)


def identity_superoperator(d: int) -> Superoperator:
    return Superoperator(d, np.eye(d * d, dtype=complex))


def apply(s: Superoperator, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.shape != (s.dim, s.dim):
        raise ChannelError(f"operator shape {a.shape} does not match dim {s.dim}")
    return unvec(s.matrix @ vec(a), s.dim)


def choi(s: Superoperator) -> ChoiState:
    """Choi state (E kron I)(|Omega><Omega|) with the 1/d normalization."""
    d = s.dim
    lam = s.matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d) / d
    return ChoiState(d, lam)


def extend_with_identity(s2: Superoperator, d1: int) -> Superoperator:
    """Superoperator of I_1 kron E_2 acting on B(H_1 kron H_2)."""
    if d1 < 1:
        raise ChannelError("d1 must be at least 1")
    if d1 == 1:
        return s2
    d2 = s2.dim
    r = s2.matrix.reshape(d2, d2, d2, d2)
    eye = np.eye(d1)
    # indices: out (i1 i2, j1 j2), in (k1 k2, l1 l2)
    big = np.einsum("ik,jl,abcd->iajbkcld", eye, eye, r)
    d = d1 * d2
    return Superoperator(d, big.reshape(d * d, d * d))


def power(s: Superoperator, n: int) -> Superoperator:
    if n < 0:
        raise ChannelError("negative powers are not defined for channels")
    return Superoperator(s.dim, np.linalg.matrix_power(s.matrix, n))


# --- channel file format -----------------------------------------------------


def _matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_pairs(rows) -> np.ndarray:
    m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def channel_to_dict(ch: KrausChannel) -> dict:
    out = {"dim": ch.dim, "kraus": [_matrix_to_pairs(k) for k in ch.kraus]}
    if ch.name:
        out["name"] = ch.name
    return out


def channel_from_dict(data: dict) -> KrausChannel:
    try:
        dim = int(data["dim"])
        kraus = tuple(_matrix_from_pairs(k) for k in data["kraus"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ChannelError(f"bad channel specification: {exc}") from exc
    return KrausChannel(dim, kraus, name=str(data.get("name", "")))


def save_channel(ch: KrausChannel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(channel_to_dict(ch), indent=1))


def load_channel(path: str | Path) -> KrausChannel:
    return channel_from_dict(json.loads(Path(path).read_text()))
