"""Built-in channels with their expected spectral profiles and witness
Hamiltonians used throughout the tests and the figure reproductions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import KrausChannel, _integer, _real
from .classify import Classification
from .linalg import is_hermitian, kron

__all__ = [
    "ZooEntry",
    "builtin",
    "names",
    "pauli",
]

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def pauli(which: str) -> np.ndarray:
    return {"x": X, "y": Y, "z": Z}[which.lower()].copy()


@dataclass(frozen=True)
class ZooEntry:
    name: str
    channel: KrausChannel
    expected: Classification
    # (label, Hamiltonian, expected suppression_check outcome)
    witnesses: tuple[tuple[str, np.ndarray, bool], ...] = ()


def _unit(d: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def _expected(name, dim_fixed, dim_recurrent, ergodic, mixing, irreducible,
              dfs_free, cycles=()):
    return Classification(
        name=name,
        dim_fixed=dim_fixed,
        dim_recurrent=dim_recurrent,
        ergodic=ergodic,
        mixing=mixing,
        irreducible=irreducible,
        dfs_free=dfs_free,
        cycle_lengths=tuple(cycles),
    )


def _reset_kraus(rho, what: str, d: int | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Eigenvalues of the density matrix ``rho`` and the Kraus operators
    {sqrt(lambda_a) |a><b|} of X -> tr(X) rho, over its eigenpairs
    (lambda_a, |a>) and the basis kets |b>.

    ``rho`` must be square (d x d when ``d`` is given), Hermitian, positive
    semidefinite and of unit trace; anything else raises ``ValueError``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or d not in (None, len(rho)):
        size = "square" if d is None else f"{d}x{d}"
        raise ValueError(f"{what} must be a {size} density matrix, got shape {rho.shape}")
    if not is_hermitian(rho):
        raise ValueError(f"{what} must be a density matrix: it is not Hermitian")
    vals, vecs = np.linalg.eigh(rho)
    if np.min(vals) < -1e-12 or abs(np.sum(vals) - 1) > 1e-10:
        raise ValueError(f"{what} must be a density matrix: eigenvalues {vals.round(12)}")
    eye = np.eye(len(rho))
    return vals, [np.sqrt(lam) * np.outer(vecs[:, a], eye[b])
                  for a, lam in enumerate(vals) if lam > 1e-14 for b in range(len(rho))]


def _updown() -> ZooEntry:
    ch = KrausChannel(2, (_unit(2, 0, 1), _unit(2, 1, 0)), name="E_updown")
    return ZooEntry(
        "E_updown", ch,
        _expected("E_updown", 1, 2, True, False, True, True, (2,)),
    )


def _hook() -> ZooEntry:
    ch = KrausChannel(3, (_unit(3, 0, 1), _unit(3, 1, 0), _unit(3, 0, 2)), name="E_hook")
    return ZooEntry(
        "E_hook", ch,
        _expected("E_hook", 1, 2, True, False, False, True, (2,)),
    )


def _triangle() -> ZooEntry:
    ch = KrausChannel(3, (_unit(3, 0, 1), _unit(3, 1, 2), _unit(3, 2, 0)),
                      name="E_triangle")
    return ZooEntry(
        "E_triangle", ch,
        _expected("E_triangle", 1, 3, True, False, True, True, (3,)),
    )


def _square(p: float = 0.5) -> ZooEntry:
    p = _real(p, "p")
    if not 0 < p < 1:
        raise ValueError("E_square requires p in (0, 1)")
    k1 = _unit(3, 2, 0)
    k2 = _unit(3, 2, 1)
    k3 = np.sqrt(p) * _unit(3, 0, 2)
    k4 = np.sqrt(1 - p) * _unit(3, 1, 2)
    ch = KrausChannel(3, (k1, k2, k3, k4), name="E_square")
    return ZooEntry(
        "E_square", ch,
        _expected("E_square", 1, 2, True, False, True, True, (2,)),
    )


def _dephase(d: int = 2) -> ZooEntry:
    d = _integer(d, "d")
    ch = KrausChannel(d, tuple(_unit(d, i, i) for i in range(d)), name="E_dephase")
    return ZooEntry(
        "E_dephase", ch,
        _expected("E_dephase", d, d, False, False, False, True, (1,) * d),
    )


def _p_rho(rho=np.eye(2) / 2) -> ZooEntry:
    """The projection channel rho -> tr(rho) rho_*.

    Kraus set: {sqrt(lambda_a) |a><b|} over eigenpairs (lambda_a, |a>) of the
    target state and all basis kets |b>.
    """
    vals, kraus = _reset_kraus(rho, "P_rho's rho")
    ch = KrausChannel(len(vals), tuple(kraus), name="P_rho")
    full_rank = bool(np.min(vals) > 1e-10)
    return ZooEntry(
        "P_rho", ch,
        _expected("P_rho", 1, 1, True, True, full_rank, True, (1,)),
    )


def _omega(omega=np.eye(2) / 2) -> ZooEntry:
    """Two-qubit channel A -> tr_2(A) kron Omega (bath reset to Omega)."""
    eye = np.eye(2, dtype=complex)
    _, resets = _reset_kraus(omega, "E_omega's omega", 2)
    ch = KrausChannel(4, tuple(kron(eye, k) for k in resets), name="E_omega")
    witness = ("Z_on_dfs", kron(Z, eye), False)
    return ZooEntry(
        "E_omega", ch,
        _expected("E_omega", 4, 4, False, False, False, False),
        witnesses=(witness,),
    )


# Fixed parameters of the block-permuting three-qubit channel: diagonal
# unitaries on the decoherence-free factor and full-rank prepared states.
DF_U0 = np.diag([1.0, np.exp(1j * np.pi / 3)]).astype(complex)
DF_U1 = np.diag([1.0, np.exp(1j * np.pi / 5)]).astype(complex)
DF_RHO0 = np.diag([0.25, 0.75]).astype(complex)
DF_RHO1 = np.diag([0.6, 0.4]).astype(complex)


def _df(u0=None, u1=None, rho0=None, rho1=None) -> ZooEntry:
    """Three-qubit channel permuting two recurrent sub-blocks while acting
    unitarily on a two-dimensional decoherence-free factor:
    |0><0| kron A -> |1><1| kron U1 tr_3(A) U1^dag kron rho1 and vice versa,
    coherences between the blocks are destroyed.
    """
    u0 = DF_U0 if u0 is None else np.asarray(u0, dtype=complex)
    u1 = DF_U1 if u1 is None else np.asarray(u1, dtype=complex)
    rho0 = DF_RHO0 if rho0 is None else rho0
    rho1 = DF_RHO1 if rho1 is None else rho1
    kraus = [kron(kron(flip, u), prep)
             for flip, u, rho, what in ((_unit(2, 1, 0), u1, rho1, "rho1"),
                                        (_unit(2, 0, 1), u0, rho0, "rho0"))
             for prep in _reset_kraus(rho, f"E_df's {what}", 2)[1]]
    ch = KrausChannel(8, tuple(kraus), name="E_df")
    eye = np.eye(2, dtype=complex)
    # Z on the decoherence-free factor commutes with the diagonal block
    # unitaries, so its Zeno Hamiltonian survives.
    witness = ("Z_on_dfs", kron(kron(eye, Z), eye), False)
    return ZooEntry(
        "E_df", ch,
        _expected("E_df", 2, 8, False, False, False, False),
        witnesses=(witness,),
    )


_BUILDERS = {
    "E_updown": _updown,
    "E_hook": _hook,
    "E_triangle": _triangle,
    "E_square": _square,
    "E_dephase": _dephase,
    "P_rho": _p_rho,
    "E_omega": _omega,
    "E_df": _df,
}


def names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def builtin(name: str, **params) -> ZooEntry:
    """Look up a built-in channel by name; parameters use defaults when omitted.

    A parameter the channel does not take raises ``TypeError``.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown zoo channel {name!r}; available: {sorted(_BUILDERS)}")
    return builder(**params)
