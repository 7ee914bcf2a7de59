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
    expected = Classification("E_updown", dim_fixed=1, dim_recurrent=2, ergodic=True,
                              mixing=False, irreducible=True, dfs_free=True, cycle_lengths=(2,))
    return ZooEntry("E_updown", ch, expected)


def _hook() -> ZooEntry:
    ch = KrausChannel(3, (_unit(3, 0, 1), _unit(3, 1, 0), _unit(3, 0, 2)), name="E_hook")
    expected = Classification("E_hook", dim_fixed=1, dim_recurrent=2, ergodic=True,
                              mixing=False, irreducible=False, dfs_free=True, cycle_lengths=(2,))
    return ZooEntry("E_hook", ch, expected)


def _triangle() -> ZooEntry:
    ch = KrausChannel(3, (_unit(3, 0, 1), _unit(3, 1, 2), _unit(3, 2, 0)),
                      name="E_triangle")
    expected = Classification("E_triangle", dim_fixed=1, dim_recurrent=3, ergodic=True,
                              mixing=False, irreducible=True, dfs_free=True, cycle_lengths=(3,))
    return ZooEntry("E_triangle", ch, expected)


def _square(p: float = 0.5) -> ZooEntry:
    p = _real(p, "p")
    if not 0 < p < 1:
        raise ValueError("E_square requires p in (0, 1)")
    k1 = _unit(3, 2, 0)
    k2 = _unit(3, 2, 1)
    k3 = np.sqrt(p) * _unit(3, 0, 2)
    k4 = np.sqrt(1 - p) * _unit(3, 1, 2)
    ch = KrausChannel(3, (k1, k2, k3, k4), name="E_square")
    expected = Classification("E_square", dim_fixed=1, dim_recurrent=2, ergodic=True,
                              mixing=False, irreducible=True, dfs_free=True, cycle_lengths=(2,))
    return ZooEntry("E_square", ch, expected)


def _dephase(d: int = 2) -> ZooEntry:
    d = _integer(d, "d")
    ch = KrausChannel(d, tuple(_unit(d, i, i) for i in range(d)), name="E_dephase")
    expected = Classification("E_dephase", dim_fixed=d, dim_recurrent=d, ergodic=False,
                              mixing=False, irreducible=False, dfs_free=True,
                              cycle_lengths=(1,) * d)
    return ZooEntry("E_dephase", ch, expected)


def _p_rho(rho=np.eye(2) / 2) -> ZooEntry:
    """The projection channel rho -> tr(rho) rho_*.

    Kraus set: {sqrt(lambda_a) |a><b|} over eigenpairs (lambda_a, |a>) of the
    target state and all basis kets |b>.
    """
    vals, kraus = _reset_kraus(rho, "P_rho's rho")
    ch = KrausChannel(len(vals), tuple(kraus), name="P_rho")
    full_rank = bool(np.min(vals) > 1e-10)
    expected = Classification("P_rho", dim_fixed=1, dim_recurrent=1, ergodic=True,
                              mixing=True, irreducible=full_rank, dfs_free=True, cycle_lengths=(1,))
    return ZooEntry("P_rho", ch, expected)


def _omega(omega=np.eye(2) / 2) -> ZooEntry:
    """Two-qubit channel A -> tr_2(A) kron Omega (bath reset to Omega)."""
    eye = np.eye(2, dtype=complex)
    _, resets = _reset_kraus(omega, "E_omega's omega", 2)
    ch = KrausChannel(4, tuple(kron(eye, k) for k in resets), name="E_omega")
    witness = ("Z_on_dfs", kron(Z, eye), False)
    expected = Classification("E_omega", dim_fixed=4, dim_recurrent=4, ergodic=False,
                              mixing=False, irreducible=False, dfs_free=False)
    return ZooEntry("E_omega", ch, expected, witnesses=(witness,))


# Fixed parameters of the block-permuting three-qubit channel: diagonal
# unitaries on the decoherence-free factor and full-rank prepared states.
DF_U0 = np.diag([1.0, np.exp(1j * np.pi / 3)]).astype(complex)
DF_U1 = np.diag([1.0, np.exp(1j * np.pi / 5)]).astype(complex)
DF_RHO0 = np.diag([0.25, 0.75]).astype(complex)
DF_RHO1 = np.diag([0.6, 0.4]).astype(complex)


def _df(rho0=None, rho1=None) -> ZooEntry:
    """Three-qubit channel permuting two recurrent sub-blocks while acting
    unitarily on a two-dimensional decoherence-free factor:
    |0><0| kron A -> |1><1| kron U1 tr_3(A) U1^dag kron rho1 and vice versa,
    coherences between the blocks are destroyed. The unitaries are fixed
    (``DF_U0``, ``DF_U1``): the expected profile and the witness hold for them.
    """
    rho0 = DF_RHO0 if rho0 is None else rho0
    rho1 = DF_RHO1 if rho1 is None else rho1
    kraus = [kron(kron(flip, u), prep)
             for flip, u, rho, what in ((_unit(2, 1, 0), DF_U1, rho1, "rho1"),
                                        (_unit(2, 0, 1), DF_U0, rho0, "rho0"))
             for prep in _reset_kraus(rho, f"E_df's {what}", 2)[1]]
    ch = KrausChannel(8, tuple(kraus), name="E_df")
    eye = np.eye(2, dtype=complex)
    # Z on the decoherence-free factor commutes with the diagonal block
    # unitaries, so its Zeno Hamiltonian survives.
    witness = ("Z_on_dfs", kron(kron(eye, Z), eye), False)
    expected = Classification("E_df", dim_fixed=2, dim_recurrent=8, ergodic=False,
                              mixing=False, irreducible=False, dfs_free=False)
    return ZooEntry("E_df", ch, expected, witnesses=(witness,))


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
