"""Kicked evolutions and the decision procedures for bath dynamical
decoupling and Zeno Hamiltonian suppression.

The Zeno Hamiltonian sum_l P_l [H, .] P_l of a kick, the generator surviving infinitely
frequent kicks, is read from [H, X_b] on the kick's own peripheral eigenoperators X_b:
for H on the kick's space (suppression) and on C^d1 kron C^d (bath DD, lifted eigendata).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Superoperator, _lift
from .linalg import assert_hermitian, dagger, kron
from .spectral import PeripheralDecomposition, _same_cluster, analyze_peripheral, fixed_point_state

__all__ = [
    "DdVerdict",
    "dd_check",
    "dd_evolution",
    "suppression_check",
    "zeno_evolution",
    "zeno_hamiltonian",
]

DD_TOL = 1e-8
SUPPRESSION_TOL = 1e-8


@dataclass(frozen=True)
class DdVerdict:
    """Outcome of the bath dynamical decoupling test for one Hamiltonian.

    ``effective_hamiltonian`` is the traceless part of the decoupled system
    Hamiltonian tr_2[(I_1 kron rho_*) H] for the kick's invariant state rho_*;
    None when the kick is not ergodic, in which case it is undefined.
    """

    works: bool
    residual: float
    effective_hamiltonian: np.ndarray | None
    kick_ergodic: bool


def zeno_hamiltonian(dec: PeripheralDecomposition, h: np.ndarray) -> Superoperator:
    """sum_l P_l [H, .] P_l = right (S o (left [H, X])) left, S the same-cluster mask and X_b
    column b of ``right`` as a d x d matrix; H on C^d1 kron C^d reads E's eigendata lifted."""
    h = assert_hermitian(h)
    d1, rest = divmod(len(h), dec.dim)
    if rest:
        raise ValueError(f"Hamiltonian dim {len(h)} is no multiple of kick dim {dec.dim}")
    right, left = _lift(dec.right, dec.left, d1)
    x = right.T.reshape(-1, *h.shape)
    core = _same_cluster(dec, d1) * (left @ (h @ x - x @ h).reshape(len(x), -1).T)
    return Superoperator(len(h), right @ core @ left)


def _factor_kick(s_kick: Superoperator) -> tuple[np.ndarray, np.ndarray]:
    """S = A B with A of size N x r and B of size r x N, from one SVD of the kick.

    r is the rank by numpy's ``matrix_rank`` rule (sigma > sigma_max N eps), so
    only round-off is cut. A bath-DD sweep factors the bath kick E alone and
    lifts its factors with ``_lift``: I kron E has rank d1^2 rank(E).
    """
    u, sigma, vh = np.linalg.svd(s_kick.matrix)
    r = int(np.count_nonzero(sigma > sigma[0] * len(sigma) * np.finfo(sigma.dtype).eps))
    return u[:, :r] * sigma[:r], vh[:r]


def _kicked_evolutions(factors, h: np.ndarray, t: float, blocks):
    """(P, B W) per block of n, on one flat (n, H) axis: row i k + j holds n = block[i]
    and H_j of the k Hamiltonians, with P = (B W A)^{n-1}, so (S W)^n = A P (B W).

    S = A B comes from ``_factor_kick``. The free step W = V kron conj(V) is never
    formed: row b of B, read as a d x d matrix X_b, maps to b W = vec(V^T X_b conj(V)),
    so with the rows laid side by side once, B W is V^T [X_1 ... X_r] and then the
    stacked (r d x d) times conj(V). H, one matrix or a (k, d, d) stack, is checked and
    diagonalised once. Each P is one ``matrix_power`` per n, and a block of one n is the
    plain (k, r, r) and (k, r, N) stack. A block stacks every array over all its pairs,
    so ``harness.sweep`` sizes it below glibc's mmap threshold (``_STACK_BYTES``).
    """
    a, b = factors
    energies, u = np.linalg.eigh(assert_hermitian(h).reshape(-1, *np.shape(h)[-2:]))
    d, r, u_h = u.shape[-1], b.shape[0], dagger(u)
    x_side = b.reshape(r, d, d).swapaxes(0, 1).reshape(d, r * d)
    for block in blocks:
        if min(block) < 1:
            raise ValueError("n must be at least 1")
        phases = np.exp(np.array([-1j * (t / n) for n in block])[:, None, None] * energies)
        v = ((u * phases[..., None, :]) @ u_h).reshape(-1, d, d)
        vx = (v.swapaxes(-1, -2) @ x_side).reshape(-1, d, r, d).swapaxes(-3, -2)
        bw = (vx.reshape(-1, r * d, d) @ v.conj()).reshape(-1, r, d * d)
        steps = (bw @ a).reshape(len(block), -1, r, r)
        yield np.concatenate([np.linalg.matrix_power(step, n - 1) for step, n in zip(steps, block)]), bw


def zeno_evolution(s_kick: Superoperator, h: np.ndarray, t: float, n: int) -> Superoperator:
    """(E e^{-i (t/n) [H,.]})^n, computed as an exact n-fold product: ``dd_evolution`` at
    d1 = 1, so A P_n (B W) from ``_kicked_evolutions`` on the rank-r factors S = A B. A
    (k, d, d) stack of Hamiltonians, each checked for Hermiticity on its own, gives the
    (k, d^2, d^2) stack of their evolutions."""
    return dd_evolution(s_kick, h, t, n, 1)


def dd_evolution(s2: Superoperator, h: np.ndarray, t: float, n: int, d1: int) -> Superoperator:
    """Bath dynamical decoupling evolution ((I_1 kron E) e^{-i (t/n) [H,.]})^n, from
    the factors of E alone, lifted by ``_lift`` as in a bath-DD sweep."""
    a, b = _lift(*_factor_kick(s2), d1)
    p, bw = next(_kicked_evolutions((a, b), h, t, [(n,)]))
    return Superoperator(d1 * s2.dim, (a @ (p @ bw)).reshape(*np.shape(h)[:-2], len(a), len(a)))


def _zeno_norm(s: Superoperator, h: np.ndarray) -> float:
    """Norm of the Zeno Hamiltonian of H; H is suppressed when it is at most the tolerance."""
    return float(np.linalg.norm(zeno_hamiltonian(analyze_peripheral(s), h).matrix))


def suppression_check(s: Superoperator, h: np.ndarray, tol: float = SUPPRESSION_TOL) -> bool:
    """True when the kick nullifies the Zeno Hamiltonian of H."""
    return _zeno_norm(s, h) <= tol


def dd_check(
    s2: Superoperator, h: np.ndarray, d1: int, tol: float = DD_TOL
) -> DdVerdict:
    """Decide whether bath dynamical decoupling with kick E_2 works for H.

    The predicted decoupled generator is [H_eff kron I_2, .], with
    H_eff = tr_2[(I_1 kron rho_*) H] one partial trace against the kick's
    invariant state. The residual is the Zeno Hamiltonian of the extended kick
    I_1 kron E_2 for K = H - H_eff kron I_2: the norm of
    sum_l (I_1 kron P_l) [K, .] (I_1 kron P_l). Since [H_eff kron I_2, .]
    commutes with every lifted projection, this is the distance from the
    Zeno Hamiltonian of H to the decoupled generator on the range of the
    peripheral projection, the only part the Zeno limit constrains.

    Only E_2 is analysed: ``zeno_hamiltonian`` reads K on C^d1 kron C^d2 from the
    bath kick's own decomposition, lifted by ``_lift``.
    """
    d2 = s2.dim
    if h.shape[0] != d1 * d2:
        raise ValueError(f"dim(H)={h.shape[0]} does not factor as {d1}*{d2}")
    h = assert_hermitian(h)
    dec2 = analyze_peripheral(s2)
    h_eff = np.einsum("axby,yx->ab", h.reshape(d1, d2, d1, d2), fixed_point_state(dec2))
    h_eff -= np.trace(h_eff) / d1 * np.eye(d1)
    k = h - kron(h_eff, np.eye(d2))
    residual = float(np.linalg.norm(zeno_hamiltonian(dec2, k).matrix))
    ergodic = dec2.dim_fixed == 1
    return DdVerdict(works=residual <= tol, residual=residual,
                     effective_hamiltonian=h_eff if ergodic else None, kick_ergodic=ergodic)
