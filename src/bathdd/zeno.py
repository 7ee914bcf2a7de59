"""Kicked evolutions and the decision procedures for bath dynamical
decoupling and Zeno Hamiltonian suppression.

The Zeno Hamiltonian sum_l P_l [H, .] P_l of a kick, the generator surviving infinitely
frequent kicks, is read from [H, X_b] on the kick's own peripheral eigenoperators X_b:
for H on the kick's space (suppression) and on C^d1 kron C^d (bath DD, lifted eigendata).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import Superoperator, _lift
from .linalg import _hermitian_rule, _unit, assert_hermitian, dagger, kron
from .spectral import (_CACHE_SIZE, PeripheralDecomposition, _real_form, _same_cluster,
                       analyze_peripheral, fixed_point_state)

__all__ = [
    "DdVerdict",
    "dd_check",
    "suppression_check",
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
    return _zeno_generator(dec, assert_hermitian(h))


def _zeno_generator(dec: PeripheralDecomposition, h: np.ndarray) -> Superoperator:
    """``zeno_hamiltonian`` of an H already checked, as ``_zeno_residual`` checks its H once."""
    d1, rest = divmod(len(h), dec.dim)
    if rest:
        raise ValueError(f"Hamiltonian dim {len(h)} is no multiple of kick dim {dec.dim}")
    right, left = _lift(dec.right, dec.left, d1)
    x = right.T.reshape(-1, *h.shape)
    core = _same_cluster(dec, d1) * (left @ (h @ x - x @ h).reshape(len(x), -1).T)
    return Superoperator(len(h), right @ core @ left)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _factor_kick(dim: int, data: bytes, d1: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only factors, memoised per process, of I_d1 kron S for the kick S with these
    bytes: S = A B = (T^-1 A_R)(B_R T) from one real SVD of ``spectral._real_form``'s
    T S T^-1, which refuses a non-HP S; ``_lift`` lifts them to rank d1^2 r. Columns of A
    are Hermitian, rows of B real on Hermitian input; r keeps sigma > sigma_max N eps
    (numpy's ``matrix_rank`` rule), so only round-off is cut, and the zero map is refused."""
    t, t_inv, m = _real_form(dim, data)
    u, sigma, vh = np.linalg.svd(m)
    r = int(np.count_nonzero(sigma > sigma[0] * len(sigma) * np.finfo(sigma.dtype).eps))
    if not r:
        raise ValueError("the kick is the zero map: it has no kicked evolution")
    a, b = _lift(t_inv @ (u[:, :r] * sigma[:r]), vh[:r] @ t, d1)
    a.flags.writeable = b.flags.writeable = False  # shared by every caller of this kick
    return a, b


def _sandwich(ops: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(k, c, d d): vec(left_j X_i right_j) for the c rows X_i of ``ops`` read as d x d
    operators, laid side by side once so that each side is one stacked product."""
    k, d = len(left), left.shape[-1]
    side = ops.reshape(-1, d, d).swapaxes(0, 1).reshape(d, -1)
    y = (left @ side).reshape(k, d, -1, d).swapaxes(1, 2).reshape(k, -1, d)
    return (y @ right).reshape(k, -1, d * d)


def _kicked_evolutions(factors, h: np.ndarray, t: float, blocks, rt: np.ndarray | None = None):
    """(P, B W R^T) per block of n, on one flat (n, H) axis: row i k + j holds n = block[i]
    and H_j of the k Hamiltonians, with the real P = (B W A)^{n-1}, so (S W)^n = A P (B W).

    With S = A B from the read-only memo ``_factor_kick``, B W A is real in exact arithmetic.
    H, one matrix or a (k, d, d) stack, is checked and diagonalised once, H = U E U^dag, so W
    is (U kron conj(U)) Phi (U kron conj(U))^dag with Phi = diag exp(-i (t/n) (E_i - E_j)).
    Rows X of B go to U^T X conj(U) and columns Y of [A | R^T] to U^dag Y U once; a block is
    one phase product and one stacked product: r columns of step B W A, whose real part is
    powered once per n, then B W R^T (R the bath trace in a dd sweep, by default I). A
    block stacks the r x N B Phi of its pairs; ``harness.sweep`` sizes it (``_STACK_BYTES``).
    A block whose phases pass the float range, (t/n) (E_max - E_min) not finite, raises
    ``ValueError``.
    """
    a, b = factors
    energies, u = np.linalg.eigh(assert_hermitian(h).reshape(-1, *np.shape(h)[-2:]))
    k, r = len(u), len(b)
    b_u = _sandwich(b, u.swapaxes(-1, -2), u.conj())
    cols = np.hstack([a, np.eye(len(a)) if rt is None else rt])
    c_u = _sandwich(cols.T, dagger(u), u).swapaxes(-1, -2)
    gaps = (energies[:, :, None] - energies[:, None, :]).reshape(k, 1, -1)
    span = float(np.max(energies[:, -1] - energies[:, 0]))  # the largest gap; eigh sorts E
    for block in blocks:
        if min(block) < 1:
            raise ValueError("n must be at least 1")
        if not math.isfinite(abs(float(t)) / min(block) * span):  # Python floats: no warning
            raise ValueError(f"the phases (t/n) (E_i - E_j) overflow at t={t:g}, n={min(block)}")
        phases = np.exp(np.array([-1j * (t / n) for n in block])[:, None, None, None] * gaps)
        out = ((b_u * phases) @ c_u).reshape(-1, r, c_u.shape[-1])
        steps = out[:, :, :r].real.reshape(len(block), k, r, r)
        powers = [np.linalg.matrix_power(step, n - 1) for step, n in zip(steps, block)]
        yield np.concatenate(powers), out[:, :, r:]


def zeno_evolution(s_kick: Superoperator, h: np.ndarray, t: float, n: int) -> Superoperator:
    """(E e^{-i (t/n) [H,.]})^n, computed as an exact n-fold product: ``dd_evolution`` at
    d1 = 1, so A P_n (B W) from ``_kicked_evolutions`` on the rank-r factors S = A B. A
    (k, d, d) stack of Hamiltonians, each checked for Hermiticity on its own, gives the
    (k, d^2, d^2) stack of their evolutions."""
    return dd_evolution(s_kick, h, t, n, 1)


def dd_evolution(s2: Superoperator, h: np.ndarray, t: float, n: int, d1: int) -> Superoperator:
    """Bath dynamical decoupling evolution ((I_1 kron E) e^{-i (t/n) [H,.]})^n, from
    the factors of E alone, lifted and memoised by ``_factor_kick`` as in a bath-DD sweep."""
    a, b = _factor_kick(s2.dim, s2.matrix.tobytes(), d1)
    p, bw = next(_kicked_evolutions((a, b), h, t, [(n,)]))
    return Superoperator(d1 * s2.dim, (a @ (p @ bw)).reshape(*np.shape(h)[:-2], len(a), len(a)))


def _zeno_residual(dec: PeripheralDecomposition, h: np.ndarray, d1: int | None = None):
    """(||H_Z(K)||_F / ||H0||_F, H_eff): a finite H is scaled exactly by ``_unit`` and checked
    once, by ``is_hermitian``'s rule on H / c, so the check is relative, and H0, its traceless
    part, is scaled again; 0 when H0 = 0.
    With d1 (bath DD), H is on C^d1 kron C^d and K = H0 - H_eff kron I (H0 at d1 = 1); without
    (suppression), K = H0 on C^(dim H / d) kron C^d, as ``zeno_hamiltonian`` reads it."""
    h = np.asarray(h, dtype=complex)
    finite = bool(np.isfinite(h).all())
    h, c = _unit(h) if finite else (h, 1.0)
    if not finite or not _hermitian_rule(h, 1.0):  # the rule on H / c itself: relative
        raise ValueError("matrix is not Hermitian within tolerance")
    h0, c0 = _unit(h - np.trace(h) / len(h) * np.eye(len(h)))
    k, h_eff = h0, np.zeros((1, 1))  # at d1 = 1 the traceless 1 x 1 H_eff is 0, and K = H0
    if d1 is not None and len(h) != d1 * dec.dim:
        raise ValueError(f"dim(H)={len(h)} does not factor as {d1}*{dec.dim}")
    if d1 is not None and d1 > 1:
        h_eff = np.einsum("axby,yx->ab", h0.reshape((d1, dec.dim) * 2), fixed_point_state(dec))
        h_eff -= np.trace(h_eff) / d1 * np.eye(d1)
        k = h0 - kron(h_eff, np.eye(dec.dim))
        with np.errstate(over="ignore"):  # an H_eff past the float range is inf: dd_check refuses it
            h_eff = h_eff * c0 * c
    h_z = _zeno_generator(dec, k).matrix
    return float(np.linalg.norm(h_z) / max(np.linalg.norm(h0), 1.0)), h_eff


def suppression_check(s: Superoperator, h: np.ndarray, tol: float = SUPPRESSION_TOL) -> bool:
    """True when the kick nullifies the Zeno Hamiltonian of H, within tol ||H0||_F."""
    return _zeno_residual(analyze_peripheral(s), h)[0] <= tol


def dd_check(
    s2: Superoperator, h: np.ndarray, d1: int, tol: float = DD_TOL
) -> DdVerdict:
    """Decide whether bath dynamical decoupling with kick E_2 works for H.

    The predicted decoupled generator is [H_eff kron I_2, .], with
    H_eff = tr_2[(I_1 kron rho_*) H] one partial trace against the kick's
    invariant state. The residual (``_zeno_residual``) is ||sum_l (I_1 kron P_l) [K, .] (I_1 kron
    P_l)||_F / ||H0||_F for K = H0 - H_eff kron I_2, H0 the traceless part of H: the verdict on
    c H + a I is that on H. Since [H_eff kron I_2, .] commutes with every lifted projection,
    this is the distance from the Zeno Hamiltonian of H to the decoupled generator on the
    range of the peripheral projection, the only part the Zeno limit constrains. An ergodic
    kick's H_eff past the float range raises ``ValueError``.
    """
    dec2 = analyze_peripheral(s2)
    residual, h_eff = _zeno_residual(dec2, h, d1)
    ergodic = dec2.dim_fixed == 1
    if ergodic and not np.isfinite(h_eff).all():
        raise ValueError("the effective Hamiltonian exceeds the float range")
    return DdVerdict(works=residual <= tol, residual=residual,
                     effective_hamiltonian=h_eff if ergodic else None, kick_ergodic=ergodic)
