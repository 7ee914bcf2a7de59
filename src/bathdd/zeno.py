"""Kicked evolutions and the decision procedures for bath dynamical
decoupling and Zeno Hamiltonian suppression.

The Zeno Hamiltonian sum_l P_l [H, .] P_l of a kick, the generator surviving infinitely
frequent kicks, is read from [H, X_b] on the kick's own peripheral eigenoperators X_b, lifted
to C^d1 kron C^d: right (S o (left [H, X])) left, linear in H (``_generator``). Everything in it
that no H enters is derived once per (decomposition, d1) by ``PeripheralDecomposition.derive``
(``_zeno_frame``): the lifted eigendata and the same-cluster mask S, with the kick's fixed state
for H_eff. Both verdicts are the residual ||zeno_hamiltonian(K)||_F / ||H0||_F at an explicit d1
(``_zeno_residual``): bath DD at the system's d1, and Zeno suppression at d1 = 1, where
H_eff = 0 and K = H0. The frame at d1 = 1 is ``classify``'s DFS test too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import Superoperator, _hermitian_coordinates, _lift, _trace_bath
from .linalg import _hamiltonian, _unit, dagger, kron
from .spectral import (_CACHE_SIZE, PeripheralDecomposition, _real_form, analyze_peripheral,
                       fixed_point_state)

__all__ = [
    "DdVerdict",
    "dd_check",
    "suppression_check",
    "zeno_hamiltonian",
]

DD_TOL = 1e-8  # both verdicts: suppression is the bath-DD residual at d1 = 1


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
    """sum_l P_l [H, .] P_l (``_generator``); H on C^d1 kron C^d reads E's eigendata lifted.
    H meets ``linalg._hamiltonian``'s relative rule, as in every verdict."""
    h = _hamiltonian(h)[0]
    d1, rest = divmod(len(h), dec.dim)
    if rest:
        raise ValueError(f"Hamiltonian dim {len(h)} is no multiple of kick dim {dec.dim}")
    return Superoperator(len(h), _generator(dec.derive(_zeno_frame, d1), h))


def _zeno_frame(dec: PeripheralDecomposition, d1: int) -> tuple:
    """What the Zeno Hamiltonian at d1 reads besides H, and at d1 = 1 ``classify``'s DFS test:
    the lifted ``right`` as (k', D, D) operators X_b, the lifted ``left`` (k' x D^2) and the mask
    S of lifted pairs in one cluster."""
    right, left = _lift(dec.right, dec.left, d1)
    labels = np.repeat(np.arange(dec.multiplicities.size), dec.multiplicities * d1 * d1)
    return right.T.reshape(-1, d1 * dec.dim, d1 * dec.dim), left, labels[:, None] == labels


def _generator(frame: tuple, h: np.ndarray) -> np.ndarray:
    """The N x N Zeno Hamiltonian right (S o (left vec[H, X_b])) left of H, ``right`` being the
    X_b stack read as columns."""
    x, left, mask = frame
    core = mask * (left @ (h @ x - x @ h).reshape(len(x), -1).T)
    return x.reshape(len(x), -1).T @ core @ left


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _plan(dim: int, data: bytes, d1: int, traced: bool):
    """The part of a kicked evolution of I_d1 kron S that no Hamiltonian enters, S the kick of
    these bytes, memoised per process and read-only: ((A, B, planes, parts), kept) for
    ``_kicked_evolutions``. S = A B = (T^-1 A_R)(B_R T) from one real SVD of T S T^-1
    (``spectral._real_form``, which refuses a non-HP S); ``_lift`` lifts them to rank d1^2 r.
    Columns of A are Hermitian, rows of B real on Hermitian input; r keeps sigma > sigma_max N
    eps (numpy's ``matrix_rank`` rule), so only round-off is cut, and the zero map is refused.
    The planes are those of B and [A | R^T]. Untraced, R = I: the plan holds T^-1, whose
    coordinates ``parts`` take to those of I, and kept is None. Traced (a dd sweep), R^T = T^T Q,
    T the bath trace (``channel._trace_bath``) and Q the orthonormal Hermitian basis of M_d1
    (``channel._hermitian_coordinates``), parts is None and kept the real rows Q^dag T A."""
    t, t_inv, m = _real_form(dim, data)
    u, sigma, vh = np.linalg.svd(m)
    r = int(np.count_nonzero(sigma > sigma[0] * len(sigma) * np.finfo(sigma.dtype).eps))
    if not r:
        raise ValueError("the kick is the zero map: it has no kicked evolution")
    a, b = _lift(t_inv @ (u[:, :r] * sigma[:r]), vh[:r] @ t, d1)
    a.flags.writeable = b.flags.writeable = False  # shared by every caller of this kick
    if not traced:
        _, basis, *_, parts = _hermitian_coordinates(d1 * dim)
        return (a, b, _planes(b, a.T, basis.T), parts), None
    q = _hermitian_coordinates(d1)[2]
    kept = (q.conj().T @ _trace_bath(a, d1, dim)).real
    kept.flags.writeable = False
    return (a, b, _planes(b, a.T, q.T @ _trace_bath(np.eye(len(a)), d1, dim)), None), kept


def _planes(*ops: np.ndarray) -> np.ndarray:
    """Read-only (d, 2 m d) for ``_sandwich``: Re and then Im of the m rows of ``ops`` (B's, then
    [A | R]'s columns), each read as a d x d operator, laid side by side."""
    ops = np.concatenate(ops)
    d = math.isqrt(ops.shape[-1])
    planes = np.concatenate([ops.real, ops.imag]).reshape(-1, d, d).swapaxes(0, 1).reshape(d, -1)
    planes.flags.writeable = False
    return planes


def _sandwich(planes: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(k, c, d d): vec(left_j X_i right_j) for the c operators X_i laid side by side in the
    (d, c d) ``planes``, so that each side is one stacked product."""
    k, d = len(left), left.shape[-1]
    y = (left @ planes).reshape(k, d, -1, d).swapaxes(1, 2).reshape(k, -1, d)
    return (y @ right).reshape(k, -1, d * d)


def _eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, U), (k, d) and (k, d, d), of H or a stack of k, each checked on its own by
    ``linalg._hamiltonian``'s relative rule, from one complex ``eigh`` of H itself."""
    return np.linalg.eigh(_hamiltonian(h)[0].reshape(-1, *np.shape(h)[-2:]))


def _kicked_evolutions(factors, eigen, t: float, blocks):
    """(P, B W R^T) per block of n, on one flat (n, H) axis: row i k + j holds n = block[i]
    and H_j of the k Hamiltonians, with the real P = (B W A)^{n-1}, so (S W)^n = A P (B W).

    ``factors`` is a read-only plan (A, B, planes, parts), S = A B, from ``_plan``: untraced for
    R = I, or traced (a dd sweep, parts None) for the bath trace R^T = T^T Q. The k
    Hamiltonians come as checked eigendata (E, U), H = U E U^dag: complex from ``_eigensystem``,
    real from a sweep's draw. W multiplies the (i, j) entry of U^dag Y U by
    phi_ij = exp(-i (t/n) (E_i - E_j)). The rows X of B and the columns Y of [A | R^T] are
    Hermitian, so B W Y is real: sum_i Z_ii Y_ii + sum_{i<j} 2 Re(conj(Z_ij phi_ji) Y_ij) with
    Z = U^dag conj(X) U and Y read as U^dag Y U = P_r + i P_i, Z = P_r - i P_i, from one stacked
    product of the real planes (Re and Im of each X and Y). So each (n, H) pair costs one
    complex product of the d(d-1)/2 phases phi_ji into 2 Z_ij and one real product of those
    r x (N - d) rows, as Re and Im, with the matching coordinates of [A | R^T]; the diagonal
    part, free of n, is formed once. I's columns are not Hermitian: the plan holds T^-1, whose
    coordinates ``parts`` (Re and Im T, ``_hermitian_coordinates``) take to I's: B W is complex.
    The phases of the whole n grid are one call; a block's first r columns, the step B W A,
    are powered once per n. ``harness.sweep`` sizes a block (``_STACK_BYTES``).
    Phases past the float range, (t/n) (E_max - E_min) not finite, raise ``ValueError``.
    """
    (_, b, planes, parts), (energies, u) = factors, eigen
    ns = [n for block in blocks for n in block]
    if min(ns) < 1:
        raise ValueError("n must be at least 1")
    span = float(np.max(energies[:, -1] - energies[:, 0]))  # the largest gap; eigh sorts E
    if not math.isfinite(abs(float(t)) / min(ns) * span):  # Python floats: no warning
        raise ValueError(f"the phases (t/n) (E_i - E_j) overflow at t={t:g}, n={min(ns)}")
    (k, d), r = energies.shape, len(b)
    i, j, kept = _hermitian_coordinates(d)[3:6]
    pairs = len(i)
    p = _sandwich(planes, dagger(u), u).take(kept, -1).reshape(k, 2, -1, len(kept))  # Re, Im
    z, y = p[:, 0, :r] - 1j * p[:, 1, :r], p[:, 0, r:] + 1j * p[:, 1, r:]
    cols = np.concatenate([y[..., :pairs].view(float), y[..., pairs:].real], -1).swapaxes(-1, -2)
    if parts is not None:  # I's columns: Re and Im of their coordinates, interleaved
        cols = np.concatenate([cols[..., :r], cols[..., r:] @ parts], -1)
    fixed = z[..., pairs:].real @ cols[:, 2 * pairs:]  # sum_i Z_ii Y_ii
    z, cols = 2 * z[..., :pairs], np.ascontiguousarray(cols[:, :2 * pairs])
    phases = np.exp(np.array([-1j * (t / n) for n in ns])[:, None, None]
                    * (energies[:, j] - energies[:, i]))
    start = 0
    for block in blocks:
        out = (z * phases[start:start + len(block), :, None]).view(float) @ cols
        out += fixed
        out = out.reshape(-1, r, out.shape[-1])
        start += len(block)
        steps = out[:, :, :r].reshape(len(block), k, r, r)
        powers = [np.linalg.matrix_power(step, n - 1) for step, n in zip(steps, block)]
        bw = out[:, :, r:] if parts is None else out[:, :, r:].view(complex)
        yield np.concatenate(powers), bw


def zeno_evolution(s_kick: Superoperator, h: np.ndarray, t: float, n: int) -> Superoperator:
    """(E e^{-i (t/n) [H,.]})^n, computed as an exact n-fold product: ``dd_evolution`` at
    d1 = 1, so A P_n (B W) from ``_kicked_evolutions`` on the rank-r factors S = A B. A
    (k, d, d) stack of Hamiltonians, each checked for Hermiticity on its own, gives the
    (k, d^2, d^2) stack of their evolutions."""
    return dd_evolution(s_kick, h, t, n, 1)


def dd_evolution(s2: Superoperator, h: np.ndarray, t: float, n: int, d1: int) -> Superoperator:
    """Bath dynamical decoupling evolution ((I_1 kron E) e^{-i (t/n) [H,.]})^n, from
    the factors of E alone, lifted by ``_plan`` (untraced, so R = I) and memoised there."""
    a, *_ = factors = _plan(s2.dim, s2.matrix.tobytes(), d1, False)[0]
    p, bw = next(_kicked_evolutions(factors, _eigensystem(h), t, [(n,)]))
    return Superoperator(d1 * s2.dim, (a @ (p @ bw)).reshape(*np.shape(h)[:-2], len(a), len(a)))


def _zeno_residual(dec: PeripheralDecomposition, h: np.ndarray, d1: int):
    """(||H_Z(K)||_F / ||H0||_F, H_eff) for H on C^d1 kron C^d, K = H0 - H_eff kron I: H is
    checked and scaled exactly to H / c by ``linalg._hamiltonian``, the rule of every H, and H0,
    its traceless part, is scaled again; 0 when H0 = 0. At d1 = 1 (suppression) the traceless
    1 x 1 H_eff is 0 and K = H0. H_Z is ``zeno_hamiltonian``'s ``_generator``."""
    _, h, c = _hamiltonian(h)
    if len(h) != d1 * dec.dim:
        raise ValueError(f"dim(H)={len(h)} does not factor as {d1}*{dec.dim}")
    h0, c0 = _unit(h - np.trace(h) / len(h) * np.eye(len(h)))
    k, h_eff = h0, np.zeros((1, 1))
    if d1 > 1:
        h_eff = np.einsum("axby,yx->ab", h0.reshape((d1, dec.dim) * 2),
                          dec.derive(fixed_point_state))
        h_eff -= np.trace(h_eff) / d1 * np.eye(d1)
        k = h0 - kron(h_eff, np.eye(dec.dim))
        with np.errstate(over="ignore"):  # an H_eff past the float range is inf: dd_check refuses it
            h_eff = h_eff * c0 * c
    h_z = _generator(dec.derive(_zeno_frame, d1), k)
    return float(np.linalg.norm(h_z) / max(np.linalg.norm(h0), 1.0)), h_eff


def suppression_check(s: Superoperator, h: np.ndarray, tol: float = DD_TOL) -> bool:
    """True when the kick nullifies the Zeno Hamiltonian of H on C^d, within tol ||H0||_F: the
    bath-DD residual at d1 = 1, so an H of another dimension raises ``ValueError``."""
    return _zeno_residual(analyze_peripheral(s), h, 1)[0] <= tol


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
