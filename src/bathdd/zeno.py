"""Kicked evolutions and the decision procedures for bath dynamical
decoupling and Zeno Hamiltonian suppression.

The Zeno Hamiltonian of a kick channel is the generator surviving infinitely
frequent kicks: the sum of the interaction generator sandwiched between the
kick's peripheral spectral projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Superoperator, extend_with_identity
from .hamiltonian import adjoint_rep, schmidt
from .linalg import assert_hermitian, expm, kron, unvec, vec
from .spectral import PeripheralDecomposition, analyze_peripheral, peripheral_power

__all__ = [
    "DdVerdict",
    "dd_check",
    "dd_evolution",
    "suppression_check",
    "target_evolution",
    "zeno_evolution",
    "zeno_hamiltonian",
]

DD_TOL = 1e-8
SUPPRESSION_TOL = 1e-8


@dataclass(frozen=True)
class DdVerdict:
    """Outcome of the bath dynamical decoupling test for one Hamiltonian.

    ``coefficients`` are the surviving weights of the system parts of the
    interaction terms (trace of each bath factor against the kick's fixed
    point); None when the kick is not ergodic, in which case they are
    undefined.
    """

    works: bool
    residual: float
    coefficients: tuple[float, ...] | None
    kick_ergodic: bool


def zeno_hamiltonian(dec: PeripheralDecomposition, h: np.ndarray) -> Superoperator:
    """sum_l P_l [H, .] P_l over the peripheral projections of the kick."""
    h_adj = adjoint_rep(h)
    if h_adj.dim != dec.dim:
        raise ValueError(f"Hamiltonian dim {h.shape[0]} does not match kick dim {dec.dim}")
    m = sum(p.matrix @ h_adj.matrix @ p.matrix for p in dec.projections)
    return Superoperator(dec.dim, m)


def zeno_evolution(s_kick: Superoperator, h: np.ndarray, t: float, n: int) -> Superoperator:
    """(E e^{-i (t/n) [H,.]})^n, computed as an exact n-fold product.

    The free step e^{-i (t/n) [H,.]} is the unitary channel of
    V = U e^{-i (t/n) W} U^dag, from one ``eigh`` H = U W U^dag of the d x d
    Hamiltonian; its superoperator is V kron conj(V), the Kraus form that
    ``to_superoperator`` uses.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    energies, u = np.linalg.eigh(assert_hermitian(h))
    v = (u * np.exp(-1j * (t / n) * energies)) @ u.conj().T
    step = s_kick.matrix @ kron(v, v.conj())
    return Superoperator(s_kick.dim, np.linalg.matrix_power(step, n))


def dd_evolution(
    s2: Superoperator, h: np.ndarray, t: float, n: int, d1: int
) -> Superoperator:
    """Bath dynamical decoupling evolution ((I_1 kron E) e^{-i (t/n) [H,.]})^n."""
    return zeno_evolution(extend_with_identity(s2, d1), h, t, n)


def target_evolution(
    dec: PeripheralDecomposition, h_z: Superoperator, t: float, n: int
) -> Superoperator:
    """Zeno-limit target E_phi^n e^{-i t H_Z}."""
    return Superoperator(
        dec.dim, peripheral_power(dec, n).matrix @ expm(-1j * t * h_z.matrix)
    )


def suppression_check(
    s: Superoperator, h: np.ndarray, tol: float = SUPPRESSION_TOL
) -> bool:
    """True when the kick nullifies the Zeno Hamiltonian of H."""
    dec = analyze_peripheral(s)
    return float(np.linalg.norm(zeno_hamiltonian(dec, h).matrix)) <= tol


def _reference_state(dec: PeripheralDecomposition) -> np.ndarray:
    """The invariant state P_1(I/d) reached from the maximally mixed input:
    the fixed-point state of an ergodic kick; for degenerate fixed spaces
    only a reference (coefficients are then not uniquely defined)."""
    d = dec.dim
    p1 = dec.projections[0].matrix
    rho = unvec(p1 @ vec(np.eye(d) / d), d)
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho)


def dd_check(
    s2: Superoperator, h: np.ndarray, d1: int, tol: float = DD_TOL
) -> DdVerdict:
    """Decide whether bath dynamical decoupling with kick E_2 works for H.

    Compares the Zeno Hamiltonian of the extended kick I_1 kron E_2 with the
    predicted decoupled generator [(H_1 + sum_i c_i h1_i) kron I_2, .], after
    right-composing both with I_1 kron P_phi: the Zeno limit only constrains
    the generator on the range of the peripheral projection.

    Only E_2 is analysed. The peripheral projections of I_1 kron E_2 are the
    lifts I_1 kron P_l of the bath kick's projections P_l, and P_phi is their
    sum, so both come from the one bath decomposition.
    """
    d2 = s2.dim
    if h.shape[0] != d1 * d2:
        raise ValueError(f"dim(H)={h.shape[0]} does not factor as {d1}*{d2}")
    dec2 = analyze_peripheral(s2)
    lifted = [extend_with_identity(p, d1).matrix for p in dec2.projections]
    h_adj = adjoint_rep(h).matrix
    h_z = sum(p @ h_adj @ p for p in lifted)

    sd = schmidt(h, d1, d2)
    ergodic = dec2.dim_fixed == 1
    rho = _reference_state(dec2)
    coeffs = tuple(float(np.real(np.trace(h2_i @ rho))) for _, h2_i in sd.terms)

    h_eff = sd.h1 + sum(c * h1_i for c, (h1_i, _) in zip(coeffs, sd.terms))
    g = adjoint_rep(kron(h_eff, np.eye(d2)))
    p_phi_ext = sum(lifted)

    residual = float(np.linalg.norm(h_z - g.matrix @ p_phi_ext))
    return DdVerdict(
        works=residual <= tol,
        residual=residual,
        coefficients=coeffs if ergodic else None,
        kick_ergodic=ergodic,
    )
