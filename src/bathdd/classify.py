"""Channel classification: ergodic / mixing / irreducible / DFS-free, plus
the cycle lengths of a DFS-free kick.

Every verdict is read from one peripheral decomposition at one tolerance. A
kick has no decoherence-free subsystem exactly when its Zeno limit
suppresses every Hamiltonian, so DFS-freeness is decided by that criterion:
within each peripheral cluster, every right eigenoperator commutes with the
adjoint of every left eigenoperator. A DFS-free kick only permutes the blocks
of its asymptotic space, so its peripheral spectrum is exactly a union of
full groups of roots of unity, one per cycle; the cycle lengths are read off
that spectrum exactly, with no second tolerance.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .channel import Superoperator
from .spectral import (
    PERIPHERAL_TOL,
    PeripheralDecomposition,
    SpectralError,
    analyze_peripheral,
    fixed_point_state,
)
from .zeno import _zeno_frame

__all__ = ["Classification", "classify"]

COMMUTE_TOL = 1e-8
RANK_TOL = 1e-10


@dataclass(frozen=True)
class Classification:
    name: str
    dim_fixed: int
    dim_recurrent: int
    ergodic: bool
    mixing: bool
    irreducible: bool
    dfs_free: bool
    cycle_lengths: tuple[int, ...] = ()
    # derived from cycle_lengths: at most one cycle, so eigenvalue 1 is
    # simple; the spectrum determines the cycle lengths either way
    cycles_unique: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cycles_unique", len(self.cycle_lengths) <= 1)

    def to_record(self) -> dict:
        return {**asdict(self), "cycle_lengths": list(self.cycle_lengths)}


def _is_dfs_free(dec: PeripheralDecomposition) -> bool:
    """True when the kick's Zeno limit suppresses every Hamiltonian.

    Within a cluster, with P_l = sum_a |X_a><L_a| over the right and left
    eigenoperators, the Zeno generator P_l [H, .] P_l has the entries
    <L_a, [H, X_b]> = tr(H [X_b, L_a^dag]). It vanishes for every H exactly
    when each X_b commutes with each L_a^dag of the same cluster, and the
    kick has no decoherence-free subsystem exactly when that holds on every
    cluster. X_b, ``left`` and the same-cluster mask are the verdicts' frame at
    d1 = 1 (``zeno._zeno_frame``); L_a^dag is row a of ``left``, d x d, transposed.
    """
    x, left, mask = dec.derive(_zeno_frame, 1)
    a, b = np.nonzero(mask)
    x, l_dag = x[b], left.reshape(-1, dec.dim, dec.dim)[a].swapaxes(-1, -2)
    return bool(np.max(np.linalg.norm(x @ l_dag - l_dag @ x, axis=(-2, -1))) <= COMMUTE_TOL)


def _cycle_lengths(dec: PeripheralDecomposition) -> tuple[int, ...]:
    """Cycle lengths of a DFS-free kick, read exactly from its peripheral spectrum.

    Such a kick permutes the blocks of its asymptotic space, so its peripheral
    spectrum is the union of the L-th roots of unity over its cycles of length
    L <= dim_recurrent. Each value, with its multiplicity, is rounded to the
    nearest fraction j/q of a turn with q <= dim_recurrent, counted in whole
    1/lcm(1, ..., dim_recurrent) turns; such fractions lie at least
    1/dim_recurrent^2 of a turn apart, so this rounding is no threshold. The
    root e^{2 pi i/q} occurs once per cycle whose length q divides, which peels
    off the cycle counts from the longest length down. The roots rebuilt from
    those lengths must equal the rounded spectrum, so no count is negative.
    """
    q_max = dec.dim_recurrent
    grid = math.lcm(*range(1, q_max + 1))
    turns = Counter()
    for lam, mult in zip(dec.peripheral_values, dec.multiplicities):
        x = cmath.phase(lam) / (2 * math.pi)
        q = min(range(1, q_max + 1), key=lambda q: abs(x * q - round(x * q)) / q)
        turns[round(x * q) * (grid // q) % grid] += int(mult)
    count = {}
    for q in range(q_max, 0, -1):
        count[q] = turns[grid // q % grid] - sum(count[k * q] for k in range(2, q_max // q + 1))
    lengths = tuple(q for q in range(q_max, 0, -1) for _ in range(count[q]))
    if Counter(j * (grid // q) for q in lengths for j in range(q)) != turns:
        raise SpectralError("peripheral spectrum is no union of full root-of-unity groups "
                            f"(in 1/{grid} turns: {sorted(turns.elements())})")
    return lengths


def _profile(dec: PeripheralDecomposition) -> tuple:
    """Every ``Classification`` field but the name, in field order: a function of the
    decomposition alone, so ``classify`` derives it once per decomposition."""
    ergodic = dec.dim_fixed == 1
    irreducible = ergodic and bool(np.linalg.eigvalsh(dec.derive(fixed_point_state))[0] > RANK_TOL)
    dfs_free = _is_dfs_free(dec)
    return (dec.dim_fixed, dec.dim_recurrent, ergodic, dec.dim_recurrent == 1, irreducible,
            dfs_free, _cycle_lengths(dec) if dfs_free else ())


def classify(s: Superoperator, name: str = "", tol: float = PERIPHERAL_TOL) -> Classification:
    """Decide the spectral profile of a CPTP superoperator: the profile is derived once per
    memoised decomposition (``PeripheralDecomposition.derive``), so a kick already classified
    at this tolerance costs only its name."""
    return Classification(name, *analyze_peripheral(s, tol).derive(_profile))
