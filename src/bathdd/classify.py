"""Channel classification: ergodic / mixing / irreducible / DFS-free, plus
cycle structure of the peripheral spectrum.

Every verdict is read from one peripheral decomposition at one tolerance. A
kick has no decoherence-free subsystem exactly when its Zeno limit
suppresses every Hamiltonian, so DFS-freeness is decided by that criterion:
within each peripheral cluster, every right eigenoperator commutes with the
adjoint of every left eigenoperator.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .channel import Superoperator
from .linalg import dagger
from .spectral import (
    PERIPHERAL_TOL,
    PeripheralDecomposition,
    SpectralError,
    analyze_peripheral,
    fixed_point_state,
)

__all__ = [
    "Classification",
    "CycleStructure",
    "classify",
    "cycle_structure",
]

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
    cycles_unique: bool = True

    def to_record(self) -> dict:
        return {**asdict(self), "cycle_lengths": list(self.cycle_lengths)}


@dataclass(frozen=True)
class CycleStructure:
    lengths: tuple[int, ...]
    unique: bool


def _is_dfs_free(dec: PeripheralDecomposition) -> bool:
    """True when the kick's Zeno limit suppresses every Hamiltonian.

    Within cluster l, with P_l = sum_a |X_a><L_a| over the right and left
    eigenoperators, the Zeno generator P_l [H, .] P_l has the entries
    <L_a, [H, X_b]> = tr(H [X_b, L_a^dag]). It vanishes for every H exactly
    when each X_b commutes with each L_a^dag of the same cluster, and the
    kick has no decoherence-free subsystem exactly when that holds on every
    cluster.
    """
    return all(
        np.linalg.norm(x @ l_dag - l_dag @ x) <= COMMUTE_TOL
        for xs, ls in zip(dec.right_ops, dec.left_ops)
        for l_dag in map(dagger, ls)
        for x in xs
    )


def _peripheral_multiset(dec: PeripheralDecomposition) -> list[complex]:
    values: list[complex] = []
    for lam, mult in zip(dec.peripheral_values, dec.multiplicities):
        values.extend([complex(lam)] * int(mult))
    return values


def _extract_cycles(values: list[complex], tol: float) -> tuple[int, ...]:
    """Greedy largest-K-first matching of the spectrum to root-of-unity groups."""
    remaining = list(values)
    lengths: list[int] = []
    while remaining:
        matched = None
        for k in range(len(remaining), 0, -1):
            roots = [np.exp(2j * np.pi * m / k) for m in range(k)]
            pool = list(remaining)
            picks = []
            ok = True
            for r in roots:
                dists = [abs(v - r) for v in pool]
                best = int(np.argmin(dists)) if pool else None
                if best is None or dists[best] > tol:
                    ok = False
                    break
                picks.append(pool.pop(best))
            if ok:
                matched = (k, pool)
                break
        if matched is None:
            raise SpectralError(
                "peripheral spectrum cannot be matched to root-of-unity groups; "
                "misclassification or tolerance issue"
            )
        lengths.append(matched[0])
        remaining = matched[1]
    return tuple(sorted(lengths, reverse=True))


def cycle_structure(
    s: Superoperator | PeripheralDecomposition, tol: float = PERIPHERAL_TOL
) -> CycleStructure:
    """Cycle lengths of a DFS-free channel, recovered from its spectrum.

    A superoperator is analysed at ``tol``, and the peripheral values are
    matched to roots of unity within the same ``tol``. For multi-cycle
    spectra the decomposition is not always unique from the spectrum alone;
    ``unique`` is False whenever a peripheral eigenvalue is degenerate, since
    then alternative groupings can exist.
    """
    dec = s if isinstance(s, PeripheralDecomposition) else analyze_peripheral(s, tol)
    values = _peripheral_multiset(dec)
    lengths = _extract_cycles(values, tol)
    unique = all(int(m) == 1 for m in dec.multiplicities)
    return CycleStructure(lengths=lengths, unique=unique)


def classify(
    s: Superoperator, name: str = "", tol: float = PERIPHERAL_TOL
) -> Classification:
    """Decide the spectral profile of a CPTP superoperator."""
    dec = analyze_peripheral(s, tol)
    dim_fixed = dec.dim_fixed
    dim_recurrent = dec.dim_recurrent
    ergodic = dim_fixed == 1
    mixing = dim_recurrent == 1

    irreducible = False
    if ergodic:
        rho = fixed_point_state(dec)
        irreducible = bool(np.min(np.linalg.eigvalsh(rho)) > RANK_TOL)

    dfs_free = _is_dfs_free(dec)

    cycle_lengths: tuple[int, ...] = ()
    cycles_unique = True
    if dfs_free:
        cycles = cycle_structure(dec, tol)
        cycle_lengths = cycles.lengths
        cycles_unique = cycles.unique

    return Classification(
        name=name,
        dim_fixed=dim_fixed,
        dim_recurrent=dim_recurrent,
        ergodic=ergodic,
        mixing=mixing,
        irreducible=irreducible,
        dfs_free=dfs_free,
        cycle_lengths=cycle_lengths,
        cycles_unique=cycles_unique,
    )
