"""Channel classification: ergodic / mixing / irreducible / DFS-free, plus
cycle structure of the peripheral spectrum.

A decoherence-free subsystem shows up as a non-commutative block in the space
of recurrences, so DFS-freeness is decided by pairwise commutativity of a
Hermitized recurrent basis instead of reconstructing the block decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import Superoperator
from .spectral import (
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
ROOT_TOL = 1e-8


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
        return {
            "name": self.name,
            "dim_fixed": self.dim_fixed,
            "dim_recurrent": self.dim_recurrent,
            "ergodic": self.ergodic,
            "mixing": self.mixing,
            "irreducible": self.irreducible,
            "dfs_free": self.dfs_free,
            "cycle_lengths": list(self.cycle_lengths),
            "cycles_unique": self.cycles_unique,
        }


@dataclass(frozen=True)
class CycleStructure:
    lengths: tuple[int, ...]
    unique: bool


def _is_commutative(basis) -> bool:
    ops = list(basis)
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            comm = ops[i] @ ops[j] - ops[j] @ ops[i]
            if np.linalg.norm(comm) > COMMUTE_TOL:
                return False
    return True


def _peripheral_multiset(dec: PeripheralDecomposition) -> list[complex]:
    values: list[complex] = []
    for lam, mult in zip(dec.peripheral_values, dec.multiplicities):
        values.extend([complex(lam)] * int(mult))
    return values


def _extract_cycles(values: list[complex], tol: float = ROOT_TOL) -> tuple[int, ...]:
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
    s: Superoperator | PeripheralDecomposition, tol: float = ROOT_TOL
) -> CycleStructure:
    """Cycle lengths of a DFS-free channel, recovered from its spectrum.

    For multi-cycle spectra the decomposition is not always unique from the
    spectrum alone; ``unique`` is False whenever a peripheral eigenvalue is
    degenerate, since then alternative groupings can exist.
    """
    dec = s if isinstance(s, PeripheralDecomposition) else analyze_peripheral(s)
    values = _peripheral_multiset(dec)
    lengths = _extract_cycles(values, tol)
    unique = all(int(m) == 1 for m in dec.multiplicities)
    return CycleStructure(lengths=lengths, unique=unique)


def classify(
    s: Superoperator, name: str = "", tol: float = 1e-8
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

    dfs_free = ergodic or _is_commutative(dec.recurrent_basis)

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
