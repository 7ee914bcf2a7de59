"""Metrics, parameter sweeps, and desk-scale reproduction of the reference
decoupling/suppression curves.

Every curve is the kicked evolution of ``zeno_evolution`` on chunks of the
stacked Hamiltonian ensemble: with the kick factored once per sweep as S = A B,
each n costs one small power for the core C_n of (S W)^n = A C_n. Mode "dd"
kicks the bath of a bipartite system with I_1 kron E_2 and records the purity
of the system legs of the Choi state, from the bath-traced factors of A and
C_n; mode "zeno" kicks with E and records the trace-norm distance between the
Choi states of A C_n and of E_phi^n (full suppression), which saturates at a
nonzero constant when suppression fails. ``FIGURES`` holds each reference
panel as a ``SweepConfig`` row, which ``reproduce`` runs through ``sweep``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .channel import (KrausChannel, Superoperator, _integer, _real, choi, extend_with_identity,
                      load_channel, to_superoperator)
from .hamiltonian import random_hamiltonian
from .linalg import kron, trace_norm
from .spectral import analyze_peripheral, peripheral_power
from .zeno import _factor_kick, _kicked_evolutions
from .zoo import builtin, pauli

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "choi_distance",
    "reduced_choi_purity",
    "reproduce",
    "resolve_channel",
    "sweep",
]


def _trace_bath(m: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """T m: rows (a x, c x) summed over the bath index x into the d1^2 rows (a, c)."""
    m = m.reshape(*m.shape[:-2], d1, d2, d1, d2, m.shape[-1])
    return np.einsum("...axcxk->...ack", m).reshape(*m.shape[:-5], d1 * d1, m.shape[-1])


def _reduced_purity(rows: np.ndarray, cols: np.ndarray, d: int) -> float | np.ndarray:
    """Sum |lambda|^2 of the reduced Choi matrix (T A)(T C^T)^T / d of S = A C."""
    lam = rows @ cols.swapaxes(-1, -2)
    return np.real(np.sum(lam * lam.conj(), axis=(-2, -1))) / d**2


def reduced_choi_purity(s: Superoperator, d1: int, d2: int) -> float | np.ndarray:
    """Purity of the system-legs reduction of the Choi state of ``s`` (per map of a stack).

    Both the bath output leg and the bath ancilla leg are traced out; the
    system output/ancilla pair is kept, as T S T^T / d with no Choi state:
    lambda[(a, c), (b, d)] = sum_{x, y} S[(a x, c x), (b y, d y)] / d."""
    if s.dim != d1 * d2:
        raise ValueError(f"superoperator dim {s.dim} does not factor as {d1}*{d2}")
    t = _trace_bath(np.eye(s.dim**2), d1, d2)
    return _reduced_purity(_trace_bath(s.matrix, d1, d2), t, s.dim)


def choi_distance(s_a: Superoperator, s_b: Superoperator) -> float | np.ndarray:
    """Trace-norm distance between the Choi states of two maps (per map of a stack)."""
    if s_a.dim != s_b.dim:
        raise ValueError("dimension mismatch")
    return trace_norm(choi(s_a) - choi(s_b))


# --- sweeps ------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRecord:
    n: int
    metric_name: str  # "purity" | "choi_distance"
    value: float
    seed: int | str
    channel: str
    hamiltonian: str
    t: float


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a kick channel, a Hamiltonian source, and a list of n.

    ``channel`` is a zoo name ("zoo:E_updown") or a channel JSON file path.
    ``hamiltonians`` is either {"random": count, "seed": s} (count 100 and
    seed 0 by default) or {"fixture": name} with a named witness Hamiltonian;
    their dimension is the channel's, times d1 in mode "dd".
    """

    channel: str
    mode: str  # "dd" | "zeno"
    n_values: tuple[int, ...]
    hamiltonians: dict
    t: float = 1.0
    d1: int = 2
    channel_params: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(data: dict) -> "SweepConfig":
        if not isinstance(data, dict):
            raise ValueError(f"a sweep config is a JSON object, got {type(data).__name__}")
        extra = set(data) - {f.name for f in fields(SweepConfig)}
        if extra:
            raise ValueError(f"unknown sweep config keys: {sorted(extra)}")
        cfg = SweepConfig(
            channel=data["channel"],
            mode=data["mode"],
            n_values=tuple(_integer(n, "every n in n_values") for n in data["n_values"]),
            hamiltonians=dict(data["hamiltonians"]),
            t=_real(data.get("t", 1.0), "t"),
            d1=_integer(data.get("d1", 2), "d1"),
            channel_params=dict(data.get("channel_params", {})),
        )
        if cfg.mode not in ("dd", "zeno"):
            raise ValueError(f"unknown sweep mode {cfg.mode!r}")
        if min(cfg.n_values, default=0) < 1 or cfg.d1 < 1:
            raise ValueError("n_values must be non-empty; n and d1 must be positive")
        if len(set(cfg.n_values)) < len(cfg.n_values):
            raise ValueError(f"n_values repeats an n: {list(cfg.n_values)}")
        if not np.isfinite(cfg.t):
            raise ValueError(f"t must be finite, got {cfg.t}")
        fixture = cfg.hamiltonians.get("fixture")
        known = {"random", "seed"} if fixture is None else {"fixture"}
        extra = set(cfg.hamiltonians) - known
        if extra:
            raise ValueError(f"unknown hamiltonians keys {sorted(extra)}; known: {sorted(known)}")
        if fixture is not None and fixture not in FIXTURE_HAMILTONIANS:
            raise ValueError(f"unknown fixture {fixture!r}; known: {sorted(FIXTURE_HAMILTONIANS)}")
        if _integer(cfg.hamiltonians.get("random", 1), "the random Hamiltonian count") < 1:
            raise ValueError("the random Hamiltonian count must be positive")
        _integer(cfg.hamiltonians.get("seed", 0), "the Hamiltonian seed")
        return cfg


FIXTURE_HAMILTONIANS = {
    "ZZ": kron(pauli("z"), pauli("z")),
    "ZI": kron(pauli("z"), np.eye(2)),
    "ZZI": kron(kron(pauli("z"), pauli("z")), np.eye(2)),
}


def resolve_channel(spec: str, params: dict | None = None) -> KrausChannel:
    """Resolve "zoo:NAME" or a JSON file path to a Kraus channel."""
    if spec.startswith("zoo:"):
        return builtin(spec[4:], **(params or {})).channel
    return load_channel(spec)


# A chunk holds at most _STACK Hamiltonians and _STACK_BYTES per stacked d^2 x d^2 array:
# memory is flat in the count, and at 64x64 chunks of 4-8 ran 1.5x faster per H than 32.
_STACK, _STACK_BYTES = 32, 1 << 18


def _hamiltonian_chunks(cfg: SweepConfig, total_dim: int):
    """(labels, series name, (k, d, d) stack) chunks of the sweep's Hamiltonians."""
    src = cfg.hamiltonians
    if "fixture" in src:
        name = src["fixture"]
        h = FIXTURE_HAMILTONIANS[name]
        if h.shape[0] != total_dim:
            raise ValueError(f"fixture {name} has dim {h.shape[0]}, expected {total_dim}")
        yield [name], name, h[None]
        return
    seed, count = int(src.get("seed", 0)), int(src.get("random", 100))
    size = max(1, min(_STACK, _STACK_BYTES // (16 * total_dim**4)))
    for first in range(seed, seed + count, size):
        seeds = range(first, min(first + size, seed + count))
        yield seeds, "random", np.array([random_hamiltonian(total_dim, s) for s in seeds])


def sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evaluate the configured metric on every (Hamiltonian, n) pair, plus
    min/max/mean aggregate rows per n (seeds "min", "max", "mean"). The kick
    is factored once as S = A B, and each chunk of Hamiltonians is checked and
    diagonalised once. Per n, the stacked core C_n of ``_kicked_evolutions``
    gives the purity of (T A)(T C_n^T)^T / d ("dd") or the Choi distance of A C_n."""
    ch = resolve_channel(cfg.channel, cfg.channel_params)
    s = to_superoperator(ch)
    if cfg.mode == "dd":
        kick, metric = extend_with_identity(s, cfg.d1), "purity"
        a, b = _factor_kick(kick)
        rows = _trace_bath(a, cfg.d1, ch.dim)
        score = lambda c, n: _reduced_purity(
            rows, _trace_bath(c.swapaxes(-1, -2), cfg.d1, ch.dim), kick.dim)
    elif cfg.mode == "zeno":
        dec, kick, metric = analyze_peripheral(s), s, "choi_distance"
        targets = {n: peripheral_power(dec, n) for n in cfg.n_values}
        a, b = _factor_kick(kick)
        score = lambda c, n: choi_distance(Superoperator(kick.dim, a @ c), targets[n])
    else:
        raise ValueError(f"unknown sweep mode {cfg.mode!r}")

    records: list[SweepRecord] = []
    per_n: dict[int, list[float]] = {n: [] for n in cfg.n_values}
    for seeds, h_label, hs in _hamiltonian_chunks(cfg, kick.dim):
        for n, c in zip(cfg.n_values, _kicked_evolutions((a, b), hs, cfg.t, cfg.n_values)):
            values = score(c, n).tolist()
            per_n[n] += values
            records += (SweepRecord(n, metric, v, seed, cfg.channel, h_label, cfg.t)
                        for seed, v in zip(seeds, values))

    for n in cfg.n_values:
        vals = per_n[n]
        for tag, v in (("min", min(vals)), ("max", max(vals)), ("mean", float(np.mean(vals)))):
            records.append(SweepRecord(n, metric, v, tag, cfg.channel, "aggregate", cfg.t))
    records.sort(key=lambda r: (str(r.seed), r.n))
    return records


def _write_csv(path: Path, header: str, rows) -> None:
    path.write_text("\n".join([header, *rows]) + "\n")


def write_records_csv(records: list[SweepRecord], path: Path) -> None:
    _write_csv(path, "n,metric,value,seed,channel,hamiltonian,t", (
        f"{r.n},{r.metric_name},{r.value:.12g},{r.seed},{r.channel},{r.hamiltonian},{r.t:g}"
        for r in records))


# --- figure reproduction -----------------------------------------------------


@dataclass(frozen=True)
class _Figure:
    """A reference panel: the random-H sweep and the aggregate row plotted from
    it, an optional witness-Hamiltonian (fixture) series, the CSV header and
    the reference constants."""

    config: SweepConfig
    aggregate: str  # "min" | "max" | "mean"
    fixture: str | None
    header: str
    reference: dict


def _random_sweep(channel: str, mode: str, seed_offset: int, **channel_params) -> SweepConfig:
    return SweepConfig(channel, mode, (1, 2, 5, 10, 20, 50, 100),
                       {"random": 100, "seed": 20240927 + seed_offset},
                       channel_params=channel_params)


FIGURES = {
    # worst-case purity of bath DD with the spin-flip kick, random H
    "fig1a": _Figure(_random_sweep("zoo:E_updown", "dd", 0), "min", None, "n,P",
                     {"min_purity_at_n100": 0.99}),
    # worst-case Zeno error with the spin-flip kick, random H
    "fig1b": _Figure(_random_sweep("zoo:E_updown", "zeno", 1000), "max", None, "n,error",
                     {"guide": "2.7/n"}),
    # dephasing kick: fixture purity constant, random mean saturates
    "fig2a": _Figure(_random_sweep("zoo:E_dephase", "dd", 2000, d=2), "mean", "ZZ", "n,P",
                     {"fixture_constant": 0.59, "random_limit": 0.85}),
    "fig2b": _Figure(_random_sweep("zoo:E_dephase", "zeno", 3000, d=2), "max", None, "n,error",
                     {"guide": "2/n"}),
    # bath-reset kick with a decoherence-free subsystem
    "fig3a": _Figure(_random_sweep("zoo:E_omega", "dd", 4000), "mean", "ZZI", "n,P",
                     {"fixture_constant": 0.59, "random_limit": 0.91}),
    "fig3b": _Figure(_random_sweep("zoo:E_omega", "zeno", 5000), "mean", "ZI", "n,error",
                     {"fixture_constant": 1.68, "random_limit": 0.55}),
}
FIGURE_IDS = tuple(FIGURES)


def reproduce(figure_id: str, out_dir: str | Path) -> list[Path]:
    """Recompute one reference figure's data series as CSV files plus a JSON
    sidecar with the run parameters and reference constants.

    Each series is one ``sweep``: the fixture series keeps the witness
    Hamiltonian's rows, the random series the figure's aggregate rows.
    """
    if figure_id not in FIGURES:
        raise KeyError(f"unknown figure id {figure_id!r}; known: {FIGURE_IDS}")
    fig = FIGURES[figure_id]
    cfg = fig.config
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    series = [("random", cfg, fig.aggregate)]
    if fig.fixture is not None:
        series.insert(0, ("fixture", replace(cfg, hamiltonians={"fixture": fig.fixture}),
                          fig.fixture))
    written: list[Path] = []
    for name, series_cfg, tag in series:
        path = out / f"{figure_id}_{name}.csv"
        rows = (f"{r.n},{r.value:.12g}" for r in sweep(series_cfg) if r.seed == tag)
        _write_csv(path, fig.header, rows)
        written.append(path)

    sidecar = {
        "figure": figure_id,
        "channel": cfg.channel,
        "t": cfg.t,
        "reference": fig.reference,
        "seed": cfg.hamiltonians["seed"],
        "note": "reference constants for random-H series are ensemble "
                "statistics; expect Monte-Carlo spread of about +/-0.03 "
                "at 100 samples",
        "choi_leg_order": "system-out, bath-out, system-ancilla, bath-ancilla",
    }
    written.append(out / f"{figure_id}.json")
    written[-1].write_text(json.dumps(sidecar, indent=1))
    return written
