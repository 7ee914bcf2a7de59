"""Metrics, parameter sweeps, and desk-scale reproduction of the reference
decoupling/suppression curves.

Every curve is one ``zeno_evolution`` per (H, n), scored in one of two modes:
"dd" kicks the bath factor of a bipartite system with I_1 kron E_2 (lifted once
per sweep) and records the purity of the reduced Choi state of the system
legs; "zeno" kicks a mono-partite system with E and records the trace-norm
distance between the Choi states of the kicked evolution and of the
Hamiltonian-free kicked evolution E_phi^n (full suppression). When
suppression works the latter is the Zeno-limit target; when it fails, the
distance saturates at a nonzero constant. ``FIGURES`` holds each reference
panel as a ``SweepConfig`` row, which ``reproduce`` runs through ``sweep``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .channel import (KrausChannel, Superoperator, choi, extend_with_identity, load_channel,
                      to_superoperator)
from .hamiltonian import random_hamiltonian
from .linalg import kron, trace_norm
from .spectral import analyze_peripheral, peripheral_power
from .zeno import zeno_evolution
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


def reduced_choi_purity(s: Superoperator, d1: int, d2: int) -> float:
    """Purity of the system-legs reduction of the Choi state of ``s``.

    Both the bath output leg and the bath ancilla leg are traced out; the
    system output/ancilla pair is kept.
    """
    if s.dim != d1 * d2:
        raise ValueError(f"superoperator dim {s.dim} does not factor as {d1}*{d2}")
    lam = choi(s).matrix
    r = lam.reshape(d1, d2, d1, d2, d1, d2, d1, d2)
    lam1 = np.einsum("aibjcidj->abcd", r)
    return float(np.real(np.sum(lam1 * lam1.conj())))


def choi_distance(s_a: Superoperator, s_b: Superoperator) -> float:
    """Trace-norm distance between the Choi states of two maps."""
    if s_a.dim != s_b.dim:
        raise ValueError("dimension mismatch")
    return trace_norm(choi(s_a).matrix - choi(s_b).matrix)


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
        known = {"channel", "mode", "n_values", "hamiltonians", "t", "d1",
                 "channel_params"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown sweep config keys: {sorted(extra)}")
        cfg = SweepConfig(
            channel=data["channel"],
            mode=data["mode"],
            n_values=tuple(int(n) for n in data["n_values"]),
            hamiltonians=dict(data["hamiltonians"]),
            t=float(data.get("t", 1.0)),
            d1=int(data.get("d1", 2)),
            channel_params=dict(data.get("channel_params", {})),
        )
        if cfg.mode not in ("dd", "zeno"):
            raise ValueError(f"unknown sweep mode {cfg.mode!r}")
        if min(cfg.n_values, default=0) < 1 or cfg.d1 < 1:
            raise ValueError("n_values must be non-empty; n and d1 must be positive")
        if not np.isfinite(cfg.t):
            raise ValueError(f"t must be finite, got {cfg.t}")
        fixture = cfg.hamiltonians.get("fixture")
        allowed = {"random", "seed"} if fixture is None else {"fixture"}
        extra = set(cfg.hamiltonians) - allowed
        if extra:
            raise ValueError(
                f"unknown hamiltonians keys {sorted(extra)}; known: {sorted(allowed)}")
        if fixture is not None and fixture not in FIXTURE_HAMILTONIANS:
            raise ValueError(f"unknown fixture {fixture!r}; known: {sorted(FIXTURE_HAMILTONIANS)}")
        if int(cfg.hamiltonians.get("random", 1)) < 1:
            raise ValueError("the random Hamiltonian count must be positive")
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


def _hamiltonian_source(cfg: SweepConfig, total_dim: int):
    src = cfg.hamiltonians
    if "fixture" in src:
        name = src["fixture"]
        h = FIXTURE_HAMILTONIANS[name]
        if h.shape[0] != total_dim:
            raise ValueError(
                f"fixture {name} has dim {h.shape[0]}, expected {total_dim}"
            )
        yield name, name, h
    else:
        count = int(src.get("random", 100))
        seed = int(src.get("seed", 0))
        for i in range(count):
            yield seed + i, "random", random_hamiltonian(total_dim, seed + i)


def sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evaluate the configured metric on every (Hamiltonian, n) pair, plus
    min/max/mean aggregate rows per n (seeds "min", "max", "mean"). The kick
    and the metric are fixed once, before the loop over the pairs."""
    ch = resolve_channel(cfg.channel, cfg.channel_params)
    s = to_superoperator(ch)
    if cfg.mode == "dd":
        kick, metric = extend_with_identity(s, cfg.d1), "purity"
        score = lambda ev, n: reduced_choi_purity(ev, cfg.d1, ch.dim)
    elif cfg.mode == "zeno":
        dec = analyze_peripheral(s)
        targets = {n: peripheral_power(dec, n) for n in cfg.n_values}
        kick, metric = s, "choi_distance"
        score = lambda ev, n: choi_distance(ev, targets[n])
    else:
        raise ValueError(f"unknown sweep mode {cfg.mode!r}")

    records: list[SweepRecord] = []
    per_n: dict[int, list[float]] = {n: [] for n in cfg.n_values}
    for seed, h_label, h in _hamiltonian_source(cfg, kick.dim):
        for n in cfg.n_values:
            value = score(zeno_evolution(kick, h, cfg.t, n), n)
            per_n[n].append(value)
            records.append(
                SweepRecord(n, metric, value, seed, cfg.channel, h_label, cfg.t)
            )

    for n in cfg.n_values:
        vals = per_n[n]
        for tag, v in (("min", min(vals)), ("max", max(vals)),
                       ("mean", float(np.mean(vals)))):
            records.append(
                SweepRecord(n, metric, v, tag, cfg.channel, "aggregate", cfg.t)
            )
    records.sort(key=lambda r: (str(r.seed), r.n))
    return records


def _write_csv(path: Path, header: str, rows) -> None:
    path.write_text("\n".join([header, *rows]) + "\n")


def write_records_csv(records: list[SweepRecord], path: Path) -> None:
    _write_csv(path, "n,metric,value,seed,channel,hamiltonian,t", (
        f"{r.n},{r.metric_name},{r.value:.12g},{r.seed},{r.channel},"
        f"{r.hamiltonian},{r.t:g}"
        for r in records
    ))


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
    sidecar_path = out / f"{figure_id}.json"
    sidecar_path.write_text(json.dumps(sidecar, indent=1))
    written.append(sidecar_path)
    return written
