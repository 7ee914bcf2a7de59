"""Metrics, parameter sweeps, and desk-scale reproduction of the reference
decoupling/suppression curves.

Two experiment modes exist: "dd" evolves a bipartite system with the kick
applied to the bath factor and records the purity of the reduced Choi state
of the system legs; "zeno" evolves a mono-partite system and records the
trace-norm distance between the Choi states of the kicked evolution and of
the Hamiltonian-free kicked evolution E_phi^n (full suppression). When
suppression works the latter is the Zeno-limit target; when it fails, the
distance saturates at a nonzero constant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import KrausChannel, Superoperator, choi, load_channel, to_superoperator
from .hamiltonian import random_hamiltonian
from .linalg import kron, trace_norm
from .spectral import analyze_peripheral, peripheral_power
from .zeno import dd_evolution, zeno_evolution
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

FIGURE_IDS = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b")


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
    ``hamiltonians`` is either {"random": count, "seed": s, "dim": d} or
    {"fixture": name} with a named witness Hamiltonian. mode "dd" needs d1.
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
        fixture = cfg.hamiltonians.get("fixture")
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
    min/max/mean aggregate rows per n (seeds "min", "max", "mean")."""
    ch = resolve_channel(cfg.channel, cfg.channel_params)
    s = to_superoperator(ch)
    if cfg.mode == "dd":
        total_dim = cfg.d1 * ch.dim
    elif cfg.mode == "zeno":
        total_dim = ch.dim
        dec = analyze_peripheral(s)
    else:
        raise ValueError(f"unknown sweep mode {cfg.mode!r}")

    records: list[SweepRecord] = []
    per_n: dict[int, list[float]] = {n: [] for n in cfg.n_values}
    for seed, h_label, h in _hamiltonian_source(cfg, total_dim):
        for n in cfg.n_values:
            if cfg.mode == "dd":
                ev = dd_evolution(s, h, cfg.t, n, cfg.d1)
                value = reduced_choi_purity(ev, cfg.d1, ch.dim)
                metric = "purity"
            else:
                ev = zeno_evolution(s, h, cfg.t, n)
                value = choi_distance(ev, peripheral_power(dec, n))
                metric = "choi_distance"
            per_n[n].append(value)
            records.append(
                SweepRecord(n, metric, value, seed, cfg.channel, h_label, cfg.t)
            )

    metric = "purity" if cfg.mode == "dd" else "choi_distance"
    for n in cfg.n_values:
        vals = per_n[n]
        for tag, v in (("min", min(vals)), ("max", max(vals)),
                       ("mean", float(np.mean(vals)))):
            records.append(
                SweepRecord(n, metric, v, tag, cfg.channel, "aggregate", cfg.t)
            )
    records.sort(key=lambda r: (str(r.seed), r.n))
    return records


def write_records_csv(records: list[SweepRecord], path: Path) -> None:
    lines = ["n,metric,value,seed,channel,hamiltonian,t"]
    for r in records:
        lines.append(
            f"{r.n},{r.metric_name},{r.value:.12g},{r.seed},{r.channel},"
            f"{r.hamiltonian},{r.t:g}"
        )
    path.write_text("\n".join(lines) + "\n")


# --- figure reproduction -----------------------------------------------------

_N_FULL = tuple(range(1, 101))
_N_COARSE = (1, 2, 5, 10, 20, 50, 100)
_RANDOM_COUNT = 100
_BASE_SEED = 20240927


def _figure_plan(figure_id: str) -> dict:
    plans = {
        # worst-case purity of bath DD with the spin-flip kick, random H
        "fig1a": dict(
            channel="zoo:E_updown", mode="dd", d1=2, n_values=_N_COARSE,
            hamiltonians={"random": _RANDOM_COUNT, "seed": _BASE_SEED},
            series=[("random", "min")], header="n,P",
            reference={"min_purity_at_n100": 0.99},
        ),
        # worst-case Zeno error with the spin-flip kick, random H
        "fig1b": dict(
            channel="zoo:E_updown", mode="zeno", n_values=(1, 2, 5, 10, 20, 50, 100),
            hamiltonians={"random": _RANDOM_COUNT, "seed": _BASE_SEED + 1000},
            series=[("random", "max")], header="n,error",
            reference={"guide": "2.7/n"},
        ),
        # dephasing kick: fixture purity constant, random mean saturates
        "fig2a": dict(
            channel="zoo:E_dephase", mode="dd", d1=2, n_values=_N_COARSE,
            channel_params={"d": 2},
            fixture="ZZ",
            hamiltonians={"random": _RANDOM_COUNT, "seed": _BASE_SEED + 2000},
            series=[("fixture", None), ("random", "mean")], header="n,P",
            reference={"fixture_constant": 0.59, "random_limit": 0.85},
        ),
        "fig2b": dict(
            channel="zoo:E_dephase", mode="zeno", n_values=(1, 2, 5, 10, 20, 50, 100),
            channel_params={"d": 2},
            hamiltonians={"random": _RANDOM_COUNT, "seed": _BASE_SEED + 3000},
            series=[("random", "max")], header="n,error",
            reference={"guide": "2/n"},
        ),
        # bath-reset kick with a decoherence-free subsystem
        "fig3a": dict(
            channel="zoo:E_omega", mode="dd", d1=2, n_values=_N_COARSE,
            fixture="ZZI",
            hamiltonians={"random": _RANDOM_COUNT, "seed": _BASE_SEED + 4000},
            series=[("fixture", None), ("random", "mean")], header="n,P",
            reference={"fixture_constant": 0.59, "random_limit": 0.91},
        ),
        "fig3b": dict(
            channel="zoo:E_omega", mode="zeno", n_values=_N_COARSE,
            fixture="ZI",
            hamiltonians={"random": _RANDOM_COUNT, "seed": _BASE_SEED + 5000},
            series=[("fixture", None), ("random", "mean")], header="n,error",
            reference={"fixture_constant": 1.68, "random_limit": 0.55},
        ),
    }
    if figure_id not in plans:
        raise KeyError(f"unknown figure id {figure_id!r}; known: {FIGURE_IDS}")
    return plans[figure_id]


def reproduce(figure_id: str, out_dir: str | Path) -> list[Path]:
    """Recompute one reference figure's data series as CSV files plus a JSON
    sidecar with the run parameters and reference constants."""
    plan = _figure_plan(figure_id)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    written: list[Path] = []
    sidecar = {
        "figure": figure_id,
        "channel": plan["channel"],
        "t": 1.0,
        "reference": plan["reference"],
        "seed": plan["hamiltonians"].get("seed"),
        "note": "reference constants for random-H series are ensemble "
                "statistics; expect Monte-Carlo spread of about +/-0.03 "
                "at 100 samples",
        "choi_leg_order": "system-out, bath-out, system-ancilla, bath-ancilla",
    }

    for series_name, aggregate in plan["series"]:
        if series_name == "fixture":
            hams = {"fixture": plan["fixture"]}
        else:
            hams = plan["hamiltonians"]
        cfg = SweepConfig(
            channel=plan["channel"],
            mode=plan["mode"],
            n_values=tuple(plan["n_values"]),
            hamiltonians=hams,
            t=1.0,
            d1=plan.get("d1", 2),
            channel_params=plan.get("channel_params", {}),
        )
        records = sweep(cfg)
        if aggregate is None:
            rows = [r for r in records if r.hamiltonian != "aggregate"]
        else:
            rows = [r for r in records if r.seed == aggregate]
        rows.sort(key=lambda r: r.n)
        path = out / f"{figure_id}_{series_name}.csv"
        lines = [plan["header"]]
        lines += [f"{r.n},{r.value:.12g}" for r in rows]
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

    sidecar_path = out / f"{figure_id}.json"
    sidecar_path.write_text(json.dumps(sidecar, indent=1))
    written.append(sidecar_path)
    return written
