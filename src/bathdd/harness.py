"""Metrics, parameter sweeps, and desk-scale reproduction of the reference
decoupling/suppression curves.

Every curve is the kicked evolution (S W)^n = A P_n (B W) of ``zeno._kicked_evolutions``
on chunks of the stacked Hamiltonian ensemble: the kick's factors S = A B come from
``zeno._factor_kick``, the one per-process memo that also serves ``zeno_evolution`` and
``dd_evolution``, and each n costs one small real power P_n = (B W A)^{n-1}. What no
Hamiltonian enters is planned once per process: a zoo kick's superoperator bytes
(``_zoo_kick``, keyed by the spec and the exact params) and, per (kick bytes, mode, d1, n
grid), the factors with the bath-traced rows or the targets (``_plan``), both bounded at
``spectral._CACHE_SIZE`` entries and read-only; a channel file is read on every sweep.
Chunks and their blocks of n, each block one stacked step, are sized so that no stacked
array passes 64 KiB (``_STACK_BYTES``), and each score call takes as many blocks as keep
its stacks within that bound. Mode "dd" kicks the bath of a bipartite system with
I_1 kron E_2, the lift of E_2's own factors, and records the purity of the system legs of
the Choi state from the bath-traced A and B W; mode "zeno" kicks with E and records the
trace-norm distance between the Choi states of A P_n (B W) and of E_phi^n (full
suppression), which saturates at a nonzero constant when suppression fails. ``FIGURES``
holds each reference panel as a ``SweepConfig`` row, which ``reproduce`` runs through
``sweep``.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .channel import (KrausChannel, Superoperator, _integer, _real, choi, load_channel,
                      to_superoperator)
from .hamiltonian import _random_hamiltonians
from .linalg import assert_hermitian, kron
from .spectral import _CACHE_SIZE, analyze_peripheral, peripheral_power
from .zeno import _factor_kick, _kicked_evolutions
from .zoo import builtin, pauli

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "choi_distance",
    "reproduce",
    "resolve_channel",
    "sweep",
]


def _trace_bath(m: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """T m: rows (a x, c x) summed over the bath index x into the d1^2 rows (a, c)."""
    m = m.reshape(*m.shape[:-2], d1, d2, d1, d2, m.shape[-1])
    return np.einsum("...axcxk->...ack", m).reshape(*m.shape[:-5], d1 * d1, m.shape[-1])


def _reduced_purity(lam: np.ndarray, d: int) -> float | np.ndarray:
    """Sum |lambda|^2 of the reduced Choi matrix lam / d, with lam = T S T^T."""
    return np.real(np.sum(lam * lam.conj(), axis=(-2, -1))) / d**2


def reduced_choi_purity(s: Superoperator, d1: int, d2: int) -> float | np.ndarray:
    """Purity of the system-legs reduction of the Choi state of ``s`` (per map of a stack).

    Both the bath output leg and the bath ancilla leg are traced out; the
    system output/ancilla pair is kept, as T S T^T / d with no Choi state:
    lambda[(a, c), (b, d)] = sum_{x, y} S[(a x, c x), (b y, d y)] / d."""
    if s.dim != d1 * d2:
        raise ValueError(f"superoperator dim {s.dim} does not factor as {d1}*{d2}")
    t = _trace_bath(np.eye(s.dim**2), d1, d2)
    return _reduced_purity(_trace_bath(s.matrix, d1, d2) @ t.T, s.dim)


def choi_distance(s_a: Superoperator, s_b: Superoperator) -> float | np.ndarray:
    """Trace-norm distance between the Choi states of two Hermiticity-preserving maps (per
    map of a stack): sum |lambda| of their Hermitian difference, else ``ValueError``."""
    if s_a.dim != s_b.dim:
        raise ValueError("dimension mismatch")
    return np.abs(np.linalg.eigvalsh(assert_hermitian(choi(s_a) - choi(s_b)))).sum(axis=-1)


# --- sweeps ------------------------------------------------------------------

# The largest n of a sweep: up to it the zoo's zeno sweeps keep n err(n) within 0.1%.
MAX_N = 10**6


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
    """One sweep: a kick channel, a Hamiltonian source, and a list of n in [1, MAX_N].

    ``channel`` is a zoo name ("zoo:E_updown") or a channel JSON file path.
    ``hamiltonians`` is either {"random": count, "seed": s} (count 100 and
    seed 0 by default) or {"fixture": name} with a named witness Hamiltonian;
    their dimension is the channel's, times d1 in mode "dd"; t is 1.0, d1 2 and
    channel_params {} by default. Built here, by ``replace`` or by ``from_dict``,
    each field is checked and stored converted once (2.0 becomes 2; a bool, string
    or fraction where a number is due is refused); a refused value raises ``ValueError``.
    """

    channel: str
    mode: str  # "dd" | "zeno"
    n_values: tuple[int, ...]
    hamiltonians: dict
    t: float = 1.0
    d1: int = 2
    channel_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, kind in (("channel", str), ("hamiltonians", dict), ("channel_params", dict)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if self.mode not in ("dd", "zeno"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        if not isinstance(self.n_values, (list, tuple)):
            raise ValueError(f"n_values must be a list or tuple, got {self.n_values!r}")
        n_values = tuple(_integer(n, "every n in n_values") for n in self.n_values)
        t, d1 = _real(self.t, "t"), _integer(self.d1, "d1")
        if not 0 < min(n_values, default=0) <= max(n_values) <= MAX_N or d1 < 1:
            raise ValueError(f"n_values must be non-empty with n in [1, MAX_N = {MAX_N}]; "
                             "d1 must be positive")
        if len(set(n_values)) < len(n_values):
            raise ValueError(f"n_values repeats an n: {list(n_values)}")
        if not np.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        fixture = self.hamiltonians.get("fixture")
        src = {"random": 100, "seed": 0} if fixture is None else {"fixture": fixture}
        extra = set(self.hamiltonians) - set(src)
        if extra:
            raise ValueError(f"unknown hamiltonians keys {sorted(extra)}; known: {sorted(src)}")
        if fixture not in (None, *FIXTURE_HAMILTONIANS):
            raise ValueError(f"unknown fixture {fixture!r}; known: {sorted(FIXTURE_HAMILTONIANS)}")
        if fixture is None:
            src = {key: _integer(self.hamiltonians.get(key, default), f"hamiltonians[{key!r}]")
                   for key, default in src.items()}
            if src["random"] < 1 or src["seed"] < 0:
                raise ValueError("the random Hamiltonian count must be positive, the seed >= 0")
        for name, value in (("n_values", n_values), ("t", t), ("d1", d1), ("hamiltonians", src)):
            object.__setattr__(self, name, value)

    @staticmethod
    def from_dict(data: dict) -> "SweepConfig":
        if not isinstance(data, dict):
            raise ValueError(f"a sweep config is a JSON object, got {type(data).__name__}")
        extra = set(data) - {f.name for f in fields(SweepConfig)}
        if extra:
            raise ValueError(f"unknown sweep config keys: {sorted(extra)}")
        missing = [f.name for f in fields(SweepConfig) if f.name not in data
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ValueError(f"missing sweep config keys: {missing}")
        return SweepConfig(**data)


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


def _exact(value):
    """A hashable form of a zoo parameter, equal only for values that build the same kick: a
    float by its bits (so -0.0 is not 0.0), a bool apart from an int, an ndarray of dim >= 1 as
    the list of its entries. None for any other value, which is then not memoised."""
    if isinstance(value, np.ndarray) and value.ndim:
        value = value.tolist()
    elif isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, (list, tuple)):
        items = tuple(map(_exact, value))
        return None if None in items else ("list", items)
    if isinstance(value, complex):
        return "complex", value.real.hex(), value.imag.hex()
    if isinstance(value, float):
        return "float", value.hex()
    if isinstance(value, int):
        return type(value).__name__, value
    return None


@dataclass(frozen=True)
class _ZooKick:
    """A "zoo:NAME" spec with its params, keyed by the spec and the ``_exact`` form of each."""

    spec: str
    exact: frozenset
    params: dict = field(compare=False)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _zoo_kick(key: _ZooKick) -> tuple[int, bytes]:
    """(dim, superoperator bytes) of a zoo kick, memoised per process; refused params raise."""
    s = to_superoperator(resolve_channel(key.spec, key.params))
    return s.dim, s.matrix.tobytes()


def _kick(spec: str, params: dict) -> tuple[int, bytes]:
    """(dim, superoperator bytes) of a sweep's kick: a zoo kick from ``_zoo_kick`` when every
    param has an ``_exact`` form, else built afresh; a channel file is read on every call."""
    exact = frozenset((name, _exact(v)) for name, v in params.items())
    if spec.startswith("zoo:") and all(v is not None for _, v in exact):
        return _zoo_kick(_ZooKick(spec, exact, params))
    s = to_superoperator(resolve_channel(spec, params))
    return s.dim, s.matrix.tobytes()


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _plan(dim: int, data: bytes, mode: str, d1: int, ns: tuple[int, ...]):
    """The part of a sweep that no Hamiltonian enters, memoised per process and read-only:
    (A, B, T A, R^T = T^T) in mode "dd", T the bath trace, and (A, B, E_phi^n stacked over the
    n of ``ns``, None) in mode "zeno", with A B the kick of these bytes lifted to d1
    (``zeno._factor_kick``)."""
    a, b = _factor_kick(dim, data, d1)
    if mode == "dd":
        kept = _trace_bath(a, d1, dim), _trace_bath(np.eye(len(a)), d1, dim).T
    else:
        dec = analyze_peripheral(Superoperator(dim, np.frombuffer(data, dtype=complex)
                                               .reshape(dim * dim, -1)))
        kept = np.array([peripheral_power(dec, n).matrix for n in ns]), None
    for x in kept:
        if x is not None:
            x.flags.writeable = False  # shared by every sweep of this kick
    return a, b, *kept


# A sweep's chunks of Hamiltonians and blocks of n keep their largest array (the N x N maps
# in zeno mode, the r x N B Phi in dd mode) within _STACK_BYTES, and so do the stacks that
# score several blocks of a chunk in one call. glibc serves an allocation above its mmap
# threshold (128 KiB) from a fresh mapping whose pages fault in on every use, so 64 KiB keeps
# each temporary in the heap: fig3a's 64 x 64 sweeps take chunks of 4 H.
_STACK_BYTES = 1 << 16


def _hamiltonian_chunks(cfg: SweepConfig, total_dim: int, size: int):
    """(labels, series name, (k, d, d) stack) chunks of at most ``size`` Hamiltonians."""
    src = cfg.hamiltonians
    if "fixture" in src:
        name = src["fixture"]
        h = FIXTURE_HAMILTONIANS[name]
        if h.shape[0] != total_dim:
            raise ValueError(f"fixture {name} has dim {h.shape[0]}, expected {total_dim}")
        yield [name], name, h[None]
        return
    seeds = range(src["seed"], src["seed"] + src["random"])
    for chunk in (seeds[i:i + size] for i in range(0, len(seeds), size)):
        yield chunk, "random", _random_hamiltonians(total_dim, chunk)


def _stack(arrays) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evaluate the configured metric on every (Hamiltonian, n) pair, plus
    min/max/mean aggregate rows per n (seeds "min", "max", "mean"), ordered by
    str(seed) and then n. What no Hamiltonian enters is planned once per process: a zoo
    kick's superoperator (``_zoo_kick``, keyed by the exact params), and per (kick bytes,
    mode, d1, n grid) its factors A B, lifted to I_1 kron E_2 in mode "dd", with the bath-traced
    rows ("dd") or the targets E_phi^n ("zeno") (``_plan``); a channel file is read on every
    call. Each chunk of Hamiltonians is checked and diagonalised once; each block of n of a
    chunk is one stacked call of ``_kicked_evolutions``. One score call takes as many blocks
    as keep its stacks within ``_STACK_BYTES`` (a whole n grid of fig3a's chunks of 4 H): the
    purity of the d1^2 x d1^2 (T A) P_n (B W T^T) / d, T the bath trace ("dd"), or the Choi
    distance of A P_n (B W) to E_phi^n ("zeno")."""
    dd = cfg.mode == "dd"
    dim, data = _kick(cfg.channel, cfg.channel_params)
    ns = tuple(sorted(cfg.n_values))
    # kept: the rows T A ("dd") or the targets E_phi^n ("zeno"); rt: R^T ("dd") or None
    a, b, kept, rt = _plan(dim, data, cfg.mode, cfg.d1 if dd else 1, () if dd else ns)
    big_n, r = a.shape
    if dd:
        dim, metric = cfg.d1 * dim, "purity"
        # per (n, H) pair: the r x N B Phi, and the r x r P_n or d1^2 x r (T A) P_n to score
        pair, scored = 16 * r * big_n, 8 * r * max(r, 2 * cfg.d1**2)
        score = lambda p, y, _: _reduced_purity(kept @ p @ y, dim)
    else:
        metric, pair = "choi_distance", 16 * big_n**2  # the N x N maps
        scored = pair

        def score(p, bw, n_slice):
            target = np.repeat(kept[n_slice], len(p) // len(kept[n_slice]), axis=0)
            return choi_distance(Superoperator(dim, a @ (p @ bw)), Superoperator(dim, target))

    pairs = max(1, _STACK_BYTES // pair)  # (n, H) pairs per block
    labels, parts = [], []
    for seeds, h_label, hs in _hamiltonian_chunks(cfg, dim, pairs):
        per = max(1, pairs // len(hs))
        blocks = [ns[i:i + per] for i in range(0, len(ns), per)]
        steps = _kicked_evolutions((a, b), hs, cfg.t, blocks, rt)
        group = max(1, _STACK_BYTES // (per * len(hs) * scored))  # blocks per score call
        scores = []
        for i in range(0, len(blocks), group):
            ps, ys = zip(*itertools.islice(steps, group))
            scores.append(score(_stack(ps), _stack(ys), slice(i * per, (i + group) * per)))
        parts.append(np.concatenate(scores).reshape(len(ns), -1))
        labels += seeds
    values = np.concatenate(parts, axis=1)  # (n, H)

    aggregates = {tag: f(values, axis=1).tolist()
                  for tag, f in (("min", np.min), ("max", np.max), ("mean", np.mean))}
    series = {**dict(zip(labels, values.T.tolist())), **aggregates}
    return [SweepRecord(n, metric, v, label, cfg.channel,
                        "aggregate" if label in aggregates else h_label, cfg.t)
            for label in sorted(series, key=str) for n, v in zip(ns, series[label])]


def _write_csv(path: Path, header: str, rows) -> None:
    path.write_text("\n".join([header, *rows]) + "\n")


def write_records_csv(records: list[SweepRecord], path: Path) -> None:
    _write_csv(path, "n,metric,value,seed,channel,hamiltonian,t", (
        f"{r.n},{r.metric_name},{r.value:.12g},{r.seed},{r.channel},{r.hamiltonian},{r.t:g}"
        for r in records))


# --- figure reproduction -----------------------------------------------------


@dataclass(frozen=True)
class _Figure:
    """A reference panel: the random-H sweep, the aggregate row plotted from it,
    an optional witness-Hamiltonian (fixture) series and the reference constants."""

    config: SweepConfig
    aggregate: str  # "min" | "max" | "mean"
    fixture: str | None
    reference: dict


def _random_sweep(channel: str, mode: str, seed_offset: int, **channel_params) -> SweepConfig:
    return SweepConfig(channel, mode, (1, 2, 5, 10, 20, 50, 100),
                       {"random": 100, "seed": 20240927 + seed_offset},
                       channel_params=channel_params)


FIGURES = {
    # worst-case purity of bath DD with the spin-flip kick, random H
    "fig1a": _Figure(_random_sweep("zoo:E_updown", "dd", 0), "min", None,
                     {"min_purity_at_n100": 0.99}),
    # worst-case Zeno error with the spin-flip kick, random H
    "fig1b": _Figure(_random_sweep("zoo:E_updown", "zeno", 1000), "max", None,
                     {"guide": "2.7/n"}),
    # dephasing kick: fixture purity constant, random mean saturates
    "fig2a": _Figure(_random_sweep("zoo:E_dephase", "dd", 2000, d=2), "mean", "ZZ",
                     {"fixture_constant": 0.59, "random_limit": 0.85}),
    "fig2b": _Figure(_random_sweep("zoo:E_dephase", "zeno", 3000, d=2), "max", None,
                     {"guide": "2/n"}),
    # bath-reset kick with a decoherence-free subsystem
    "fig3a": _Figure(_random_sweep("zoo:E_omega", "dd", 4000), "mean", "ZZI",
                     {"fixture_constant": 0.59, "random_limit": 0.91}),
    "fig3b": _Figure(_random_sweep("zoo:E_omega", "zeno", 5000), "mean", "ZI",
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
        _write_csv(path, "n,P" if cfg.mode == "dd" else "n,error", rows)
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
