"""Metrics, parameter sweeps, and desk-scale reproduction of the reference
decoupling/suppression curves.

Every curve is the kicked evolution (S W)^n = A P_n (B W) of ``zeno._kicked_evolutions``
on chunks of the Hamiltonian ensemble, drawn straight into eigendata by one real ``eigh``:
the kick's factors S = A B come from ``zeno._factor_kick``, the one per-process memo that
also serves ``zeno_evolution`` and ``dd_evolution``; one product of the kick's planned real
planes takes a chunk to H's eigenbasis, and each n costs one real product there (the phases
of the d(d-1)/2 energy gaps on the rows) and one real power P_n = (B W A)^{n-1}. Planned once
per process: a zoo kick with its superoperator bytes and CPTP report (``_zoo_kick``, keyed by
the spec and the exact params, read through ``_kick``, the loader the CLI uses too), per
(kick bytes, d1) the factors and planes, with the bath-traced rows and columns in
the Hermitian basis Q of M_d1 (``_plan``), and per (kick bytes, n) the superoperator of a zeno
target (``_target``), each bounded at ``spectral._CACHE_SIZE`` entries and read-only.
Chunks and their blocks of n, each block one stacked step and one score call, are sized so
that no per-pair stack of a block passes 64 KiB (``_STACK_BYTES``). Mode "dd" kicks the bath
of a bipartite system with I_1 kron E_2, the lift of E_2's own factors, and records the purity
of the system legs of the Choi state from the real (Q^dag T A) P_n (B W T^T Q); mode "zeno"
kicks with E and records the trace-norm distance between the Choi states of A P_n (B W) and
of E_phi^n (full suppression), which saturates at a nonzero constant when suppression fails:
one Choi reshuffle of the superoperator difference, checked Hermitian, its Sum |lambda| / d.
``FIGURES`` holds each reference panel as a ``SweepConfig`` row, which ``reproduce`` runs
through ``sweep``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import (CptpReport, KrausChannel, Superoperator, _hermitian_coordinates, _integer,
                      _lift, _real, choi, load_channel, to_superoperator, validate_cptp)
from .hamiltonian import _random_hamiltonians
from .linalg import assert_hermitian, kron
from .spectral import _CACHE_SIZE, PERIPHERAL_TOL, _analyze, peripheral_power
from .zeno import _eigensystem, _factor_kick, _kicked_evolutions, _planes
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
    return (lam * lam.conj()).real.sum(axis=(-2, -1)) / d**2


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
    return _hermitian_trace_norm(choi(s_a) - choi(s_b))


def _hermitian_trace_norm(m: np.ndarray) -> float | np.ndarray:
    """sum |lambda| of a Hermitian matrix, per matrix of a stack, else ``ValueError``."""
    return np.abs(np.linalg.eigvalsh(assert_hermitian(m))).sum(axis=-1)


# --- sweeps ------------------------------------------------------------------

# The largest n of a sweep: up to it the zoo's zeno sweeps keep n err(n) within 0.1%.
MAX_N = 10**6


class SweepRecord(NamedTuple):
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
    """Resolve "zoo:NAME" or a JSON file path to a Kraus channel; a file takes no params."""
    if spec.startswith("zoo:"):
        return builtin(spec[4:], **(params or {})).channel
    if params:
        raise ValueError(f"channel_params {sorted(params)} apply to zoo: channels, not a file")
    return load_channel(spec)


def _exact(value):
    """A hashable form of a zoo parameter, equal only for values that build the same kick: the
    dtype, shape and bytes of its array (so -0.0 is not 0.0, nor True 1). None for a ragged or
    object value or a 0-d ndarray, which is then not memoised."""
    try:
        x = np.asarray(value)
    except ValueError:  # ragged
        return None
    zero_d = isinstance(value, np.ndarray) and not x.ndim  # the zoo refuses it as a number
    return None if x.dtype.hasobject or zero_d else (x.dtype.str, x.shape, x.tobytes())


@dataclass(frozen=True)
class _ZooKick:
    """A "zoo:NAME" spec with its params, keyed by the spec and the ``_exact`` form of each."""

    spec: str
    exact: frozenset
    params: dict = field(compare=False)


# A loaded kick: (channel, superoperator, that matrix's bytes, which key every per-kick memo,
# CPTP report); the matrix is read-only.
_Loaded = tuple[KrausChannel, Superoperator, bytes, CptpReport]


def _load(spec: str, params: dict) -> _Loaded:
    """The kick of ``spec`` with ``params``, built afresh."""
    ch = resolve_channel(spec, params)
    report = validate_cptp(ch)
    with np.errstate(over="ignore", invalid="ignore"):  # Kraus entries huge enough to overflow
        s = to_superoperator(ch)                         # fail the report, which says so
    s.matrix.flags.writeable = False  # shared by every caller of a memoised kick
    return ch, s, s.matrix.tobytes(), report


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _zoo_kick(key: _ZooKick) -> _Loaded:
    """``_load`` of a zoo spec and its params, memoised per process; refused params raise."""
    return _load(key.spec, key.params)


def _kick(spec: str, params: dict | None = None) -> _Loaded:
    """The kick of a sweep or a CLI command, from the one loader of both: a zoo kick from
    ``_zoo_kick`` when every param has an ``_exact`` form, else from ``_load``, so a channel
    file is read and checked on every call. Refused specs and params raise on every call."""
    params = params or {}
    exact = frozenset((name, _exact(v)) for name, v in params.items())
    if spec.startswith("zoo:") and all(v is not None for _, v in exact):
        return _zoo_kick(_ZooKick(spec, exact, params))
    return _load(spec, params)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _plan(dim: int, data: bytes, d1: int):
    """The part of a dd sweep that no Hamiltonian enters, memoised per process and read-only:
    ((A, B, planes, None), Q^dag T A), A B the kick of these bytes lifted to d1 by
    ``channel._lift`` from the kick's own factors (``zeno._factor_kick`` at d1 = 1, which reads
    no lifted identity), T the bath trace and Q the package's orthonormal Hermitian basis of
    M_d1 (``channel._hermitian_coordinates``), so that Q^dag T A is real, and the planes those
    of B and of the Hermitian [A | T^T Q]."""
    a, b = _lift(*_factor_kick(dim, data, 1)[:2], d1)  # R = I's planes are never read here
    a.flags.writeable = b.flags.writeable = False
    q = _hermitian_coordinates(d1)[2]
    kept = (q.conj().T @ _trace_bath(a, d1, dim)).real
    kept.flags.writeable = False  # shared by every sweep of this kick
    return (a, b, _planes(b, a.T, q.T @ _trace_bath(np.eye(len(a)), d1, dim)), None), kept


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _target(dim: int, data: bytes, n: int) -> np.ndarray:
    """The read-only E_phi^n of the kick of these bytes (``spectral._analyze``), memoised per
    (kick, n), at most ``_CACHE_SIZE`` per process; a block's score stacks those of its n."""
    x = peripheral_power(_analyze(dim, data, PERIPHERAL_TOL), n).matrix
    x.flags.writeable = False
    return x


# A sweep's chunks of Hamiltonians and blocks of n keep their largest per-pair stack within
# _STACK_BYTES: the real r x N rows of the kicked step and its real r x (r + c) output, and in
# zeno mode the N x N maps when larger, which also bound the stacks that score the block.
# glibc serves an allocation above its mmap threshold (128 KiB by default) from a fresh
# mapping whose pages fault in on use, and 64 KiB keeps a block's temporaries below it:
# fig3a's 64 x 64 sweeps take chunks of 8 H, and a 4-H sweep blocks of 2 n. The rule does not
# bound a chunk's ``zeno._sandwich`` stacks, three (k, d, 2 m d) float arrays for k H and m
# planed operators: on fig3a 147,456 B each at 4 H and 294,912 B at 8 H, which may fault in
# (warm 8-H fig3a sweeps took 112 minor faults a call in one loop, 4-H ones none).
_STACK_BYTES = 1 << 16


def _hamiltonian_chunks(cfg: SweepConfig, total_dim: int, size: int):
    """(labels, series name, eigendata (E, U)) chunks of at most ``size`` Hamiltonians."""
    src = cfg.hamiltonians
    if "fixture" in src:
        name = src["fixture"]
        h = FIXTURE_HAMILTONIANS[name]
        if h.shape[0] != total_dim:
            raise ValueError(f"fixture {name} has dim {h.shape[0]}, expected {total_dim}")
        yield [name], name, _eigensystem(h)
        return
    seeds = range(src["seed"], src["seed"] + src["random"])
    for chunk in (seeds[i:i + size] for i in range(0, len(seeds), size)):
        yield chunk, "random", _random_hamiltonians(total_dim, chunk)[:2]


def sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evaluate the configured metric on every (Hamiltonian, n) pair, plus min/max/mean
    aggregate rows per n (seeds "min", "max", "mean", three reductions of the (n, H) values),
    ordered by str(seed) and then n. Planned once per process: a zoo kick's superoperator
    (``_kick``, memoised in ``_zoo_kick`` by the exact params), its factors A B and planes, lifted to
    I_1 kron E_2 in mode "dd", with the bath-traced rows and columns in the Hermitian basis
    Q of M_d1 (``_plan``), or the target superoperators E_phi^n ("zeno", ``_target``);
    a channel file is read on every call. A random chunk of Hamiltonians is drawn as its
    eigendata, one real ``eigh`` that also normalises it (a fixture: ``zeno._eigensystem``);
    each block of n of a chunk is one stacked real product of ``_kicked_evolutions``, and one
    score call as soon as it is yielded: the purity of the real d1^2 x d1^2
    (Q^dag T A) P_n (B W T^T Q) / d, T the bath trace, which is that of T S T^T as Q is unitary
    ("dd"), or the Choi distance of A P_n (B W) to E_phi^n ("zeno"): P_n B W is one real
    product on B W's float view, the block's stacked targets are subtracted from its maps, and
    the one difference, reshuffled to Choi order and checked Hermitian, gives Sum |lambda| / d,
    the 1/d of both Choi states taken once per value. A kick that is not CPTP raises
    ``ValueError`` with the CLI's wording."""
    dd = cfg.mode == "dd"
    ch, _, data, report = _kick(cfg.channel, cfg.channel_params)
    if not report.passed:
        raise ValueError(f"channel is not CPTP: trace residual {report.trace_residual:.3e}")
    dim = ch.dim
    ns = tuple(sorted(cfg.n_values))
    # "dd": kept the rows Q^dag T A, the planes those of the columns T^T Q; "zeno": R = I
    factors, kept = _plan(dim, data, cfg.d1) if dd else (_factor_kick(dim, data, 1), None)
    a = factors[0]
    big_n, r = a.shape
    # per (n, H) pair of a block: the real r x N rows and r x (r + c) output, c the d1^2
    # columns T^T Q ("dd") or the real and imaginary parts of the N columns of I ("zeno")
    pair = 8 * r * max(big_n, r + (cfg.d1**2 if dd else 2 * big_n))
    if dd:
        dim, metric = cfg.d1 * dim, "purity"
        score = lambda p, y, _: _reduced_purity(kept @ p @ y, dim)
    else:
        metric = "choi_distance"
        pair = max(pair, 16 * big_n**2)  # and the N x N maps and their difference

        def score(p, bw, block):
            maps = a @ (p @ bw.view(float)).view(complex)
            diff = (maps.reshape(len(block), -1, big_n, big_n)
                    - np.array([_target(dim, data, n) for n in block])[:, None])
            diff = diff.reshape(-1, dim, dim, dim, dim).swapaxes(-3, -2).reshape(-1, big_n, big_n)
            return _hermitian_trace_norm(diff) / dim

    pairs = max(1, _STACK_BYTES // pair)  # (n, H) pairs per block
    labels, parts = [], []
    for seeds, h_label, eigen in _hamiltonian_chunks(cfg, dim, pairs):
        per = max(1, pairs // len(eigen[0]))
        blocks = [ns[i:i + per] for i in range(0, len(ns), per)]
        steps = _kicked_evolutions(factors, eigen, cfg.t, blocks)
        parts.append(np.concatenate([score(p, y, block) for block, (p, y) in zip(blocks, steps)])
                     .reshape(len(ns), -1))
        labels += seeds
    values = np.concatenate(parts, axis=1)  # (n, H)
    table = np.concatenate([values.T, [np.minimum.reduce(values, 1), np.maximum.reduce(values, 1),
                                       np.add.reduce(values, 1) / len(labels)]]).tolist()
    rows = sorted(zip([*labels, "min", "max", "mean"], [h_label] * len(labels) + ["aggregate"] * 3,
                      table), key=lambda row: str(row[0]))
    return [SweepRecord._make((n, metric, v, label, cfg.channel, name, cfg.t))
            for label, name, vs in rows for n, v in zip(ns, vs)]


def _write_csv(path: Path, header: str, rows) -> None:
    path.write_text("\n".join([header, *rows]) + "\n")


def write_records_csv(records: list[SweepRecord], path: Path) -> None:
    _write_csv(path, "n,metric,value,seed,channel,hamiltonian,t", (
        f"{r.n},{r.metric_name},{r.value:.12g},{r.seed},{r.channel},{r.hamiltonian},{r.t!r}"
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
