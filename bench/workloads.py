"""The benchmark's workloads: seeded inputs, the calls into bathdd, and the
checks of every result against the reference computations in ``oracles``.

A workload is an endless sequence of operations driven as a closed loop by one
caller. Each operation is one call into bathdd (one ``sweep`` or one verdict),
and the inputs depend only on the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterator

import numpy as np

import oracles

N_GRID = (1, 2, 5, 10, 20, 50, 100)
T = 1.0
D1 = 2


def lib(module: str):
    """A bathdd module, looked up at call time so that traced functions are seen."""
    return importlib.import_module("bathdd." + module)


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]  # failure messages, empty when correct
    work: int  # (H, n) evaluations or verdicts the call completes


# --- ensembles ---------------------------------------------------------------


@dataclass(frozen=True)
class Figure:
    """One figure configuration of the sweeps: a kick, a mode and its fixture."""

    label: str
    kick: str
    mode: str  # "dd" | "zeno"
    fixture: str | None = None

    def config(self, hamiltonians: dict):
        params = {"d": 2} if self.kick == "E_dephase" else {}
        return lib("harness").SweepConfig(
            channel="zoo:" + self.kick, mode=self.mode, n_values=N_GRID,
            hamiltonians=hamiltonians, t=T, d1=D1, channel_params=params,
        )


FIG3A = Figure("fig3a", "E_omega", "dd", "ZZI")
SMALL_FIGURES = (
    Figure("fig1a", "E_updown", "dd"),
    Figure("fig2a", "E_dephase", "dd", "ZZ"),
    Figure("fig1b", "E_updown", "zeno"),
    Figure("fig2b", "E_dephase", "zeno"),
    Figure("fig3b", "E_omega", "zeno", "ZI"),
)


class SweepOracle:
    """Recomputes sweep values of one figure without bathdd."""

    def __init__(self, fig: Figure):
        self.fig = fig
        kraus = oracles.KICKS[fig.kick]
        self.d2 = kraus[0].shape[0]
        if fig.mode == "dd":
            self.dim = D1 * self.d2
            self.kick = oracles.extended_superoperator(kraus, D1)
        else:
            self.dim = self.d2
            self.kick = oracles.superoperator(kraus)
            self.projection = oracles.peripheral_projection(self.kick)

    def value(self, h: np.ndarray, n: int) -> float:
        ev = oracles.kicked_evolution(self.kick, h, T, n)
        if self.fig.mode == "dd":
            return oracles.reduced_choi_purity(ev, D1, self.d2)
        return oracles.choi_distance(ev, oracles.peripheral_power(self.kick, self.projection, n))

    def check(self, records, seeds, sample: tuple[int, int]) -> list[str]:
        """Record set complete, aggregates consistent, one sampled (H, n)
        value equal to its recomputation."""
        metric = "purity" if self.fig.mode == "dd" else "choi_distance"
        label = self.fig.label
        values = {(r.seed, r.n): r.value for r in records if r.hamiltonian != "aggregate"}
        if set(values) != {(s, n) for s in seeds for n in N_GRID}:
            return [f"{label}: sweep returned records for the wrong (H, n) pairs"]
        fails = []
        if any(r.metric_name != metric for r in records):
            fails.append(f"{label}: metric name is not {metric}")
        aggregates = {(r.seed, r.n): r.value for r in records if r.hamiltonian == "aggregate"}
        for n in N_GRID:
            vals = [values[(s, n)] for s in seeds]
            for tag, want in (("min", min(vals)), ("max", max(vals)), ("mean", float(np.mean(vals)))):
                got = aggregates.get((tag, n))
                if got is None or abs(got - want) > 1e-12:
                    fails.append(f"{label}: aggregate {tag} at n={n} is {got}, expected {want}")
        seed, n = sample
        want = self.value(oracles.random_hamiltonian(self.dim, seed), n)
        got = values[(seed, n)]
        if not abs(got - want) <= oracles.VALUE_TOL:
            fails.append(f"{label}: H seed {seed}, n={n}: {got!r} vs oracle {want!r}")
        return fails

    def check_fixture(self, records) -> list[str]:
        """Witness series: every n on the reference constant and on the oracle."""
        name = self.fig.fixture
        const = oracles.FIXTURE_CONSTANTS[name]
        values = {r.n: r.value for r in records if r.hamiltonian == name}
        if set(values) != set(N_GRID):
            return [f"{self.fig.label}: fixture {name} returned the wrong n values"]
        fails = []
        for n, got in sorted(values.items()):
            if abs(got - const) > oracles.FIXTURE_TOL:
                fails.append(f"{self.fig.label}: fixture {name} at n={n} is {got:.4f}, reference {const}")
            want = self.value(oracles.FIXTURES[name], n)
            if not abs(got - want) <= oracles.VALUE_TOL:
                fails.append(f"{self.fig.label}: fixture {name} at n={n}: {got!r} vs oracle {want!r}")
        return fails


class Ensemble:
    """Repeated ``harness.sweep`` calls, each over ``per_call`` random
    Hamiltonians on the n grid; consecutive calls take consecutive seeds and
    cycle through ``figures``."""

    def __init__(self, figures, per_call: int, seed: int):
        self.figures = figures
        self.per_call = per_call
        self.seed = seed
        self.base = 1_000_003 * seed
        self.oracles = None

    def _op(self, i: int, with_check: bool) -> Op:
        fig = self.figures[i % len(self.figures)]
        first = self.base + i * self.per_call
        cfg = fig.config({"random": self.per_call, "seed": first})
        seeds = range(first, first + self.per_call)
        check = lambda records: []
        if with_check:
            rng = np.random.default_rng([self.seed, i])
            sample = (int(first + rng.integers(self.per_call)), int(rng.choice(N_GRID)))
            oracle = self.oracles[fig.label]
            check = lambda records: oracle.check(records, seeds, sample)
        return Op(fig.label, lambda: lib("harness").sweep(cfg), check, self.per_call * len(N_GRID))

    def warm_up(self) -> None:
        self._op(-1, with_check=False).call()

    def ops(self) -> Iterator[Op]:
        # built here, not in __init__, so that set-up time excludes the oracles
        if self.oracles is None:
            self.oracles = {fig.label: SweepOracle(fig) for fig in self.figures}
        for i in count():
            yield self._op(i, with_check=True)

    def final_checks(self) -> list[Op]:
        """The fixture (witness Hamiltonian) series of each figure that has one."""
        out = []
        for fig in self.figures:
            if fig.fixture is None:
                continue
            oracle = self.oracles[fig.label]
            cfg = fig.config({"fixture": fig.fixture})
            out.append(Op(fig.label + ":fixture", lambda cfg=cfg: lib("harness").sweep(cfg),
                          oracle.check_fixture, len(N_GRID)))
        return out


# --- decisions ---------------------------------------------------------------

PROFILE_FIELDS = ("dim_fixed", "dim_recurrent", "ergodic", "mixing", "irreducible",
                  "dfs_free", "cycle_lengths", "cycles_unique")
RANDOM_DIMS = range(2, 9)
RANDOM_RANKS = (2, 3)
MAX_DD_DIM = 8  # dd_check at desk scale: d1 * d2 <= 8


def _profile(record: dict) -> dict:
    return {k: (tuple(record[k]) if k == "cycle_lengths" else record[k]) for k in PROFILE_FIELDS}


def _expect(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib("cli").main(argv)
    return code, out.getvalue()


def _cli_json(label: str, result, key: str | None, want) -> list[str]:
    code, text = result
    if code != 0:
        return [f"{label}: exit code {code}"]
    record = json.loads(text)
    got = _profile(record) if key is None else record[key]
    return _expect(label, got, want)


class Decide:
    """A fixed mix of verdict calls, repeated in rounds with fresh random inputs.

    Per round: ``classify`` and ``suppression_check`` on every zoo kick and
    on random Stinespring channels (d = 2..8, Kraus rank 2 and 3), the zoo
    witness Hamiltonians, ``dd_check`` with d1 = 2 on every kick with
    d1 * d2 <= 8, and the zoo kicks' classify / dd-check / zeno-check through
    ``cli.main``.
    """

    def __init__(self, seed: int):
        self.seed = seed
        zoo, channel = lib("zoo"), lib("channel")
        self.zoo = {name: zoo.builtin(name) for name in zoo.names()}
        self.sup = {name: channel.to_superoperator(e.channel) for name, e in self.zoo.items()}

    def warm_up(self) -> None:
        lib("classify").classify(self.sup["E_updown"], name="E_updown")

    def _zoo_ops(self, rng) -> Iterator[Op]:
        cl, zeno = lib("classify"), lib("zeno")
        for name, entry in self.zoo.items():
            s, want = self.sup[name], entry.expected
            d = entry.channel.dim
            nullity = oracles.fixed_space_dim(oracles.superoperator(entry.channel.kraus))
            yield Op("classify", lambda s=s, name=name: cl.classify(s, name=name),
                     lambda c, name=name, want=want, nullity=nullity:
                     _expect(f"classify {name}", _profile(dataclasses.asdict(c)),
                             _profile(dataclasses.asdict(want)))
                     + _expect(f"{name} dim_fixed vs SVD nullity", c.dim_fixed, nullity), 1)
            h = oracles.random_hermitian(d, rng)
            yield Op("suppression_check", lambda s=s, h=h: zeno.suppression_check(s, h),
                     lambda got, name=name, want=want: _expect(f"suppression {name}", got, want.dfs_free), 1)
            for label, hw, outcome in entry.witnesses:
                yield Op("suppression_check", lambda s=s, hw=hw: zeno.suppression_check(s, hw),
                         lambda got, name=name, label=label, outcome=outcome:
                         _expect(f"witness {label} on {name}", got, outcome), 1)
            if D1 * d <= MAX_DD_DIM:
                h = oracles.random_hermitian(D1 * d, rng)
                yield Op("dd_check", lambda s=s, h=h: zeno.dd_check(s, h, D1),
                         lambda v, name=name, want=want: _expect(f"dd_check {name}", v.works, want.ergodic), 1)

    def _random_ops(self, rng) -> Iterator[Op]:
        cl, zeno, channel = lib("classify"), lib("zeno"), lib("channel")
        for d in RANDOM_DIMS:
            for rank in RANDOM_RANKS:
                kraus = oracles.random_stinespring(d, rank, rng)
                ch = channel.KrausChannel(d, kraus, name=f"random_d{d}_r{rank}")
                label = ch.name
                # An ergodic kick (nullity 1) is DFS-free: every H is suppressed
                # and bath DD works. Other nullities leave suppression unchecked.
                nullity = oracles.fixed_space_dim(oracles.superoperator(kraus))
                yield Op("classify", lambda ch=ch: cl.classify(channel.to_superoperator(ch), name=ch.name),
                         lambda c, label=label, nullity=nullity:
                         _expect(f"{label} dim_fixed vs SVD nullity", c.dim_fixed, nullity), 1)
                h = oracles.random_hermitian(d, rng)
                yield Op("suppression_check",
                         lambda ch=ch, h=h: zeno.suppression_check(channel.to_superoperator(ch), h),
                         lambda got, label=label, nullity=nullity:
                         _expect(f"suppression {label}", got, True) if nullity == 1 else [], 1)
                if D1 * d <= MAX_DD_DIM:
                    h = oracles.random_hermitian(D1 * d, rng)
                    yield Op("dd_check", lambda ch=ch, h=h: zeno.dd_check(channel.to_superoperator(ch), h, D1),
                             lambda v, label=label, nullity=nullity:
                             _expect(f"dd_check {label}", v.works, nullity == 1), 1)

    def _cli_ops(self, rng) -> Iterator[Op]:
        for name, entry in self.zoo.items():
            spec, want = "zoo:" + name, entry.expected
            yield Op("cli_classify", lambda spec=spec: _cli(["classify", spec]),
                     lambda r, name=name, want=want:
                     _cli_json(f"cli classify {name}", r, None, _profile(dataclasses.asdict(want))), 1)
            if D1 * entry.channel.dim <= MAX_DD_DIM:
                argv = ["dd-check", spec, "--hamiltonian", f"random:{int(rng.integers(2**31))}", "--d1", str(D1)]
                yield Op("cli_dd_check", lambda argv=argv: _cli(argv),
                         lambda r, name=name, want=want:
                         _cli_json(f"cli dd-check {name}", r, "works", want.ergodic), 1)
            argv = ["zeno-check", spec, "--hamiltonian", f"random:{int(rng.integers(2**31))}"]
            yield Op("cli_zeno_check", lambda argv=argv: _cli(argv),
                     lambda r, name=name, want=want:
                     _cli_json(f"cli zeno-check {name}", r, "suppressed", want.dfs_free), 1)

    def ops(self) -> Iterator[Op]:
        for r in count():
            rng = np.random.default_rng([self.seed, r])
            yield from self._zoo_ops(rng)
            yield from self._random_ops(rng)
            yield from self._cli_ops(rng)

    def final_checks(self) -> list[Op]:
        return []


# Each ensemble's figures and random Hamiltonians per sweep call: 4 keeps a
# 64x64 call near 0.4 s, 10 keeps the small calls long enough that one call
# spans several BLAS thread wake-ups, so per-call latency is not bimodal.
WORKLOADS = {
    "ensemble_64": lambda seed: Ensemble((FIG3A,), per_call=4, seed=seed),
    "ensemble_small": lambda seed: Ensemble(SMALL_FIGURES, per_call=10, seed=seed),
    "decide": Decide,
}
