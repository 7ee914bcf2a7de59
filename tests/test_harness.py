import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bathdd.channel import (KrausChannel, Superoperator, choi, extend_with_identity,
                            to_superoperator)
from bathdd.hamiltonian import random_hamiltonian
from bathdd.harness import (
    _STACK_BYTES,
    _hamiltonian_chunks,
    _kick,
    _zoo_kick,
    FIGURES,
    FIXTURE_HAMILTONIANS,
    MAX_N,
    SweepConfig,
    SweepRecord,
    choi_distance,
    reduced_choi_purity,
    reproduce,
    sweep,
)
from bathdd.linalg import kron
from bathdd.spectral import analyze_peripheral, peripheral_power
from bathdd.zeno import _plan, dd_evolution, zeno_evolution
from bathdd.zoo import builtin, pauli
from bathdd.zoo import names as builtin_names
from helpers import NOT_CPTP, plain_kicked_evolution, save_channel, sup


def test_reduced_choi_purity_decoupled_unitary():
    # unitary on the kept leg, anything on the traced leg -> purity 1
    u = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]], dtype=complex)
    s = to_superoperator(
        KrausChannel(4, tuple(kron(u, k) for k in builtin("E_dephase", d=2).channel.kraus))
    )
    assert reduced_choi_purity(s, 2, 2) == pytest.approx(1.0, abs=1e-10)


def test_reduced_choi_purity_depolarized_minimum():
    # full depolarization on both legs: reduced Choi is I/4, purity 1/4
    both = to_superoperator(
        KrausChannel(
            4,
            tuple(
                kron(a, b)
                for a in builtin("P_rho").channel.kraus
                for b in builtin("P_rho").channel.kraus
            ),
        )
    )
    assert reduced_choi_purity(both, 2, 2) == pytest.approx(0.25, abs=1e-10)


def test_reduced_choi_purity_dephasing_fixture():
    from bathdd.zeno import dd_evolution

    s2 = sup("E_dephase", d=2)
    ev = dd_evolution(s2, kron(pauli("z"), pauli("z")), 1.0, 50, 2)
    assert reduced_choi_purity(ev, 2, 2) == pytest.approx(0.59, abs=0.02)


def choi_reshape_purity(s, d1, d2):
    """The reduced-Choi purity from the full Choi state: trace both bath legs
    of the reshaped Choi matrix with one einsum."""
    r = choi(s).reshape(*s.matrix.shape[:-2], d1, d2, d1, d2, d1, d2, d1, d2)
    lam1 = np.einsum("...aibjcidj->...abcd", r)
    return np.real(np.sum(lam1 * lam1.conj(), axis=(-4, -3, -2, -1)))


@pytest.mark.parametrize("d1,d2,stack", [(2, 2, ()), (1, 3, ()), (3, 1, ()), (2, 3, (4,)),
                                         (3, 2, (2,)), (2, 4, (3,))])
def test_reduced_choi_purity_matches_choi_reshape(d1, d2, stack):
    rng = np.random.default_rng(d1 * 10 + d2)
    shape = stack + ((d1 * d2) ** 2,) * 2
    s = Superoperator(d1 * d2, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    got, want = reduced_choi_purity(s, d1, d2), choi_reshape_purity(s, d1, d2)
    assert np.shape(got) == stack
    assert np.max(np.abs(got - want)) <= 1e-12


def test_reduced_choi_purity_dim_mismatch():
    with pytest.raises(ValueError):
        reduced_choi_purity(sup("E_updown"), 2, 2)


def test_choi_distance_basics():
    s = sup("E_updown")
    assert choi_distance(s, s) == 0.0
    d = choi_distance(s, sup("E_dephase", d=2))
    assert 0 < d <= 2 + 1e-9


def test_choi_distance_reset_fixture():
    from bathdd.spectral import analyze_peripheral, peripheral_power
    from bathdd.zeno import dd_evolution, zeno_evolution

    # the target of full suppression, H_Z = 0, is E_phi^n
    s = sup("E_omega")
    dec = analyze_peripheral(s)
    h = kron(pauli("z"), np.eye(2))
    for n in (1, 10, 100):
        dist = choi_distance(zeno_evolution(s, h, 1.0, n), peripheral_power(dec, n))
        assert dist == pytest.approx(1.68, abs=0.02)


def test_kick_resolves_zoo_and_file_channels(tmp_path):
    ch = _kick("zoo:E_square", {"p": 0.25})[0]
    assert ch.dim == 3
    p = tmp_path / "c.json"
    save_channel(ch, p)
    back = _kick(str(p))[0]
    assert back.dim == 3


def test_sweep_records_and_aggregates():
    cfg = SweepConfig(
        channel="zoo:E_updown",
        mode="zeno",
        n_values=(2, 4),
        hamiltonians={"random": 3, "seed": 1},
    )
    records = sweep(cfg)
    plain = [r for r in records if r.hamiltonian == "random"]
    aggr = [r for r in records if r.hamiltonian == "aggregate"]
    assert len(plain) == 6
    assert len(aggr) == 6  # min/max/mean per n
    for r in records:
        assert 0 <= r.value <= 2 + 1e-9
    for n in (2, 4):
        vals = [r.value for r in plain if r.n == n]
        mins = [r.value for r in aggr if r.n == n and r.seed == "min"]
        assert mins == [min(vals)]


def test_sweep_purity_bounded():
    cfg = SweepConfig(
        channel="zoo:E_dephase",
        mode="dd",
        n_values=(1, 3),
        hamiltonians={"random": 3, "seed": 5},
        d1=2,
        channel_params={"d": 2},
    )
    for r in sweep(cfg):
        assert 0 < r.value <= 1 + 1e-9


def test_sweep_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        SweepConfig.from_dict({"channel": "zoo:E_updown", "mode": "zeno",
                               "n_values": [1], "hamiltonians": {}, "bogus": 1})


def test_sweep_config_rejects_a_non_object():
    with pytest.raises(ValueError, match="JSON object"):
        SweepConfig.from_dict([1, 2])


def test_sweep_config_from_dict_names_missing_keys():
    with pytest.raises(ValueError, match=r"missing sweep config keys: \['channel', 'hamiltonians'\]"):
        SweepConfig.from_dict({"mode": "dd", "n_values": [1]})


def test_sweep_config_from_dict_keeps_integral_numbers():
    cfg = SweepConfig.from_dict({"channel": "zoo:E_updown", "mode": "zeno", "n_values": [2.0, 3],
                                 "hamiltonians": {"random": 2.0}, "d1": 2.0})
    assert cfg.n_values == (2, 3) and cfg.d1 == 2
    assert all(type(n) is int for n in cfg.n_values)
    assert cfg.hamiltonians == {"random": 2, "seed": 0} and type(cfg.hamiltonians["random"]) is int
    assert SweepConfig("zoo:E_updown", "zeno", [1], {}, t=1).hamiltonians == {"random": 100, "seed": 0}


VALID_SWEEP = dict(channel="zoo:E_updown", mode="dd", n_values=(1, 2),
                   hamiltonians={"random": 2, "seed": 0})


@pytest.mark.parametrize("change, message", [
    ({"mode": "both"}, "unknown sweep mode"),
    ({"n_values": (1, 1, 2)}, "repeats an n"),
    ({"n_values": (0, 2)}, "must be positive"),
    ({"n_values": ()}, "non-empty"),
    ({"d1": 0}, "must be positive"),
    ({"t": float("inf")}, "finite"),
    ({"hamiltonians": {"random": 2, "bogus": 1}}, "unknown hamiltonians keys"),
    ({"hamiltonians": {"fixture": "XX"}}, "unknown fixture"),
    ({"hamiltonians": {"random": 0}}, "count must be positive"),
    ({"n_values": (2.5,)}, "every n in n_values must be an integer"),
    ({"n_values": (True,)}, "every n in n_values must be an integer"),
    ({"t": "1"}, "t must be a real number"),
    ({"t": True}, "t must be a real number"),
    ({"d1": 1.5}, "d1 must be an integer"),
    ({"hamiltonians": None}, "hamiltonians must be a dict"),
    ({"hamiltonians": {"random": 2.5}}, r"hamiltonians\['random'\] must be an integer"),
    ({"channel": 5}, "channel must be a str"),
    ({"hamiltonians": {"seed": -1}}, "the seed >= 0"),
    ({"n_values": 5}, "n_values must be a list or tuple"),
    ({"n_values": (1, MAX_N + 1)}, r"n in \[1, MAX_N = 1000000\]"),
    ({"n_values": (1e300,)}, r"n in \[1, MAX_N = 1000000\]"),
], ids=["mode", "repeated_n", "n_zero", "no_n", "d1_zero", "t_inf", "hamiltonians_key",
        "fixture", "count_zero", "frac_n", "bool_n", "str_t", "bool_t", "frac_d1",
        "no_hamiltonians", "frac_count", "int_channel", "negative_seed", "int_n_values",
        "n_above_max", "huge_n"])
def test_sweep_config_built_in_python_is_validated(change, message):
    with pytest.raises(ValueError, match=message):
        SweepConfig(**{**VALID_SWEEP, **change})
    with pytest.raises(ValueError, match=message):
        replace(SweepConfig(**VALID_SWEEP), **change)
    with pytest.raises(ValueError, match=message):
        SweepConfig.from_dict({**VALID_SWEEP, **change})


@pytest.mark.parametrize("name", ["E_square", "E_updown", "E_hook", "E_triangle"])
def test_zeno_sweep_keeps_its_first_order_constant_at_large_n(name):
    # err(n) ~ c / n: n err(n) at 10^5 and 10^6 stays within 1% of its value at 10^4,
    # for each Hamiltonian and each aggregate
    ns = (10**4, 10**5, 10**6)
    records = sweep(SweepConfig(f"zoo:{name}", "zeno", ns, {"random": 3, "seed": 0}))
    c = {(r.seed, r.n): r.n * r.value for r in records}
    for seed in {r.seed for r in records}:
        for n in ns[1:]:
            assert c[seed, n] == pytest.approx(c[seed, ns[0]], rel=1e-2)


def test_zeno_sweep_of_a_kick_with_a_dfs_saturates_at_large_n():
    # E_df has a DFS, so err(n) tends to a nonzero constant: at 10^5 and 10^6 it stays
    # within 1% of its value at 10^4, for each Hamiltonian and each aggregate
    ns = (10**4, 10**5, 10**6)
    records = sweep(SweepConfig("zoo:E_df", "zeno", ns, {"random": 3, "seed": 0}))
    err = {(r.seed, r.n): r.value for r in records}
    for seed in {r.seed for r in records}:
        assert err[seed, ns[0]] > 1e-2
        for n in ns[1:]:
            assert err[seed, n] == pytest.approx(err[seed, ns[0]], rel=1e-2)


def per_pair_reference(cfg):
    """{(seed, n): value} from one plain kicked evolution and one metric
    call per (H, n), with the purity taken from the full Choi state."""
    ch = _kick(cfg.channel, cfg.channel_params)[0]
    s = to_superoperator(ch)
    if cfg.mode == "dd":
        kick = extend_with_identity(s, cfg.d1)
        score = lambda ev, n: choi_reshape_purity(ev, cfg.d1, ch.dim)
    else:
        kick, dec = s, analyze_peripheral(s)
        score = lambda ev, n: choi_distance(ev, peripheral_power(dec, n))
    src = cfg.hamiltonians
    if "fixture" in src:
        hams = {src["fixture"]: FIXTURE_HAMILTONIANS[src["fixture"]]}
    else:
        first = src["seed"]
        hams = {seed: random_hamiltonian(kick.dim, seed)
                for seed in range(first, first + src["random"])}
    return {(seed, n): score(plain_kicked_evolution(kick, h, cfg.t, n), n)
            for seed, h in hams.items() for n in cfg.n_values}


def with_hamiltonians(cfg, **hamiltonians):
    return replace(cfg, hamiltonians=hamiltonians)


STACKED_CASES = {
    **{fig_id: with_hamiltonians(fig.config, random=3, seed=fig.config.hamiltonians["seed"])
       for fig_id, fig in FIGURES.items()},
    **{f"{fig_id}:{fig.fixture}": with_hamiltonians(fig.config, fixture=fig.fixture)
       for fig_id, fig in FIGURES.items() if fig.fixture is not None},
    # more Hamiltonians than one chunk of 64 KiB holds: 16x16 superoperators, where the real
    # 8 x 16 rows give 64 pairs per chunk, and 64x64 ones, whose 16 x 64 rows give 8
    "fig1a:chunked": with_hamiltonians(FIGURES["fig1a"].config, random=65, seed=0),
    "fig3a:chunked": with_hamiltonians(FIGURES["fig3a"].config, random=_STACK_BYTES // 2**13 + 1,
                                       seed=0),
    # n grids that split into several blocks of several n: 64 KiB holds 8 of fig3a's real
    # 16 x 64 rows, so 2 H take blocks of 4 n; 64 of fig1a's 8 x 16, so 10 H take 6 n
    "fig3a:blocks": with_hamiltonians(FIGURES["fig3a"].config, random=2, seed=1),
    "fig1a:blocks": with_hamiltonians(FIGURES["fig1a"].config, random=10, seed=1),
    # dd shapes no figure has: d1 = 3 and d1 = 1, d2 = 3, and P_rho lifted to rank 4 of 16
    **{name: SweepConfig(channel, "dd", (1, 2, 5, 100), {"random": 3, "seed": 11}, d1=d1,
                         channel_params=params)
       for name, channel, d1, params in (
           ("updown:d1=3", "zoo:E_updown", 3, {}),
           ("triangle:d1=2", "zoo:E_triangle", 2, {}),
           ("dephase:d=3", "zoo:E_dephase", 2, {"d": 3}),
           ("P_rho:rank4", "zoo:P_rho", 2, {}),
           ("omega:d1=1", "zoo:E_omega", 1, {}),
           ("df:d1=1", "zoo:E_df", 1, {}),
       )},
}


@pytest.mark.parametrize("cfg", STACKED_CASES.values(), ids=STACKED_CASES.keys())
def test_stacked_sweep_matches_per_pair_reference(cfg):
    got = {(r.seed, r.n): r.value for r in sweep(cfg) if r.hamiltonian != "aggregate"}
    want = per_pair_reference(cfg)
    assert got.keys() == want.keys()
    assert max(abs(got[k] - want[k]) for k in want) <= 1e-12


def test_random_hamiltonian_is_its_row_of_a_sweep_chunk():
    # a chunk is the eigendata (E, U) of its draws: U diag(E) U^T is random_hamiltonian,
    # E ascends and its extreme entry is exactly +-1
    cfg = with_hamiltonians(FIGURES["fig1b"].config, random=40, seed=0)
    for d in (2, 4, 8):
        chunks = list(_hamiltonian_chunks(cfg, d, 32))
        assert [len(energies) for _, _, (energies, _) in chunks] == [32, 8]
        for seeds, _, (energies, u) in chunks:
            for seed, e, v in zip(seeds, energies, u):
                assert np.max(np.abs((v * e) @ v.T - random_hamiltonian(d, seed))) <= 1e-14
                assert np.all(np.diff(e) >= 0) and np.max(np.abs(e)) == 1.0


@pytest.mark.parametrize("cfg", [
    # 40 H (chunks of 32 + 8) whose seeds change digit count, on an unsorted n grid
    SweepConfig("zoo:E_updown", "zeno", (100, 1, 7, 2), {"random": 40, "seed": 95}),
    STACKED_CASES["fig3b:ZI"],
], ids=["random40", "fixture"])
def test_sweep_records_come_in_seed_string_then_n_order(cfg):
    records = sweep(cfg)
    assert records == sorted(records, key=lambda r: (str(r.seed), r.n))
    with pytest.raises(AttributeError):  # a record is read-only
        records[0].value = 0.0
    plain = [r for r in records if r.hamiltonian != "aggregate"]
    aggregates = {(r.seed, r.n): r.value for r in records if r.hamiltonian == "aggregate"}
    assert len(aggregates) == 3 * len(cfg.n_values)
    for n in cfg.n_values:
        vals = [v for _, v in sorted((r.seed, r.value) for r in plain if r.n == n)]
        assert aggregates["min", n] == min(vals) and aggregates["max", n] == max(vals)
        assert aggregates["mean", n] == float(np.mean(vals))


@pytest.mark.parametrize("cfg", [with_hamiltonians(FIGURES[fig_id].config, random=count, seed=0)
                                 for fig_id, count in (("fig1a", 10), ("fig1a", 100), ("fig1b", 40),
                                                       ("fig3a", 2), ("fig3a", 5), ("fig3b", 10))],
                         ids=["fig1a:10", "fig1a:100", "fig1b:40", "fig3a:2", "fig3a:5", "fig3b:10"])
def test_sweep_blocks_stay_within_the_byte_cap(cfg, monkeypatch):
    import bathdd.harness

    calls = []

    def record(factors, eigen, t, blocks):
        yielded = list(bathdd.zeno._kicked_evolutions(factors, eigen, t, blocks))
        calls.append((len(eigen[0]), blocks, factors[1].shape, [y for _, y in yielded]))
        return iter(yielded)

    scored = []  # (n, H) pairs per score call
    reduced_purity = bathdd.harness._reduced_purity
    trace_norm = bathdd.harness._hermitian_trace_norm

    def purity(lam, dim):
        scored.append(len(lam))
        return reduced_purity(lam, dim)

    def distance(diff):
        scored.append(int(np.prod(diff.shape[:-2])))
        return trace_norm(diff)

    monkeypatch.setattr(bathdd.harness, "_kicked_evolutions", record)
    monkeypatch.setattr(bathdd.harness, "_reduced_purity", purity)
    monkeypatch.setattr(bathdd.harness, "_hermitian_trace_norm", distance)
    sweep(cfg)
    assert sum(k for k, _, _, _ in calls) == cfg.hamiltonians["random"]
    assert sum(scored) == cfg.hamiltonians["random"] * len(cfg.n_values)
    # one score call per kernel block, of that block's pairs, as the block is yielded
    assert scored == [len(block) * k for k, blocks, _, _ in calls for block in blocks]
    for k, blocks, (r, big_n), ys in calls:
        assert [n for block in blocks for n in block] == sorted(cfg.n_values)
        # per (n, H) pair: the real r x N rows and the real r x (r + c) output, c = d1^2 in
        # dd mode and 2 N in zeno mode, where the N x N maps may be larger
        pair = 8 * r * max(big_n, r + (cfg.d1**2 if cfg.mode == "dd" else 2 * big_n))
        pair = pair if cfg.mode == "dd" else max(pair, 16 * big_n**2)
        assert all(len(y) == len(block) * k for block, y in zip(blocks, ys, strict=True))
        assert len(blocks[0]) * k * pair <= _STACK_BYTES
        # as many n per block as fit
        assert len(blocks) == 1 or (len(blocks[0]) + 1) * k * pair > _STACK_BYTES
    # per scored pair in dd mode: the real r x r P_n, r x d1^2 B W T^T Q and d1^2 x r
    # (Q^dag T A) P_n; in zeno mode the N x N maps
    _, _, (r, big_n), _ = calls[0]
    score_pair = 8 * r * max(r, cfg.d1**2) if cfg.mode == "dd" else 16 * big_n**2
    assert max(scored) * score_pair <= _STACK_BYTES


def kicked_products():
    """(kicked evolution, E_phi^n) pairs of every zoo kick at three n."""
    for name in builtin_names():
        s = sup(name)
        dec = analyze_peripheral(s)
        hs = np.array([random_hamiltonian(s.dim, seed) for seed in range(3)])
        for n in (1, 7, 100):
            target = peripheral_power(dec, n)
            yield name, zeno_evolution(s, hs, 1.0, n), Superoperator(s.dim, np.repeat(
                target.matrix[None], 3, axis=0))


def test_choi_distance_is_the_svd_trace_norm():
    for name, ev, target in kicked_products():
        want = np.linalg.svd(choi(ev) - choi(target), compute_uv=False).sum(axis=-1)
        assert np.max(np.abs(choi_distance(ev, target) - want)) <= 1e-14, name


def test_choi_distance_refuses_a_map_that_breaks_hermiticity():
    identity = Superoperator(2, np.eye(4))
    with pytest.raises(ValueError, match="not Hermitian"):
        choi_distance(Superoperator(2, 1j * np.eye(4)), identity)


def test_choi_distance_refuses_maps_of_different_dimensions():
    with pytest.raises(ValueError, match="dimension mismatch"):
        choi_distance(Superoperator(2, np.eye(4)), Superoperator(3, np.eye(9)))


@pytest.mark.parametrize("fig_id", ["fig1b", "fig3b"])
def test_a_zeno_sweep_refuses_block_maps_that_break_hermiticity(fig_id, monkeypatch):
    # the score checks each block's Choi difference, which is Hermitian only for HP maps
    import bathdd.harness

    kernel = bathdd.harness._kicked_evolutions

    def perturbed(*args):
        steps = kernel(*args)
        p, bw = next(steps)
        bw = bw.copy()
        bw[-1, 0, 0] += 1e-6j  # one entry of one pair's B W: i times a Hermitian column of A P
        yield p, bw
        yield from steps

    cfg = with_hamiltonians(FIGURES[fig_id].config, random=2, seed=0)
    sweep(cfg)
    monkeypatch.setattr(bathdd.harness, "_kicked_evolutions", perturbed)
    with pytest.raises(ValueError, match="not Hermitian"):
        sweep(cfg)


def recorded_chunks(monkeypatch):
    """Per chunk of each sweep from here on: (A, k Hamiltonians, [(block, P, B W), ...])."""
    import bathdd.harness

    chunks, kernel = [], bathdd.harness._kicked_evolutions

    def record(factors, eigen, t, blocks):
        chunks.append((factors[0], len(eigen[0]), []))
        for block, (p, bw) in zip(blocks, kernel(factors, eigen, t, blocks)):
            chunks[-1][2].append((block, p, bw))
            yield p, bw

    monkeypatch.setattr(bathdd.harness, "_kicked_evolutions", record)
    return chunks


def choi_difference_values(cfg, chunks):
    """{(seed, n): value} of a zeno sweep scored from its kernel's blocks as before: the Choi
    states of the maps A (P B W), as a complex product, minus that of E_phi^n, then eigvalsh
    (``choi_distance``)."""
    s = to_superoperator(_kick(cfg.channel, cfg.channel_params)[0])
    dec = analyze_peripheral(s)
    src = cfg.hamiltonians
    labels = ([src["fixture"]] if "fixture" in src
              else list(range(src["seed"], src["seed"] + src["random"])))
    values = {}
    for a, k, blocks in chunks:
        chunk, labels = labels[:k], labels[k:]
        for block, p, bw in blocks:
            maps = (a @ (p @ bw)).reshape(len(block), k, len(a), len(a))
            for n, m in zip(block, maps):
                distances = choi_distance(Superoperator(s.dim, m), peripheral_power(dec, n))
                values.update(((label, n), v) for label, v in zip(chunk, distances.tolist()))
    assert not labels
    return values


ZENO_FIGURE_CONFIGS = {
    **{fig_id: fig.config for fig_id, fig in FIGURES.items() if fig.config.mode == "zeno"},
    "fig3b:ZI": STACKED_CASES["fig3b:ZI"],
}


@pytest.mark.parametrize("cfg,exact", [
    *((cfg, True) for cfg in ZENO_FIGURE_CONFIGS.values()),
    # d = 3 is no power of two: dividing by d after the eigvalsh rounds otherwise
    *((SweepConfig(f"zoo:{name}", "zeno", FIGURES["fig1b"].config.n_values,
                   {"random": 37, "seed": 0}), False)
      for name in ("E_hook", "E_triangle", "E_square")),
], ids=[*ZENO_FIGURE_CONFIGS, "E_hook:37", "E_triangle:37", "E_square:37"])
def test_zeno_sweep_values_are_the_choi_distances_of_their_maps(cfg, exact, monkeypatch):
    chunks = recorded_chunks(monkeypatch)
    got = {(r.seed, r.n): r.value for r in sweep(cfg) if r.hamiltonian != "aggregate"}
    want = choi_difference_values(cfg, chunks)
    assert got.keys() == want.keys()
    if exact:
        assert got == want
    else:
        assert max(abs(got[key] - want[key]) for key in want) <= 1e-14


def test_dd_sweep_factors_only_the_bath_kick(monkeypatch):
    import bathdd.channel
    import bathdd.harness
    import bathdd.zeno

    def refuse(*args):
        raise AssertionError("a dd sweep formed the lifted kick")

    monkeypatch.setattr(bathdd.channel, "extend_with_identity", refuse)
    monkeypatch.setattr(bathdd.zeno, "extend_with_identity", refuse, raising=False)
    monkeypatch.setattr(bathdd.harness, "extend_with_identity", refuse, raising=False)
    for cfg, kick in ((FIGURES["fig3a"].config, sup("E_omega")),
                      (STACKED_CASES["updown:d1=3"], sup("E_updown"))):
        _plan.cache_clear()  # plans memoised by earlier sweeps
        records = sweep(with_hamiltonians(cfg, random=2, seed=0))
        assert len(records) == 5 * len(cfg.n_values)
        assert _plan.cache_info().misses == 1
        # the one entry is the traced plan of the bath kick's own factors, lifted to the d1
        _plan(kick.dim, kick.matrix.tobytes(), cfg.d1, True)
        assert _plan.cache_info()[:2] == (1, 1)


@pytest.mark.parametrize("name", builtin_names())
def test_a_dd_plan_lifts_the_kicks_own_factors_bitwise(name):
    # the traced plan lifts the kick's factors: bitwise those the untraced plan holds
    s = sup(name)
    for d1 in (1, 2, 3):
        (a, b, *_), _ = _plan(s.dim, s.matrix.tobytes(), d1, True)
        lifted = _plan(s.dim, s.matrix.tobytes(), d1, False)[0][:2]
        assert np.array_equal(a, lifted[0]) and np.array_equal(b, lifted[1])


def test_second_sweep_of_a_kick_factors_nothing():
    _plan.cache_clear()
    cfg = with_hamiltonians(FIGURES["fig3a"].config, random=2, seed=0)
    first = sweep(cfg)
    assert _plan.cache_info().misses == 1
    # the same kick with other Hamiltonians, and the same sweep again, factor nothing
    sweep(with_hamiltonians(cfg, random=2, seed=5))
    assert sweep(cfg) == first and _plan.cache_info().misses == 1
    s = sup("E_omega")
    (*factors, parts), kept = _plan(4, s.matrix.tobytes(), cfg.d1, True)
    assert parts is None
    for f in (*factors, kept):
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0, 0] = 0
    assert _plan.cache_info().misses == 1


def test_dd_evolution_after_a_dd_sweep_adds_only_its_lifted_factors():
    _plan.cache_clear()
    cfg = with_hamiltonians(FIGURES["fig3a"].config, random=2, seed=0)
    sweep(cfg)
    assert _plan.cache_info().misses == 1  # the sweep's traced plan at d1 = 2
    hs = np.array([random_hamiltonian(8, seed) for seed in range(2)])
    got = dd_evolution(sup("E_omega"), hs, cfg.t, 5, cfg.d1)
    assert _plan.cache_info().misses == 2  # and the untraced plan at d1 = 2, with R = I
    for h, m in zip(hs, got.matrix):
        want = plain_kicked_evolution(extend_with_identity(sup("E_omega"), 2), h, cfg.t, 5)
        assert np.max(np.abs(m - want.matrix)) <= 1e-12


def test_second_sweep_of_a_zoo_kick_builds_nothing(monkeypatch):
    import bathdd.harness

    counts = {"builtin": 0, "to_superoperator": 0, "validate_cptp": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in counts:
        monkeypatch.setattr(bathdd.harness, name, counted(name, getattr(bathdd.harness, name)))
    _zoo_kick.cache_clear()
    cfg = with_hamiltonians(FIGURES["fig3a"].config, random=2, seed=0)
    first = sweep(cfg)
    assert counts == {"builtin": 1, "to_superoperator": 1, "validate_cptp": 1}
    assert sweep(cfg) == first and sweep(with_hamiltonians(cfg, random=2, seed=3)) != first
    assert counts == {"builtin": 1, "to_superoperator": 1, "validate_cptp": 1}


def test_a_channel_file_is_read_on_every_sweep(tmp_path):
    path = tmp_path / "kick.json"
    cfg = SweepConfig(str(path), "zeno", (1, 2, 7), {"random": 2, "seed": 0})
    values = {}
    for name in ("E_updown", "E_dephase"):
        save_channel(builtin(name).channel, path)
        values[name] = sweep(cfg)
        fresh = sweep(replace(cfg, channel=f"zoo:{name}"))
        assert [r.value for r in values[name]] == [r.value for r in fresh]
    assert values["E_updown"] != values["E_dephase"]


@pytest.mark.parametrize("mode", ["dd", "zeno"])
def test_a_sweep_refuses_a_kick_that_is_not_cptp(mode, tmp_path):
    # with the CPTP report unread, a dd sweep returned purities and a zeno sweep failed in the
    # spectral analysis; both now raise with the CLI's wording
    path = tmp_path / "kick.json"
    path.write_text(json.dumps(NOT_CPTP))
    cfg = SweepConfig(str(path), mode, (1, 2), {"random": 2, "seed": 0})
    with pytest.raises(ValueError, match=r"^channel is not CPTP: trace residual 2\.687e-01$"):
        sweep(cfg)


def test_refused_zoo_params_raise_on_every_sweep():
    cfg = SweepConfig("zoo:E_square", "zeno", (1, 2), {"random": 2, "seed": 0},
                      channel_params={"p": 3.0})
    before = _zoo_kick.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="p in"):
            sweep(cfg)
    assert _zoo_kick.cache_info().currsize == before


def test_zoo_kicks_are_memoised_by_exact_params():
    def entry(name="E_omega", **params):
        """(misses added, kick bytes) of one sweep of this zoo kick with these params."""
        misses = _zoo_kick.cache_info().misses
        sweep(SweepConfig(f"zoo:{name}", "dd", (1, 2), {"random": 1, "seed": 0},
                          d1=2 if name == "E_omega" else 1, channel_params=params))
        return _zoo_kick.cache_info().misses - misses, sup(name, **params).matrix.tobytes()

    _zoo_kick.cache_clear()
    default = entry()
    assert default[0] == 1
    assert entry(omega=np.diag([0.3, 0.7]).tolist())[0] == 1
    # the same values as an ndarray, or as the list again, share that entry
    assert entry(omega=np.diag([0.3, 0.7]))[0] == 0
    assert entry(omega=[[0.3, 0.0], [0.0, 0.7]])[0] == 0
    # an omega that differs past a repr's 8 digits gets its own entry and its own kick
    near = entry(omega=np.diag([0.3 + 1e-12, 0.7 - 1e-12]))
    far = entry(omega=np.diag([0.3, 0.7]))
    assert near[0] == 1 and near[1] != far[1] != default[1]
    assert _zoo_kick.cache_info().currsize == 3

    def refused_0d():
        """A 0-d ndarray p has no exact form: the zoo refuses it and no entry is stored."""
        size = _zoo_kick.cache_info().currsize
        with pytest.raises(ValueError, match="p must be a real number"):
            sweep(SweepConfig("zoo:E_square", "dd", (1, 2), {"random": 1, "seed": 0},
                              channel_params={"p": np.array(0.3)}))
        assert _zoo_kick.cache_info().currsize == size

    refused_0d()
    # a numpy scalar shares the entry of the float it holds
    assert entry("E_square", p=0.3)[0] == 1 and entry("E_square", p=np.float64(0.3))[0] == 0
    refused_0d()  # whatever was memoised before
    # -0.0 is not 0.0: an omega holding it gets its own entry
    assert entry(omega=[[0.3, -0.0], [-0.0, 0.7]])[0] == 1
    assert _zoo_kick.cache_info().currsize == 5
    # a ragged omega has no exact form: it is refused on every call and never stored
    info = _zoo_kick.cache_info()
    for _ in range(3):
        with pytest.raises(ValueError):
            sweep(SweepConfig("zoo:E_omega", "dd", (1, 2), {"random": 1, "seed": 0},
                              channel_params={"omega": [[0.3, 0.0], [0.7]]}))
    assert _zoo_kick.cache_info() == info


def test_planned_kicks_are_read_only():
    from bathdd.harness import _target

    for fig, mode, d1 in (("fig3a", "dd", 2), ("fig3b", "zeno", 1)):
        cfg = with_hamiltonians(FIGURES[fig].config, random=1, seed=0)
        sweep(cfg)
        ch, _, data, _ = _kick(cfg.channel, cfg.channel_params)
        kick, memo = (ch.dim, data), _plan if mode == "dd" else _target
        misses = memo.cache_info().misses
        if mode == "dd":  # A, B, the planes of [A | T^T Q] and Q^dag T A
            (*arrays, parts), kept = _plan(*kick, d1, True)
            arrays.append(kept)
            assert parts is None
        else:  # A, B, the planes of [A | T^-1], the parts of T, and the targets
            arrays = [*_plan(*kick, d1, False)[0], *(_target(*kick, n) for n in cfg.n_values)]
        assert memo.cache_info().misses == misses  # the sweep's own plan and targets
        assert len(arrays) == 4 + (0 if mode == "dd" else len(cfg.n_values))
        for x in arrays:
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0, 0] = 0


def counted_planes(monkeypatch):
    """The kick planes built from here on: ``zeno._planes``, called only by ``zeno._plan``."""
    import bathdd.zeno

    built, planes_of = [], bathdd.zeno._planes

    def planes(*ops):
        built.append(planes_of(*ops))
        return built[-1]

    monkeypatch.setattr(bathdd.zeno, "_planes", planes)
    return built


def test_kick_planes_are_read_only_and_built_once_per_kick_and_d1(tmp_path, monkeypatch):
    built = counted_planes(monkeypatch)
    _plan.cache_clear()
    # one plan per sweep: dd the traced [A | T^T Q] at d1 = 2; fig3b's zeno sweep of fig3a's kick
    # its own untraced [A | T^-1] at d1 = 1
    for fig, new in (("fig3a", 1), ("fig1a", 1), ("fig3b", 1)):
        cfg = with_hamiltonians(FIGURES[fig].config, random=2, seed=0)
        count = len(built)
        first = sweep(cfg)
        assert len(built) - count == new
        assert sweep(cfg) == first and sweep(with_hamiltonians(cfg, random=3, seed=4)) != first
        assert len(built) - count == new  # a second sweep of the kick builds none
    for planes in built:
        assert not planes.flags.writeable
        with pytest.raises(ValueError):
            planes[0, 0] = 0
    # a channel file rewritten between two sweeps is a new kick, with new planes
    path = tmp_path / "kick.json"
    cfg = SweepConfig(str(path), "dd", (1, 2, 7), {"random": 2, "seed": 0})
    for name, new in (("E_hook", 1), ("E_hook", 0), ("E_triangle", 1)):
        save_channel(builtin(name).channel, path)
        count = len(built)
        sweep(cfg)
        assert len(built) - count == new, name


@pytest.mark.parametrize("cfg,chunks", [
    (with_hamiltonians(FIGURES["fig3a"].config, random=37, seed=0), 5),  # 8 H a chunk
    (with_hamiltonians(FIGURES["fig1b"].config, random=4, seed=0), 1),
    (STACKED_CASES["fig3b:ZI"], 1),
], ids=["fig3a:37", "fig1b:4", "fig3b:ZI"])
def test_a_sweep_chunk_takes_one_sandwich(cfg, chunks, monkeypatch):
    # one product of the planned planes takes a chunk's rows and columns to H's eigenbasis,
    # whatever its blocks of n; a planned kick stacks no operators again
    import bathdd.harness
    import bathdd.zeno

    sweep(cfg)  # plans the kick
    calls = {"_sandwich": 0, "hstack": 0, "chunks": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(bathdd.zeno, "_sandwich", counted("_sandwich", bathdd.zeno._sandwich))
    monkeypatch.setattr(bathdd.harness, "_kicked_evolutions",
                        counted("chunks", bathdd.harness._kicked_evolutions))
    monkeypatch.setattr(np, "hstack", counted("hstack", np.hstack))
    sweep(cfg)
    assert calls == {"_sandwich": chunks, "hstack": 0, "chunks": chunks}


def head_records(cfg, records):
    """The records of a sweep rebuilt from its per-Hamiltonian values as they were built before
    the three reductions: one dict of series, np.min/np.max/np.mean and sorted(..., key=str)."""
    ns = sorted(cfg.n_values)
    plain = [r for r in records if r.hamiltonian != "aggregate"]
    series = {}
    for r in sorted(plain, key=lambda r: (r.seed if r.hamiltonian == "random" else 0, r.n)):
        series.setdefault(r.seed, []).append(r.value)
    values = np.ascontiguousarray(np.array(list(series.values())).T)  # (n, H), in draw order
    aggregates = {tag: f(values, axis=1).tolist()
                  for tag, f in (("min", np.min), ("max", np.max), ("mean", np.mean))}
    series = {**dict(zip(series, values.T.tolist())), **aggregates}
    return [SweepRecord(n, plain[0].metric_name, v, label, cfg.channel,
                        "aggregate" if label in aggregates else plain[0].hamiltonian, cfg.t)
            for label in sorted(series, key=str) for n, v in zip(ns, series[label])]


@pytest.mark.parametrize("fig_id", FIGURES)
def test_sweep_records_equal_those_built_per_record(fig_id):
    fig = FIGURES[fig_id]
    configs = [with_hamiltonians(fig.config, random=count, seed=3) for count in (2, 4, 10, 37)]
    if fig.fixture is not None:
        configs.append(with_hamiltonians(fig.config, fixture=fig.fixture))
    for cfg in configs:
        records = sweep(cfg)
        want = head_records(cfg, records)
        assert records == want
        for got, ref in zip(records, want, strict=True):
            assert type(got) is SweepRecord
            assert [type(x) for x in got] == [type(x) for x in ref]


def test_zeno_figure_grids_build_no_target_after_their_first_sweep():
    from bathdd.harness import _target

    configs = [with_hamiltonians(FIGURES[fig].config, random=2, seed=0)
               for fig in ("fig1b", "fig2b", "fig3b")]
    for cfg in configs:
        sweep(cfg)
    misses = _target.cache_info().misses
    for cfg in configs:
        sweep(with_hamiltonians(cfg, random=3, seed=7))
    assert _target.cache_info().misses == misses


# three zeno sweeps of the 64 x 64 E_df over distinct 200-point n grids in a fresh interpreter:
# the peak RSS in KiB after each
RSS_SCRIPT = """
import resource
from bathdd.harness import SweepConfig, sweep
for first in (1, 1001, 2001):
    sweep(SweepConfig("zoo:E_df", "zeno", tuple(range(first, first + 200)), {"random": 1}))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_zeno_sweeps_over_new_n_grids_hold_no_more_memory():
    # the targets are memoised per (kick, n), at most _CACHE_SIZE of them, not per n grid
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", RSS_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    first, _, third = map(int, proc.stdout.split())
    assert third - first <= 10 * 1024


def test_sweep_deterministic_replay(tmp_path):
    from bathdd.harness import write_records_csv

    cfg = dict(channel="zoo:E_updown", mode="zeno", n_values=(2, 8),
               hamiltonians={"random": 2, "seed": 9})
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(sweep(SweepConfig(**cfg)), p1)
    write_records_csv(sweep(SweepConfig(**cfg)), p2)
    assert p1.read_bytes() == p2.read_bytes()


# --- figure reproduction -----------------------------------------------------


def read_series(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}


def test_reproduce_unknown_id(tmp_path):
    with pytest.raises(KeyError):
        reproduce("fig9z", tmp_path)


def test_reproduce_fig2a_writes_its_sweep_rows(tmp_path):
    # fig2a: the ZZ fixture rows and the mean aggregate of 100 random H
    random_cfg = SweepConfig(
        channel="zoo:E_dephase",
        mode="dd",
        n_values=(1, 2, 5, 10, 20, 50, 100),
        hamiltonians={"random": 100, "seed": 20240927 + 2000},
        channel_params={"d": 2},
    )
    fixture_cfg = SweepConfig(**{**vars(random_cfg), "hamiltonians": {"fixture": "ZZ"}})
    reproduce("fig2a", tmp_path)
    for series, cfg, seed in (("fixture", fixture_cfg, "ZZ"), ("random", random_cfg, "mean")):
        rows = sorted((r for r in sweep(cfg) if r.seed == seed), key=lambda r: r.n)
        assert [r.n for r in rows] == list(cfg.n_values)
        want = ["n,P"] + [f"{r.n},{r.value:.12g}" for r in rows]
        assert (tmp_path / f"fig2a_{series}.csv").read_text().splitlines() == want


def test_reproduce_fig2b(tmp_path):
    files = reproduce("fig2b", tmp_path)
    csvs = [f for f in files if f.suffix == ".csv"]
    header, series = read_series(csvs[0])
    assert header == "n,error"
    for n, v in series.items():
        if n >= 4:
            assert v <= 1.5 * 2 / n
    sidecar = json.loads((tmp_path / "fig2b.json").read_text())
    assert sidecar["channel"] == "zoo:E_dephase"
    assert sidecar["t"] == 1.0


def test_reproduce_fig1b_single_step(tmp_path):
    files = reproduce("fig1b", tmp_path)
    _, series = read_series(files[0])
    assert series[1] <= 2.7 * 1.5


def test_reproduce_fig3a(tmp_path):
    files = reproduce("fig3a", tmp_path)
    by_name = {f.name: f for f in files}
    _, fixture = read_series(by_name["fig3a_fixture.csv"])
    assert all(abs(v - 0.59) <= 0.02 for v in fixture.values())
    header, rand = read_series(by_name["fig3a_random.csv"])
    assert header == "n,P"
    assert abs(rand[100] - 0.91) <= 0.03
