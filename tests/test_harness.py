import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from bathdd.channel import (KrausChannel, Superoperator, choi, extend_with_identity,
                            to_superoperator)
from bathdd.hamiltonian import random_hamiltonian
from bathdd.harness import (
    _STACK_BYTES,
    _hamiltonian_chunks,
    _plan,
    _zoo_kick,
    FIGURES,
    FIXTURE_HAMILTONIANS,
    MAX_N,
    SweepConfig,
    choi_distance,
    reduced_choi_purity,
    reproduce,
    resolve_channel,
    sweep,
)
from bathdd.linalg import kron
from bathdd.spectral import analyze_peripheral, peripheral_power
from bathdd.zeno import _factor_kick, dd_evolution, zeno_evolution
from bathdd.zoo import builtin, pauli
from bathdd.zoo import names as builtin_names


def sup(name, **params):
    return to_superoperator(builtin(name, **params).channel)


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
    from bathdd.zeno import _factor_kick, dd_evolution, zeno_evolution

    # the target of full suppression, H_Z = 0, is E_phi^n
    s = sup("E_omega")
    dec = analyze_peripheral(s)
    h = kron(pauli("z"), np.eye(2))
    for n in (1, 10, 100):
        dist = choi_distance(zeno_evolution(s, h, 1.0, n), peripheral_power(dec, n))
        assert dist == pytest.approx(1.68, abs=0.02)


def test_resolve_channel(tmp_path):
    ch = resolve_channel("zoo:E_square", {"p": 0.25})
    assert ch.dim == 3
    from test_channel import save_channel

    p = tmp_path / "c.json"
    save_channel(ch, p)
    back = resolve_channel(str(p))
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


def plain_kicked_evolution(kick, h, t, n):
    """(S W)^n with W = V kron conj(V) and V = expm(-i (t/n) H): the unfactored
    n-fold product, built without bathdd's kicked-evolution code."""
    v = scipy.linalg.expm(-1j * t / n * h)
    return Superoperator(kick.dim, np.linalg.matrix_power(kick.matrix @ kron(v, v.conj()), n))


def per_pair_reference(cfg):
    """{(seed, n): value} from one plain kicked evolution and one metric
    call per (H, n), with the purity taken from the full Choi state."""
    ch = resolve_channel(cfg.channel, cfg.channel_params)
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
    # more Hamiltonians than one chunk of 64 KiB holds: 16x16 superoperators, where r = 8
    # and N = 16 give 32 pairs per chunk, and 64x64 ones, 4 pairs per chunk
    "fig1a:chunked": with_hamiltonians(FIGURES["fig1a"].config, random=37, seed=0),
    "fig3a:chunked": with_hamiltonians(FIGURES["fig3a"].config, random=_STACK_BYTES // 2**14 + 1,
                                       seed=0),
    # n grids that split into several blocks of several n: 64 KiB holds 4 of fig3a's
    # (16 x 64) B W, so 2 H take blocks of 2 n; 32 of fig1a's (8 x 16), so 10 H take 3 n
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
    cfg = with_hamiltonians(FIGURES["fig1b"].config, random=40, seed=0)
    for d in (2, 4, 8):
        chunks = list(_hamiltonian_chunks(cfg, d, 32))
        assert [len(hs) for _, _, hs in chunks] == [32, 8]
        for seeds, _, hs in chunks:
            for seed, h in zip(seeds, hs):
                assert np.array_equal(random_hamiltonian(d, seed), h)


@pytest.mark.parametrize("cfg", [
    # 40 H (chunks of 32 + 8) whose seeds change digit count, on an unsorted n grid
    SweepConfig("zoo:E_updown", "zeno", (100, 1, 7, 2), {"random": 40, "seed": 95}),
    STACKED_CASES["fig3b:ZI"],
], ids=["random40", "fixture"])
def test_sweep_records_come_in_seed_string_then_n_order(cfg):
    records = sweep(cfg)
    assert records == sorted(records, key=lambda r: (str(r.seed), r.n))
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

    def record(factors, hs, t, blocks, rt):
        yielded = list(bathdd.zeno._kicked_evolutions(factors, hs, t, blocks, rt))
        calls.append((len(hs), blocks, factors[1].shape, [y for _, y in yielded]))
        return iter(yielded)

    scored = []  # (n, H) pairs per score call
    reduced_purity, distance_of = bathdd.harness._reduced_purity, bathdd.harness.choi_distance

    def purity(lam, dim):
        scored.append(len(lam))
        return reduced_purity(lam, dim)

    def distance(s_a, s_b):
        scored.append(len(s_a.matrix))
        return distance_of(s_a, s_b)

    monkeypatch.setattr(bathdd.harness, "_kicked_evolutions", record)
    monkeypatch.setattr(bathdd.harness, "_reduced_purity", purity)
    monkeypatch.setattr(bathdd.harness, "choi_distance", distance)
    sweep(cfg)
    assert sum(k for k, _, _, _ in calls) == cfg.hamiltonians["random"]
    assert sum(scored) == cfg.hamiltonians["random"] * len(cfg.n_values)
    for k, blocks, (r, big_n), ys in calls:
        assert [n for block in blocks for n in block] == sorted(cfg.n_values)
        # per (n, H) pair: the r x N B Phi, or in zeno mode the larger N x N map
        pair = max(16 * r * big_n, 16 * big_n**2 if cfg.mode == "zeno" else 0)
        assert all(len(y) == len(block) * k for block, y in zip(blocks, ys, strict=True))
        assert len(blocks[0]) * k * pair <= _STACK_BYTES
        # as many n per block as fit
        assert len(blocks) == 1 or (len(blocks[0]) + 1) * k * pair > _STACK_BYTES
    # per scored pair in dd mode: the real r x r P_n, the r x d1^2 B W T^T and the d1^2 x r
    # (T A) P_n; in zeno mode the N x N maps
    _, _, (r, big_n), _ = calls[0]
    score_pair = 8 * r * max(r, 2 * cfg.d1**2) if cfg.mode == "dd" else 16 * big_n**2
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
        _factor_kick.cache_clear()  # factors memoised by earlier sweeps
        _plan.cache_clear()  # and the plans that hold them
        records = sweep(with_hamiltonians(cfg, random=2, seed=0))
        assert len(records) == 5 * len(cfg.n_values)
        assert _factor_kick.cache_info().misses == 1
        # the one entry is the bath kick's factors at the sweep's d1
        _factor_kick(kick.dim, kick.matrix.tobytes(), cfg.d1)
        assert _factor_kick.cache_info()[:2] == (1, 1)


def test_second_sweep_of_a_kick_factors_nothing():
    _factor_kick.cache_clear()
    _plan.cache_clear()
    cfg = with_hamiltonians(FIGURES["fig3a"].config, random=2, seed=0)
    first = sweep(cfg)
    assert _factor_kick.cache_info().misses == 1
    # the same kick with other Hamiltonians, and the same sweep again, factor nothing
    sweep(with_hamiltonians(cfg, random=2, seed=5))
    assert sweep(cfg) == first and _factor_kick.cache_info().misses == 1
    s = sup("E_omega")
    for f in _factor_kick(4, s.matrix.tobytes(), 2):
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0, 0] = 0
    assert _factor_kick.cache_info().misses == 1


def test_sweep_then_dd_evolution_of_its_kick_factors_nothing_more():
    _factor_kick.cache_clear()
    cfg = with_hamiltonians(FIGURES["fig3a"].config, random=2, seed=0)
    sweep(cfg)
    hs = np.array([random_hamiltonian(8, seed) for seed in range(2)])
    got = dd_evolution(sup("E_omega"), hs, cfg.t, 5, cfg.d1)
    assert _factor_kick.cache_info().misses == 1
    for h, m in zip(hs, got.matrix):
        want = plain_kicked_evolution(extend_with_identity(sup("E_omega"), 2), h, cfg.t, 5)
        assert np.max(np.abs(m - want.matrix)) <= 1e-12


def test_second_sweep_of_a_zoo_kick_builds_nothing(monkeypatch):
    import bathdd.harness

    counts = {"builtin": 0, "to_superoperator": 0}

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
    assert counts == {"builtin": 1, "to_superoperator": 1}
    assert sweep(cfg) == first and sweep(with_hamiltonians(cfg, random=2, seed=3)) != first
    assert counts == {"builtin": 1, "to_superoperator": 1}


def test_a_channel_file_is_read_on_every_sweep(tmp_path):
    from test_channel import save_channel

    path = tmp_path / "kick.json"
    cfg = SweepConfig(str(path), "zeno", (1, 2, 7), {"random": 2, "seed": 0})
    values = {}
    for name in ("E_updown", "E_dephase"):
        save_channel(builtin(name).channel, path)
        values[name] = sweep(cfg)
        fresh = sweep(replace(cfg, channel=f"zoo:{name}"))
        assert [r.value for r in values[name]] == [r.value for r in fresh]
    assert values["E_updown"] != values["E_dephase"]


def test_refused_zoo_params_raise_on_every_sweep():
    cfg = SweepConfig("zoo:E_square", "zeno", (1, 2), {"random": 2, "seed": 0},
                      channel_params={"p": 3.0})
    before = _zoo_kick.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="p in"):
            sweep(cfg)
    assert _zoo_kick.cache_info().currsize == before


def test_zoo_kicks_are_memoised_by_exact_params():
    def entry(**params):
        """(misses added, kick bytes) of one sweep of E_omega with these params."""
        misses = _zoo_kick.cache_info().misses
        sweep(SweepConfig("zoo:E_omega", "dd", (1, 2), {"random": 1, "seed": 0},
                          channel_params=params))
        return _zoo_kick.cache_info().misses - misses, sup("E_omega", **params).matrix.tobytes()

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


def test_planned_kicks_are_read_only():
    from bathdd.harness import _kick

    for fig, mode, d1 in (("fig3a", "dd", 2), ("fig3b", "zeno", 1)):
        cfg = with_hamiltonians(FIGURES[fig].config, random=1, seed=0)
        ns = () if mode == "dd" else cfg.n_values
        sweep(cfg)
        misses = _plan.cache_info().misses
        planned = _plan(*_kick(cfg.channel, cfg.channel_params), mode, d1, ns)
        assert _plan.cache_info().misses == misses  # the sweep's own plan
        arrays = [x for x in planned if x is not None]
        assert len(arrays) == (4 if mode == "dd" else 3)
        for x in arrays:
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0, 0] = 0


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
