import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bathdd.channel import KrausChannel, Superoperator, to_superoperator
from bathdd.classify import _cycle_lengths, classify
from bathdd.spectral import SpectralError, analyze_peripheral
from bathdd.zeno import suppression_check
from bathdd.zoo import DF_RHO0, DF_RHO1, builtin, names
from test_zeno import STINESPRING_KRAUS, random_stinespring

IDENTITY_2 = Superoperator(2, np.eye(4))


@pytest.mark.parametrize("name", names())
def test_zoo_expected_profiles(name):
    entry = builtin(name)
    c = classify(to_superoperator(entry.channel), name=name)
    e = entry.expected
    assert c.dim_fixed == e.dim_fixed
    assert c.dim_recurrent == e.dim_recurrent
    assert c.ergodic == e.ergodic
    assert c.mixing == e.mixing
    assert c.irreducible == e.irreducible
    assert c.dfs_free == e.dfs_free
    assert c.cycle_lengths == e.cycle_lengths
    assert c.cycles_unique == e.cycles_unique


@pytest.mark.parametrize("name", names())
def test_implications(name):
    c = classify(to_superoperator(builtin(name).channel))
    if c.mixing:
        assert c.ergodic
    if c.ergodic:
        assert c.dfs_free
    if c.irreducible:
        assert c.ergodic
    if c.dfs_free:
        assert sum(c.cycle_lengths) == c.dim_recurrent


def test_square_irreducibility_range():
    for p in (0.1, 0.5, 0.9):
        c = classify(to_superoperator(builtin("E_square", p=p).channel))
        assert c.ergodic and c.irreducible and not c.mixing


def test_p_rho_rank_deficient_not_irreducible():
    entry = builtin("P_rho", rho=np.diag([1.0, 0.0]))
    c = classify(to_superoperator(entry.channel))
    assert c.ergodic and c.mixing and not c.irreducible


def test_cycle_structures():
    assert classify(to_superoperator(builtin("E_triangle").channel)).cycle_lengths == (3,)
    assert classify(to_superoperator(builtin("E_updown").channel)).cycle_lengths == (2,)
    c = classify(to_superoperator(builtin("E_dephase", d=2).channel))
    assert c.cycle_lengths == (1, 1)
    assert not c.cycles_unique


def test_cycle_structure_identity():
    # the identity channel is one decoherence-free subsystem: cycle lengths
    # are defined only for DFS-free kicks
    c = classify(IDENTITY_2)
    assert not c.dfs_free
    assert c.cycle_lengths == ()


@pytest.mark.parametrize("name", ["E_omega", "E_df"])
def test_kicks_with_a_dfs_have_no_cycle_lengths(name):
    c = classify(to_superoperator(builtin(name).channel))
    assert not c.dfs_free
    assert c.cycle_lengths == ()


def mixture(s_a, s_b, w):
    return Superoperator(s_a.dim, w * s_a.matrix + (1 - w) * s_b.matrix)


def test_ergodic_mixtures_stay_ergodic():
    # mixing a little ergodicity into anything on the same space keeps a
    # unique fixed point
    erg = to_superoperator(builtin("E_updown").channel)
    deph = to_superoperator(builtin("E_dephase", d=2).channel)
    c = classify(mixture(erg, deph, 0.1))
    assert c.ergodic


@pytest.fixture(scope="module")
def updown():
    return to_superoperator(builtin("E_updown").channel)


def test_mixture_with_identity_is_mixing(updown):
    c = classify(mixture(updown, IDENTITY_2, 0.1))
    assert c.mixing


def test_updown_identity_mixtures_across_the_cut(updown):
    # weight p of the identity moves the flip eigenvalue -1 to -1 + 2p, which
    # crosses the peripheral cut 1 - tol at p = 5e-9: every point of the grid
    # is either a 2-cycle or mixing, and none raises
    lengths = [classify(mixture(IDENTITY_2, updown, p)).cycle_lengths
               for p in np.linspace(4.9e-9, 5.1e-9, 201)]
    assert set(lengths) <= {(2,), (1,)}
    assert lengths[0] == (2,) and lengths[-1] == (1,)


def test_unitary_channel_not_dfs_free():
    # a nontrivial unitary acts unitarily on its whole algebra: the entire
    # space is decoherence-free
    u = np.diag([1.0, np.exp(0.7j)]).astype(complex)
    c = classify(to_superoperator(KrausChannel(2, (u,))))
    assert not c.ergodic
    assert not c.dfs_free


def diagonal_unitary(d, seed):
    return np.diag(np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=d)))


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


def df_with_unitaries(u0, u1):
    """E_df's Kraus formula with other unitaries U0, U1 on the decoherence-free
    factor: |1><0| kron U1 kron sqrt(p_a) |a><b| for rho1 = diag(p), and
    |0><1| kron U0 likewise for rho0."""
    flips = (np.array([[0, 0], [1, 0]]), np.array([[0, 1], [0, 0]]))
    kraus = [np.kron(np.kron(flip, u), np.sqrt(rho[a, a]) * np.outer(np.eye(2)[a], np.eye(2)[b]))
             for flip, u, rho in zip(flips, (u1, u0), (DF_RHO1, DF_RHO0))
             for a in range(2) for b in range(2)]
    return to_superoperator(KrausChannel(8, tuple(kraus)))


def flip_times_unitary(seed):
    flip = builtin("E_updown").channel.kraus
    u = random_unitary(2, seed)
    return to_superoperator(KrausChannel(4, tuple(np.kron(k, u) for k in flip)))


THEOREM_KICKS = {
    **{name: lambda name=name: to_superoperator(builtin(name).channel) for name in names()},
    **{f"E_df_phases_{seed}": lambda seed=seed: df_with_unitaries(
        diagonal_unitary(2, seed), diagonal_unitary(2, seed + 1)) for seed in (1, 2)},
    **{f"stinespring_{d}_{rank}": lambda d=d, rank=rank: random_stinespring(d, rank, 10 * d + rank)
       for d in range(2, 7) for rank in (1, 2, 3)},
    **{f"unitary_{d}": lambda d=d: to_superoperator(KrausChannel(d, (random_unitary(d, d),)))
       for d in (2, 3)},
    **{f"flip_x_unitary_{seed}": lambda seed=seed: flip_times_unitary(seed) for seed in (1, 2)},
}


@pytest.mark.parametrize("kick", THEOREM_KICKS)
def test_dfs_free_iff_every_hamiltonian_suppressed(kick):
    # the paper's theorem: repeated kicks nullify every Hamiltonian exactly
    # when the kick has no decoherence-free subsystem
    s = THEOREM_KICKS[kick]()
    rng = np.random.default_rng(len(kick))
    suppressed = []
    for _ in range(3):
        g = rng.standard_normal((s.dim, s.dim)) + 1j * rng.standard_normal((s.dim, s.dim))
        suppressed.append(suppression_check(s, (g + g.conj().T) / 2))
    assert classify(s).dfs_free == all(suppressed)


def test_cycle_structure_analyses_at_its_tol():
    # spin flip mixed with weight 1e-6 of the identity: -0.999998 is
    # peripheral at tol 1e-5 and forms a 2-cycle with 1
    p = 1e-6
    flip = np.sqrt(1 - p) * np.array([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    s = to_superoperator(KrausChannel(2, (*flip, np.sqrt(p) * np.eye(2))))
    assert classify(s, tol=1e-5).cycle_lengths == (2,)


def permutation_kick(cycles, transient, seed):
    """Kraus operators |pi(i)><i| of a permutation with the given cycles, plus
    |0><t| for one transient level t if asked, conjugated by a random unitary."""
    d = sum(cycles) + transient
    kraus, start = [], 0
    for length in cycles:
        for i in range(start, start + length):
            kraus.append(np.outer(np.eye(d)[start + (i - start + 1) % length], np.eye(d)[i]))
        start += length
    if transient:
        kraus.append(np.outer(np.eye(d)[0], np.eye(d)[d - 1]))
    u = random_unitary(d, seed)
    return to_superoperator(KrausChannel(d, tuple(u @ k @ u.conj().T for k in kraus)))


PERMUTATION_CYCLES = [(3, 2, 1), (2, 2), (4, 2), (3, 3, 1), (6, 1), (5,), (4, 3), (2, 2, 2, 1)]


@pytest.mark.parametrize("transient", [0, 1], ids=["steady", "transient"])
@pytest.mark.parametrize("cycles", PERMUTATION_CYCLES,
                         ids=["-".join(map(str, c)) for c in PERMUTATION_CYCLES])
def test_permutation_kick_cycle_lengths(cycles, transient):
    c = classify(permutation_kick(cycles, transient, seed=sum(cycles) + transient))
    assert c.dfs_free
    assert c.dim_recurrent == sum(cycles)
    assert c.cycle_lengths == tuple(sorted(cycles, reverse=True))
    assert c.cycles_unique == (len(cycles) == 1)


def test_cycle_lengths_reject_a_spectrum_that_is_no_union_of_root_groups():
    dec = analyze_peripheral(to_superoperator(builtin("E_triangle").channel))
    third = np.exp(2j * np.pi / 3)
    with pytest.raises(SpectralError, match="root-of-unity"):
        _cycle_lengths(dataclasses.replace(dec, peripheral_values=np.array([1, third, third])))


def svd_nullity(kraus):
    """The fixed-space dimension with no bathdd call: the singular values of S - I below 1e-7,
    S = sum_k K kron conj(K) built here."""
    s = sum(np.kron(k, k.conj()) for k in kraus)
    return int(np.sum(np.linalg.svd(s - np.eye(len(s)), compute_uv=False) < 1e-7))


@settings(max_examples=40, deadline=None)
@given(STINESPRING_KRAUS)
def test_dim_fixed_is_the_svd_nullity_of_s_minus_i(kraus):
    s = to_superoperator(KrausChannel(len(kraus[0]), kraus))
    assert classify(s).dim_fixed == svd_nullity(kraus)


@settings(max_examples=40, deadline=None)
@given(STINESPRING_KRAUS, st.integers(0, 2**32 - 1))
def test_every_verdict_is_invariant_under_unitary_conjugation(kraus, seed):
    d = len(kraus[0])
    v = random_unitary(d, seed)
    conjugated = tuple(v @ k @ v.conj().T for k in kraus)
    a, b = (classify(to_superoperator(KrausChannel(d, ks))) for ks in (kraus, conjugated))
    assert a.to_record() == b.to_record()
