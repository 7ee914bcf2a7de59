import numpy as np
import pytest

from bathdd.channel import KrausChannel, Superoperator, identity_superoperator, to_superoperator
from bathdd.classify import classify, cycle_structure
from bathdd.zeno import suppression_check
from bathdd.zoo import builtin, names
from test_zeno import random_stinespring


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
    assert cycle_structure(to_superoperator(builtin("E_triangle").channel)).lengths == (3,)
    assert cycle_structure(to_superoperator(builtin("E_updown").channel)).lengths == (2,)
    cs = cycle_structure(to_superoperator(builtin("E_dephase", d=2).channel))
    assert cs.lengths == (1, 1)
    assert not cs.unique


def test_cycle_structure_identity():
    cs = cycle_structure(identity_superoperator(2))
    assert cs.lengths == (1, 1, 1, 1)
    assert not cs.unique


def mixture(s_a, s_b, w):
    return Superoperator(s_a.dim, w * s_a.matrix + (1 - w) * s_b.matrix)


def test_ergodic_mixtures_stay_ergodic():
    # mixing a little ergodicity into anything on the same space keeps a
    # unique fixed point
    erg = to_superoperator(builtin("E_updown").channel)
    deph = to_superoperator(builtin("E_dephase", d=2).channel)
    c = classify(mixture(erg, deph, 0.1))
    assert c.ergodic


def test_mixture_with_identity_is_mixing():
    erg = to_superoperator(builtin("E_updown").channel)
    c = classify(mixture(erg, identity_superoperator(2), 0.1))
    assert c.mixing


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


def flip_times_unitary(seed):
    flip = builtin("E_updown").channel.kraus
    u = random_unitary(2, seed)
    return to_superoperator(KrausChannel(4, tuple(np.kron(k, u) for k in flip)))


THEOREM_KICKS = {
    **{name: lambda name=name: to_superoperator(builtin(name).channel) for name in names()},
    **{f"E_df_phases_{seed}": lambda seed=seed: to_superoperator(builtin(
        "E_df", u0=diagonal_unitary(2, seed), u1=diagonal_unitary(2, seed + 1)).channel)
       for seed in (1, 2)},
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
    assert cycle_structure(s, tol=1e-5).lengths == classify(s, tol=1e-5).cycle_lengths == (2,)
