import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bathdd.channel import (
    KrausChannel,
    Superoperator,
    _hermitian_coordinates,
    _lift,
    _matrix_to_pairs,
    extend_with_identity,
    to_superoperator,
)
from bathdd.hamiltonian import _random_hamiltonians, adjoint_rep, random_hamiltonian, schmidt
from bathdd.harness import choi_distance
from bathdd.classify import classify
from bathdd.cli import main as cli_main
from bathdd.linalg import expm, kron
from bathdd.spectral import analyze_peripheral, fixed_point_state
from bathdd.zeno import (
    DD_TOL,
    _eigensystem,
    _kicked_evolutions,
    _plan,
    _zeno_frame,
    _zeno_residual,
    dd_check,
    dd_evolution,
    suppression_check,
    zeno_evolution,
    zeno_hamiltonian,
)
from bathdd.zoo import builtin, names, pauli
from helpers import (
    STINESPRING_KRAUS,
    plain_kicked_evolution,
    projections,
    random_hermitian,
    random_stinespring,
    random_unitary,
    stinespring_kraus,
    sup,
)

Z = pauli("z")
X = pauli("x")
EYE2 = np.eye(2, dtype=complex)


def factor_kick(s):
    return _plan(s.dim, s.matrix.tobytes(), 1, False)[0]


def random_bloch(seed):
    rng = np.random.default_rng(seed)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    return n[0] * X + n[1] * pauli("y") + n[2] * Z


# --- Zeno Hamiltonian --------------------------------------------------------


def test_zeno_hamiltonian_block_structure():
    s = sup("E_updown")
    dec = analyze_peripheral(s)
    hz = zeno_hamiltonian(dec, random_bloch(3))
    proj = projections(dec)
    for i, pi in enumerate(proj):
        for j, pj in enumerate(proj):
            block = pi @ hz.matrix @ pj
            if i != j:
                assert np.linalg.norm(block) < 1e-8


def test_updown_kills_product_hamiltonians():
    # frequent spin flips on the bath cancel any sigma kron sigma coupling
    dec = analyze_peripheral(extend_with_identity(sup("E_updown"), 2))
    for seed in range(5):
        h = kron(random_bloch(seed), random_bloch(seed + 100))
        hz = zeno_hamiltonian(dec, h)
        assert np.linalg.norm(hz.matrix) < 1e-8


def test_dephasing_suppresses_qubit_hamiltonians():
    s = sup("E_dephase", d=2)
    for seed in range(5):
        assert suppression_check(s, random_bloch(seed))


def test_reset_channel_zeno_hamiltonian_formula():
    # bath-reset kick: H_Z equals the commutator generator composed with the
    # kick, hence nonzero for H = Z kron I
    s = sup("E_omega")
    dec = analyze_peripheral(s)
    h = kron(Z, EYE2)
    hz = zeno_hamiltonian(dec, h)
    assert np.allclose(hz.matrix, adjoint_rep(h).matrix @ s.matrix, atol=1e-10)
    assert np.linalg.norm(hz.matrix) > 1.0
    assert not suppression_check(s, h)


def test_suppression_identity_hamiltonian():
    for name in ("E_updown", "E_omega"):
        s = sup(name)
        assert suppression_check(s, np.eye(s.dim, dtype=complex))


# --- evolutions --------------------------------------------------------------


def test_zeno_evolution_degenerate_cases():
    s = sup("E_updown")
    h = random_bloch(0)
    assert np.allclose(zeno_evolution(s, h, 0.0, 1).matrix, s.matrix)
    free = zeno_evolution(Superoperator(2, np.eye(4)), h, 1.0, 7)
    assert np.allclose(free.matrix, expm(-1j * adjoint_rep(h).matrix), atol=1e-12)
    with pytest.raises(ValueError):
        zeno_evolution(s, h, 1.0, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zeno_evolution_refuses_phases_past_the_float_range():
    s = sup("E_updown")
    h = np.diag([1.0, -1.0])  # the largest gap is 2
    with pytest.raises(ValueError, match="overflow"):
        zeno_evolution(s, h, 1e308, 1)
    with pytest.raises(ValueError, match="overflow"):
        dd_evolution(s, kron(h, h), -1e308, 1, 2)
    # (t/n) 2 is finite from n = 2 on
    assert np.isfinite(zeno_evolution(s, h, 1e308, 2).matrix).all()


def test_zeno_evolution_approaches_channel_powers():
    s = sup("E_updown")
    n = 100
    s_n = Superoperator(s.dim, np.linalg.matrix_power(s.matrix, n))
    for seed in range(5):
        h = random_bloch(seed)
        dist = choi_distance(zeno_evolution(s, h, 1.0, n), s_n)
        assert dist <= 1.5 * 2.7 / n


def test_zeno_evolution_stack_matches_single_calls():
    for kick in (sup("E_updown"), extend_with_identity(sup("E_omega"), 2)):
        hs = np.array([random_hamiltonian(kick.dim, seed) for seed in range(5)])
        for n in (1, 7, 100):
            got = zeno_evolution(kick, hs, 0.9, n).matrix
            assert got.shape == (5, kick.dim**2, kick.dim**2)
            for h, m in zip(hs, got):
                assert np.max(np.abs(m - zeno_evolution(kick, h, 0.9, n).matrix)) <= 1e-12


def test_zeno_evolution_stack_with_one_non_hermitian_raises():
    s = sup("E_updown")
    hs = np.array([random_hamiltonian(2, seed) for seed in range(4)])
    hs[0] *= 1e6  # a large matrix must not loosen the check of the others
    hs[2, 0, 1] += 1e-9j
    with pytest.raises(ValueError):
        zeno_evolution(s, hs, 1.0, 3)
    hs[2, 0, 1] -= 1e-9j
    assert zeno_evolution(s, hs, 1.0, 3).matrix.shape == (4, 4, 4)


def test_dd_evolution_matches_extended_zeno():
    s2 = sup("E_updown")
    h = kron(random_bloch(5), random_bloch(6))
    a = dd_evolution(s2, h, 1.0, 4, 2)
    b = zeno_evolution(extend_with_identity(s2, 2), h, 1.0, 4)
    assert np.allclose(a.matrix, b.matrix)


# --- dd_check ----------------------------------------------------------------


def test_dd_check_updown_example():
    s2 = sup("E_updown")
    h = kron(X, Z) + kron(Z, EYE2)
    v = dd_check(s2, h, 2)
    assert v.works
    assert v.kick_ergodic
    assert v.residual <= 1e-8
    # tr_2[(I kron rho_*) H] = tr(Z I/2) X + Z = Z
    assert np.allclose(v.effective_hamiltonian, Z, atol=1e-12)
    # a nested list is read as the same H
    w = dd_check(s2, h.tolist(), 2)
    assert (w.works, w.residual, w.kick_ergodic) == (v.works, v.residual, v.kick_ergodic)
    assert np.array_equal(w.effective_hamiltonian, v.effective_hamiltonian)


def test_dd_check_square_coefficient():
    # interaction X kron diag(1,-1,0); the surviving system term is
    # (p - 1/2) X since tr(diag(1,-1,0) rho_*) = p/2 - (1-p)/2
    p = 0.7
    s2 = sup("E_square", p=p)
    h2 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    h = kron(X, h2)
    v = dd_check(s2, h, 2)
    assert v.works
    assert np.allclose(v.effective_hamiltonian, (p - 0.5) * X, atol=1e-9)


def test_dd_check_dephasing_fails():
    s2 = sup("E_dephase", d=2)
    h = kron(Z, Z)
    v = dd_check(s2, h, 2)
    assert not v.works
    assert not v.kick_ergodic
    assert v.effective_hamiltonian is None
    # expected residual: norm of the undecoupled generator on the
    # peripheral range
    dec2 = analyze_peripheral(s2)
    p_ext = extend_with_identity(Superoperator(s2.dim, dec2.right @ dec2.left), 2)
    expected = np.linalg.norm(adjoint_rep(h).matrix @ p_ext.matrix)
    assert expected > 0.1
    # relative to ||H0||_F, H = Z kron Z being traceless
    assert v.residual == pytest.approx(expected / np.linalg.norm(h), abs=1e-8)


@pytest.mark.parametrize("name, d1", [(name, d1) for name in names() for d1 in (1, 2, 3)
                                      if d1 * builtin(name).channel.dim <= 8])
def test_zeno_hamiltonian_reads_a_lifted_hamiltonian_from_the_bath_kick(name, d1):
    # sum_l (I kron P_l) ad_H (I kron P_l) with the projections of the bath kick's
    # clusters formed explicitly and lifted by extend_with_identity
    s2 = sup(name)
    d = d1 * s2.dim
    dec = analyze_peripheral(s2)
    h = random_hamiltonian(d, seed=d1)
    h_adj = adjoint_rep(h).matrix
    lifted = [extend_with_identity(Superoperator(s2.dim, p), d1).matrix for p in projections(dec)]
    reference = sum(p @ h_adj @ p for p in lifted)
    assert np.max(np.abs(zeno_hamiltonian(dec, h).matrix - reference)) <= 1e-12
    with pytest.raises(ValueError, match="no multiple of kick dim"):
        zeno_hamiltonian(dec, random_hamiltonian(d + 1, seed=0))


def test_dd_check_dim_mismatch():
    with pytest.raises(ValueError):
        dd_check(sup("E_updown"), np.eye(6, dtype=complex), 2)
    # suppression is the residual at d1 = 1: an H on C^2 kron C^d is refused, not lifted
    with pytest.raises(ValueError, match=r"dim\(H\)=4 does not factor as 1\*2"):
        suppression_check(sup("E_updown"), kron(Z, EYE2))


def reference_dd_check(s2, h, d1):
    """dd_check with H_Z from a full analysis of the extended kick I_1 kron E_2
    and H_eff = h1 + sum_i c_i h1_i from the operator Schmidt decomposition,
    c_i = tr(h2_i rho_*): the residual ||H_Z - [H_eff kron I, .] (I kron P_phi)||."""
    d2 = s2.dim
    dec2 = analyze_peripheral(s2)
    h_z = zeno_hamiltonian(analyze_peripheral(extend_with_identity(s2, d1)), h)
    sd = schmidt(h, d1, d2)
    rho = fixed_point_state(dec2)
    coeffs = [float(np.real(np.trace(h2_i @ rho))) for _, h2_i in sd.terms]
    h_eff = sd.h1 + sum(c * h1_i for c, (h1_i, _) in zip(coeffs, sd.terms))
    g = adjoint_rep(kron(h_eff, np.eye(d2)))
    p_phi_ext = extend_with_identity(Superoperator(d2, dec2.right @ dec2.left), d1)
    residual = float(np.linalg.norm(h_z.matrix - g.matrix @ p_phi_ext.matrix))
    ergodic = dec2.dim_fixed == 1
    return residual, h_eff if ergodic else None, ergodic


def assert_matches_reference(s2, seed):
    rng = np.random.default_rng(seed)
    for d1 in (1, 2, 3):
        d = d1 * s2.dim
        if d > 8:
            continue
        for _ in range(3):
            h = random_hermitian(d, rng)
            v = dd_check(s2, h, d1)
            residual, h_eff, ergodic = reference_dd_check(s2, h, d1)
            norm = np.linalg.norm(h - np.trace(h) / d * np.eye(d))  # ||H0||_F
            assert v.residual * norm == pytest.approx(residual, abs=1e-12)
            assert v.works == (residual <= DD_TOL * norm)
            assert v.kick_ergodic == ergodic
            if ergodic:
                assert np.max(np.abs(v.effective_hamiltonian - h_eff)) <= 1e-12
            else:
                assert v.effective_hamiltonian is None


@pytest.mark.parametrize("name", [n for n in names() if 2 * builtin(n).channel.dim <= 8])
def test_dd_check_matches_extended_kick_reference_zoo(name):
    assert_matches_reference(sup(name), seed=len(name))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_dd_check_matches_extended_kick_reference_stinespring(d, rank):
    for seed in (0, 1):
        assert_matches_reference(random_stinespring(d, rank, seed), seed=10 * d + rank + seed)


CONJUGATION_KICKS = {
    **{name: (lambda name=name: sup(name)) for name in names() if 2 * builtin(name).channel.dim <= 8},
    "stinespring d=3 rank 2": lambda: random_stinespring(3, 2, 5),
    "stinespring d=4 rank 3": lambda: random_stinespring(4, 3, 6),
}


@pytest.mark.parametrize("name", CONJUGATION_KICKS)
def test_dd_check_is_covariant_under_system_unitaries(name):
    # H -> (U kron I) H (U kron I)^dag moves H_eff to U H_eff U^dag and is an
    # isometry of the generator on the lifted projections' range
    s2 = CONJUGATION_KICKS[name]()
    rng = np.random.default_rng(len(name))
    for seed in range(3):
        u1 = random_unitary(2, seed)
        u = kron(u1, np.eye(s2.dim))
        h = random_hermitian(2 * s2.dim, rng)
        v, w = dd_check(s2, h, 2), dd_check(s2, u @ h @ u.conj().T, 2)
        assert abs(w.residual - v.residual) <= 1e-12
        if v.kick_ergodic:
            want = u1 @ v.effective_hamiltonian @ u1.conj().T
            assert np.max(np.abs(w.effective_hamiltonian - want)) <= 1e-12
        else:
            assert v.effective_hamiltonian is None and w.effective_hamiltonian is None


def direct_sum_kraus(*blocks):
    """Kraus operators of the block-diagonal direct sum of channels, each given
    by its Kraus list: never ergodic, since each block keeps its own state."""
    dims = [kraus[0].shape[0] for kraus in blocks]
    ops = []
    for b, kraus in enumerate(blocks):
        lo = sum(dims[:b])
        for k in kraus:
            m = np.zeros((sum(dims), sum(dims)), dtype=complex)
            m[lo:lo + dims[b], lo:lo + dims[b]] = k
            ops.append(m)
    return ops


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_dd_check_works_iff_kick_ergodic(data):
    # the paper's theorem: decoupling works for (generic) H iff the kick is
    # ergodic, with ergodicity read as a one-dimensional null space of S - I
    d1 = data.draw(st.sampled_from([2, 3]), label="d1")
    d2 = data.draw(st.integers(2, 8 // d1), label="d2")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rank = st.integers(1, 3)
    if data.draw(st.booleans(), label="direct sum"):
        da = data.draw(st.integers(1, d2 - 1), label="first block dim")
        kraus = direct_sum_kraus(stinespring_kraus(da, data.draw(rank), rng),
                                 stinespring_kraus(d2 - da, data.draw(rank), rng))
    else:
        kraus = stinespring_kraus(d2, data.draw(rank, label="rank"), rng)
    s = sum(np.kron(k, k.conj()) for k in kraus)
    nullity = int(np.sum(np.linalg.svd(s - np.eye(d2 * d2), compute_uv=False) <= 1e-8))
    v = dd_check(Superoperator(d2, s), random_hermitian(d1 * d2, rng), d1)
    assert v.kick_ergodic == (nullity == 1)
    assert v.works == (nullity == 1)


def expm_reference_evolution(s_kick, h, t, n):
    """The kicked evolution with the free step from expm of the commutator
    superoperator [H, .]."""
    step = s_kick.matrix @ expm(-1j * (t / n) * adjoint_rep(h).matrix)
    return np.linalg.matrix_power(step, n)


@pytest.mark.parametrize("name", names())
def test_zeno_evolution_matches_expm_reference(name):
    s = sup(name)
    kicks = [s] + ([extend_with_identity(s, 2)] if 2 * s.dim <= 8 else [])
    rng = np.random.default_rng(len(name))
    for kick in kicks:
        d = kick.dim
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for h in (random_hamiltonian(d, seed=d), (g + g.conj().T) / 2):
            for n in (1, 2, 5, 10, 20, 50, 100):
                got = zeno_evolution(kick, h, 1.0, n).matrix
                want = expm_reference_evolution(kick, h, 1.0, n)
                assert np.max(np.abs(got - want)) <= 1e-12


def unitary_kick(u):
    return Superoperator(u.shape[0], kron(u, u.conj()))


# (kick, rank the factorisation must keep)
FACTORED_KICKS = {
    "unitary": (unitary_kick(random_unitary(3, 0)), 9),
    "I(x)E_omega": (extend_with_identity(sup("E_omega"), 2), 16),
    "P_rho": (sup("P_rho"), 1),
    # singular values of 1e-9 are real, not round-off: all 16 must be kept
    "E_omega+1e-9 unitary": (Superoperator(4, (1 - 1e-9) * sup("E_omega").matrix
                                           + 1e-9 * unitary_kick(random_unitary(4, 1)).matrix), 16),
}


@pytest.mark.parametrize("name", FACTORED_KICKS)
def test_factored_kicked_evolution_matches_plain_product(name):
    kick, rank = FACTORED_KICKS[name]
    a, b = factor_kick(kick)[:2]
    assert a.shape == (kick.dim**2, rank) and b.shape == (rank, kick.dim**2)
    hs = np.array([random_hamiltonian(kick.dim, seed) for seed in range(3)])
    for n in (1, 100):
        got = zeno_evolution(kick, hs, 0.7, n).matrix
        for h, m in zip(hs, got):
            assert np.max(np.abs(m - plain_kicked_evolution(kick, h, 0.7, n).matrix)) <= 1e-12


@pytest.mark.parametrize("name", FACTORED_KICKS)
def test_kicked_evolution_block_stacks_each_n_of_one_n_blocks(name, monkeypatch):
    # a block of several n is the one-n stacks laid on one flat (n, H) axis, bitwise,
    # with one matrix_power per n; a single H gives one row per n
    kick, rank = FACTORED_KICKS[name]
    factors = factor_kick(kick)
    block = (1, 2, 5, 100)
    powers = []
    power = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power", lambda m, n: powers.append(n) or power(m, n))
    for hs in (np.array([random_hamiltonian(kick.dim, seed) for seed in range(3)]),
               random_hamiltonian(kick.dim, 7)):
        k = len(hs) if hs.ndim == 3 else 1
        p, bw = next(_kicked_evolutions(factors, _eigensystem(hs), 0.7, [block]))
        assert powers == [n - 1 for n in block]
        assert p.shape == (len(block) * k, rank, rank) and bw.shape == (len(block) * k, rank, kick.dim**2)
        for i, n in enumerate(block):
            p_n, bw_n = next(_kicked_evolutions(factors, _eigensystem(hs), 0.7, [(n,)]))
            assert np.array_equal(p[i * k:(i + 1) * k], p_n)
            assert np.array_equal(bw[i * k:(i + 1) * k], bw_n)
        powers.clear()


def kraus_lift(ch, d1):
    """I_d1 kron E from the Kraus operators I_d1 kron K of E, independent of ``_lift``."""
    return to_superoperator(KrausChannel(d1 * ch.dim, tuple(kron(np.eye(d1), k) for k in ch.kraus)))


# bath channels whose factors are lifted to those of I kron E, with the rank of E;
# the Stinespring kick of Kraus rank 9 on d = 3 has full rank 9 = d^2
BATH_KICKS = {**{name: (builtin(name).channel, None) for name in names()},
              "stinespring:full-rank": (
                  KrausChannel(3, tuple(stinespring_kraus(3, 9, np.random.default_rng(0)))), 9)}


@pytest.mark.parametrize("d1", [1, 2, 3])
@pytest.mark.parametrize("name", BATH_KICKS)
def test_lifted_factors_reproduce_the_lifted_kick(name, d1):
    ch, rank = BATH_KICKS[name]
    s2 = to_superoperator(ch)
    a2, b2 = factor_kick(s2)[:2]
    if rank is not None:
        assert a2.shape[1] == rank
    a, b = _lift(a2, b2, d1)
    if d1 == 1:
        assert a is a2 and b is b2
    n = (d1 * s2.dim) ** 2
    assert a.shape == (n, d1 * d1 * a2.shape[1]) and b.shape == (d1 * d1 * b2.shape[0], n)
    assert np.max(np.abs(a @ b - kraus_lift(ch, d1).matrix)) <= 1e-14


def test_plan_keeps_the_zoo_ranks():
    # the real SVD in Hermitian coordinates cuts only round-off, as the complex one did
    ranks = [factor_kick(sup(name))[0].shape[1] for name in names()]
    assert ranks == [2, 2, 3, 2, 2, 1, 4, 8]


@pytest.mark.parametrize("name", names())
def test_kicked_step_is_real(name):
    # B W A of factors from the real SVD is real: its imaginary part, formed here from an
    # expm free step, is round-off, and P is the real power of that step
    s2 = sup(name)
    for d1 in (1, 2) if 2 * s2.dim <= 8 else (1,):
        factors = _plan(s2.dim, s2.matrix.tobytes(), d1, False)[0]  # factor_kick(s2) lifted
        a, b = factors[:2]
        hs = np.array([random_hamiltonian(d1 * s2.dim, seed) for seed in range(3)])
        for n in (1, 2, 7, 100):
            p, _ = next(_kicked_evolutions(factors, _eigensystem(hs), 0.7, [(n,)]))
            assert p.dtype == np.float64
            for h, p_h in zip(hs, p):
                v = scipy.linalg.expm(-0.7j / n * h)
                step = b @ kron(v, v.conj()) @ a
                assert np.max(np.abs(step.imag)) <= 1e-15
                assert np.max(np.abs(p_h - np.linalg.matrix_power(step, n - 1))) <= 1e-12


def gue(d, seed):
    """A complex Hermitian H (Gaussian unitary ensemble): unlike a sweep's real symmetric H,
    its eigenvectors are complex, so a conjugation slip in the kernel changes its output."""
    re, im = np.random.default_rng(seed).standard_normal((2, d, d))
    return (re + re.T) / 2 + 1j * (im - im.T) / 2


def planned(s2, d1, columns):
    """The kernel's planned factors of the kick lifted to d1, and their columns R^T: the dd
    sweep's bath trace T^T Q, built here as vec(Q_m kron I) of the orthonormal Hermitian basis
    Q_m of M_d1, or None for the identity of the zeno factors."""
    if columns == "zeno":
        return _plan(s2.dim, s2.matrix.tobytes(), d1, False)[0], None
    q = _hermitian_coordinates(d1)[2]
    rt = np.stack([kron(x.reshape(d1, d1), np.eye(s2.dim)).reshape(-1) for x in q.T], axis=1)
    return _plan(s2.dim, s2.matrix.tobytes(), d1, True)[0], rt


@pytest.mark.parametrize("columns", ["dd", "zeno"])
@pytest.mark.parametrize("name", names())
def test_kicked_evolutions_match_expm_on_complex_hamiltonians(name, columns):
    # P and y element by element against b @ kron(v, conj(v)) @ [a | cols]: cols the dd
    # sweep's planned bath-trace columns, or the identity whose complex B W is returned
    s2 = sup(name)
    for d1 in (1, 2) if 2 * s2.dim <= 8 else (1,):
        factors, rt = planned(s2, d1, columns)
        a, b = factors[:2]
        hs = np.array([gue(d1 * s2.dim, seed) for seed in range(3)])
        for n in (1, 7, 100):
            p, y = next(_kicked_evolutions(factors, _eigensystem(hs), 0.7, [(n,)]))
            for h, p_h, y_h in zip(hs, p, y):
                v = scipy.linalg.expm(-0.7j / n * h)
                bw = b @ kron(v, v.conj())
                assert np.max(np.abs(p_h - np.linalg.matrix_power(bw @ a, n - 1))) <= 1e-12
                want = bw if rt is None else bw @ rt
                assert y_h.shape == want.shape
                assert np.max(np.abs(y_h - want)) <= 1e-12


@pytest.mark.parametrize("columns", ["dd", "zeno"])
@pytest.mark.parametrize("name", names())
def test_kicked_evolutions_agree_on_real_and_complex_eigendata(name, columns):
    # one kernel for both producers of eigendata: a sweep's draw, real U, and _eigensystem of
    # the same H, complex U, give the same P and B W R^T
    s2 = sup(name)
    for d1 in (1, 2) if 2 * s2.dim <= 8 else (1,):
        factors = planned(s2, d1, columns)[0]
        energies, u, hs = _random_hamiltonians(d1 * s2.dim, range(3))
        assert u.dtype == np.float64 and _eigensystem(hs)[1].dtype == complex
        for n in (1, 7, 100):
            real = next(_kicked_evolutions(factors, (energies, u), 0.7, [(n,)]))
            general = next(_kicked_evolutions(factors, _eigensystem(hs), 0.7, [(n,)]))
            for x, y in zip(real, general, strict=True):
                assert x.shape == y.shape and x.dtype == y.dtype
                assert np.max(np.abs(x - y)) <= 1e-12


@pytest.mark.parametrize("name", names())
def test_zeno_evolution_at_large_n_preserves_hermiticity(name):
    # the real power cannot drift off Hermiticity-preservation, however large n is
    s = sup(name)
    d = s.dim
    hs = np.array([random_hamiltonian(d, seed) for seed in range(3)])
    x = zeno_evolution(s, hs, 1.0, 10**6).matrix.reshape(3, d, d, d, d)
    assert np.max(np.abs(x.conj() - x.transpose(0, 2, 1, 4, 3))) <= 1e-14


@pytest.mark.parametrize("d1", [1, 2, 3])
@pytest.mark.parametrize("name", names())
def test_dd_evolution_factors_only_the_bath_kick(name, d1, monkeypatch):
    import bathdd.channel
    import bathdd.zeno

    ch = builtin(name).channel
    s2 = to_superoperator(ch)
    hs = np.array([random_hamiltonian(d1 * ch.dim, seed) for seed in range(3)])
    # zeno_evolution of the Kraus-built I kron E at each n, from one factorisation
    factors = factor_kick(kraus_lift(ch, d1))
    a = factors[0]
    blocks = [(1,), (7,), (100,)]
    steps = _kicked_evolutions(factors, _eigensystem(hs), 1.0, blocks)
    want = {n: a @ (p @ bw) for (n,), (p, bw) in zip(blocks, steps)}

    def refuse(*args):
        raise AssertionError("dd_evolution formed the lifted kick")

    monkeypatch.setattr(bathdd.channel, "extend_with_identity", refuse)
    monkeypatch.setattr(bathdd.zeno, "extend_with_identity", refuse, raising=False)
    _plan.cache_clear()
    for n, m in want.items():
        got = dd_evolution(s2, hs, 1.0, n, d1)
        assert got.dim == d1 * ch.dim
        assert np.max(np.abs(got.matrix - m)) <= 1e-12
        # one factoring in all: a second n factors nothing
        assert _plan.cache_info().misses == 1
    # and its one entry is the bath kick's factors lifted to d1
    _plan(s2.dim, s2.matrix.tobytes(), d1, False)
    assert _plan.cache_info()[:2] == (len(want), 1)


def non_hp_kick():
    """A seeded random 4 x 4 map: it does not preserve Hermiticity, so it is no channel."""
    rng = np.random.default_rng(3)
    return Superoperator(2, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))


def test_kicked_evolutions_refuse_a_map_that_is_not_hermiticity_preserving():
    # the real T S T^-1 would drop the anti-HP part of S and return a wrong map
    s = non_hp_kick()
    with pytest.raises(ValueError, match="not Hermiticity-preserving"):
        zeno_evolution(s, random_hamiltonian(2, 0), 1.0, 3)
    with pytest.raises(ValueError, match="not Hermiticity-preserving"):
        dd_evolution(s, random_hamiltonian(4, 0), 1.0, 3, 2)


def test_kicked_evolutions_refuse_the_zero_kick_in_one_line():
    zero = Superoperator(2, np.zeros((4, 4)))
    for run in (lambda: zeno_evolution(zero, random_hamiltonian(2, 0), 1.0, 3),
                lambda: dd_evolution(zero, random_hamiltonian(4, 0), 1.0, 3, 2)):
        with pytest.raises(ValueError, match="zero map") as info:
            run()
        assert len(str(info.value).splitlines()) == 1


def test_factored_kicked_evolution_error_paths():
    kick = extend_with_identity(sup("E_omega"), 2)
    hs = np.array([random_hamiltonian(8, seed) for seed in range(3)])
    for blocks in ([(1,), (0,)], [(1, 0)], [(-2,)]):
        with pytest.raises(ValueError):
            list(_kicked_evolutions(factor_kick(kick), _eigensystem(hs), 1.0, blocks))
    with pytest.raises(ValueError):
        zeno_evolution(kick, hs, 1.0, 0)
    hs[1, 2, 5] += 1e-9j
    with pytest.raises(ValueError):
        list(_kicked_evolutions(factor_kick(kick), _eigensystem(hs), 1.0, [(1, 100)]))
    with pytest.raises(ValueError):
        zeno_evolution(kick, hs, 1.0, 100)


@settings(max_examples=60, deadline=None)
@given(kraus=st.one_of(st.sampled_from(names()).map(lambda name: builtin(name).channel.kraus),
                       STINESPRING_KRAUS),
       seed=st.integers(0, 2**32 - 1), k=st.integers(-12, 9), sign=st.sampled_from([1.0, -1.0]),
       shift=st.floats(-1.0, 1.0))
def test_verdicts_on_c_h_plus_a_i_are_those_on_h(kraus, seed, k, sign, shift):
    # both questions are linear in H and blind to its trace: c H + a I, c = +-10^k and
    # |a| <= 10^6 ||c H0||_F, gets the verdicts of H, with no warning on the way
    d = len(kraus[0])
    s = to_superoperator(KrausChannel(d, kraus))
    rng = np.random.default_rng(seed)

    def moved(h):
        c = sign * 10.0**k
        h0 = h - np.trace(h) / len(h) * np.eye(len(h))
        return c * h + shift * 1e6 * abs(c) * np.linalg.norm(h0) * np.eye(len(h))

    h = random_hermitian(d, rng)
    assert suppression_check(s, moved(h)) == suppression_check(s, h)
    if 2 * d <= 8:
        h = random_hermitian(2 * d, rng)
        assert dd_check(s, moved(h), 2).works == dd_check(s, h, 2).works


@pytest.mark.parametrize("scale", [2.0**-1074, 1e-300, 1e300, 2.0**1020])
def test_verdicts_at_the_ends_of_the_float_range(scale):
    # H scaled to a subnormal or a near-overflow largest entry keeps its verdicts, with no warning
    h = random_hamiltonian(4, seed=3)
    h = scale * h / np.max(np.abs(h))
    assert suppression_check(sup("E_updown"), h[:2, :2]) is True
    assert suppression_check(sup("E_omega"), h) is False
    v = dd_check(sup("E_updown"), h, 2)
    assert v.works and v.kick_ergodic


def test_verdicts_refuse_a_tiny_non_hermitian_h():
    # 1e-13 [[0, 1], [0, 0]] is Hermitian within the absolute floor 1e-12 of ``is_hermitian``;
    # the verdicts check H at unit scale, so they refuse it as they refuse [[0, 1], [0, 0]]
    tiny = 1e-13 * np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        suppression_check(sup("E_updown"), tiny)
    with pytest.raises(ValueError, match="not Hermitian"):
        dd_check(sup("E_updown"), kron(tiny, EYE2), 2)


def hamiltonian_corpus(d):
    """(label, H, accepted) on C^d, d = 2 or 4: the matrices every Hamiltonian entry point must
    refuse (one non-Hermitian 1e-13 [[0, 1], [0, 0]], as kron(., I_2) at d = 4; NaN; +-inf;
    a non-Hermitian H of norm 1) and accept (2^k H for an exactly Hermitian H, |k| <= 40)."""
    step = np.array([[0, 1], [0, 0]], dtype=complex)
    step = step if d == 2 else kron(step, EYE2) / np.sqrt(2)
    h = random_hermitian(d, np.random.default_rng(d))
    assert np.array_equal(h, h.conj().T)
    corpus = [("tiny", 1e-13 * step, False), ("step", step, False)]
    for bad in (np.nan, np.inf, -np.inf):
        m = h.copy()
        m[0, 0] = bad
        corpus.append((str(bad), m, False))
    return corpus + [(f"2^{k} H", h * 2.0**k, True) for k in range(-40, 41)]


def cli_accepts(capsys, tmp_path, command, h, *extra):
    """True when the CLI command decides on H (exit 0); False when it refuses H (exit 2)."""
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"matrix": _matrix_to_pairs(h)}))
    code = cli_main([command, "zoo:E_updown", "--hamiltonian", str(path), *extra])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    return code == 0


HAMILTONIAN_ENTRY_POINTS = {  # name: (dimension of H, call on H)
    "suppression_check": (2, lambda h, **_: suppression_check(sup("E_updown"), h)),
    "dd_check": (4, lambda h, **_: dd_check(sup("E_updown"), h, 2)),
    "cli zeno-check": (2, lambda h, **kw: cli_accepts(h=h, command="zeno-check", **kw)),
    "cli dd-check": (4, lambda h, **kw: cli_accepts(h=h, command="dd-check", **kw)),
    "zeno_hamiltonian": (2, lambda h, **_: zeno_hamiltonian(analyze_peripheral(sup("E_updown")),
                                                            h)),
    "zeno_evolution": (2, lambda h, **_: zeno_evolution(sup("E_updown"), h, 1.0, 3)),
    "dd_evolution": (4, lambda h, **_: dd_evolution(sup("E_updown"), h, 1.0, 3, 2)),
    "adjoint_rep": (2, lambda h, **_: adjoint_rep(h)),
    "schmidt": (4, lambda h, **_: schmidt(h, 2, 2)),
}


@pytest.mark.parametrize("entry", HAMILTONIAN_ENTRY_POINTS)
def test_every_hamiltonian_entry_point_gives_one_answer_per_h(entry, capsys, tmp_path):
    # one rule, ``linalg._hamiltonian``, relative to H's own scale: every entry point refuses the
    # tiny non-Hermitian H that the absolute floor of ``is_hermitian`` would pass, and accepts
    # an exactly Hermitian H at every power-of-two scale
    d, call = HAMILTONIAN_ENTRY_POINTS[entry]
    answers, wanted = [], []
    for label, h, accepted in hamiltonian_corpus(d):
        try:
            answer = call(h, capsys=capsys, tmp_path=tmp_path) is not False
        except ValueError as exc:
            assert "not Hermitian" in str(exc), (label, exc)
            answer = False
        answers.append((label, answer))
        wanted.append((label, accepted))
    assert answers == wanted


@pytest.mark.parametrize("name", [name for name in names() if builtin(name).channel.dim <= 4])
def test_suppression_check_reads_a_lifted_hamiltonian(name):
    # H on C^2 kron C^d: suppression is the residual at d1 = 1, so the lifted H is refused; the
    # N x N ``zeno_hamiltonian`` still reads it with the kick's eigendata lifted, and the lifted
    # question on I kron H2 is answered by suppression of H2 and by ``dd_check`` at d1 = 2
    s = sup(name)
    d = s.dim
    dec = analyze_peripheral(s)
    h2 = random_hamiltonian(d, seed=4)
    cases = [random_hamiltonian(2 * d, seed=4), kron(EYE2, h2), kron(Z, np.eye(d))]
    for h in cases:
        with pytest.raises(ValueError, match=rf"dim\(H\)={2 * d} does not factor as 1\*{d}"):
            suppression_check(s, h)
    h0 = cases[1] - np.trace(cases[1]) / (2 * d) * np.eye(2 * d)
    lifted = np.linalg.norm(zeno_hamiltonian(dec, h0).matrix) <= DD_TOL * np.linalg.norm(h0)
    assert lifted == suppression_check(s, h2) == dd_check(s, cases[1], 2).works
    # Z kron I is never suppressed, but bath DD absorbs it into H_eff = Z
    z_norm = np.linalg.norm(zeno_hamiltonian(dec, cases[2]).matrix)
    assert z_norm > DD_TOL * np.linalg.norm(cases[2])
    assert dd_check(s, cases[2], 2).works


# --- the Zeno residual from derived factors ----------------------------------


def reference_zeno_norm(dec, k):
    """||sum_l P_l [K, .] P_l||_F from the N x N generator, built here from the kick's eigendata
    lifted to d1 = dim K / d: right (S o (left vec[K, X_b])) left, S read off the multiplicities."""
    d1 = len(k) // dec.dim
    right, left = _lift(dec.right, dec.left, d1)
    labels = np.repeat(np.arange(len(dec.multiplicities)), dec.multiplicities * d1 * d1)
    x = right.T.reshape(-1, len(k), len(k))
    core = (labels[:, None] == labels) * (left @ (k @ x - x @ k).reshape(len(x), -1).T)
    return np.linalg.norm(right @ core @ left)


def reference_h_eff(dec, h0, d1):
    """tr_2[(I_1 kron rho_*) H0], traceless, H0 on C^d1 kron C^d."""
    d = dec.dim
    h_eff = np.trace((h0 @ kron(np.eye(d1), fixed_point_state(dec))).reshape(d1, d, d1, d),
                     axis1=1, axis2=3)
    return h_eff - np.trace(h_eff) / d1 * np.eye(d1)


VALUE_KICKS = [*names(), *(f"stinespring:{d}:{rank}" for d in range(2, 7) for rank in (1, 2, 3))]


def value_kick(name):
    if name.startswith("stinespring:"):
        d, rank = map(int, name.split(":")[1:])
        return random_stinespring(d, rank, seed=7000 + 10 * d + rank)
    return sup(name)


@pytest.mark.parametrize("name", VALUE_KICKS)
def test_zeno_residuals_match_the_n_by_n_reference(name, capsys, tmp_path):
    # the verdicts' residuals are those of the generator built here within 1e-12 ||H0||_F,
    # with no verdict flip; H_eff within 1e-14
    from bathdd.cli import main

    s = value_kick(name)
    d = s.dim
    dec = analyze_peripheral(s)
    rng = np.random.default_rng(len(name))
    for d1 in (1, 2, 3):
        h = random_hermitian(d1 * d, rng)
        h0 = h - np.trace(h) / len(h) * np.eye(len(h))
        norm = np.linalg.norm(h0)
        want = reference_zeno_norm(dec, h0) / norm
        assert want == pytest.approx(np.linalg.norm(zeno_hamiltonian(dec, h0).matrix) / norm,
                                     abs=1e-12)
        v = dd_check(s, h, d1)
        if d1 == 1:  # suppression: the bath-DD residual at d1 = 1, where K = H0
            got = _zeno_residual(dec, h, 1)[0]
            assert abs(got - want) <= 1e-12
            assert suppression_check(s, h) == (want <= DD_TOL)
            assert suppression_check(s, h) == v.works and v.residual == got
        k = h0
        if d1 > 1:
            h_eff = reference_h_eff(dec, h0, d1)
            k = h0 - kron(h_eff, np.eye(d))
            if v.kick_ergodic:
                assert np.max(np.abs(v.effective_hamiltonian - h_eff)) <= 1e-14
        want = reference_zeno_norm(dec, k) / norm
        assert abs(v.residual - want) <= 1e-12 and v.works == (want <= DD_TOL)
    if d == 1 or name.startswith("stinespring:"):
        return
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"matrix": _matrix_to_pairs(h[:d, :d])}))
    assert main(["zeno-check", f"zoo:{name}", "--hamiltonian", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    h0 = h[:d, :d] - np.trace(h[:d, :d]) / d * np.eye(d)
    want = reference_zeno_norm(dec, h0) / np.linalg.norm(h0)
    assert abs(out["zeno_hamiltonian_norm"] - want) <= 1e-12
    assert out["suppressed"] == (want <= DD_TOL)


def counted_derivations(monkeypatch):
    """The QR factorizations and lifts of eigendata made from here on, by kind."""
    import bathdd.zeno

    counts = {"qr": 0, "lift": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
    monkeypatch.setattr(bathdd.zeno, "_lift", counted("lift", bathdd.zeno._lift))
    return counts


def test_a_second_verdict_on_a_kick_derives_nothing(monkeypatch):
    from bathdd.spectral import _analyze

    s = random_stinespring(3, 2, seed=7101)  # a kick no other test analyses
    counts = counted_derivations(monkeypatch)
    rng = np.random.default_rng(0)
    assert suppression_check(s, random_hermitian(3, rng))
    assert counts == {"qr": 0, "lift": 1}  # the eigendata at d1 = 1, and no factorization
    dd_check(s, random_hermitian(6, rng), 2)
    assert counts == {"qr": 0, "lift": 2}  # and at d1 = 2
    for _ in range(2):  # verdicts on a known kick, at either d1, derive nothing
        assert suppression_check(s, random_hermitian(3, rng))
        dd_check(s, random_hermitian(6, rng), 2)  # the d1 = 2 data
        assert dd_check(s, random_hermitian(6, rng), 2).works
        zeno_hamiltonian(analyze_peripheral(s), random_hermitian(3, rng))
    assert counts == {"qr": 0, "lift": 2}
    dec = analyze_peripheral(s)
    derived = [*dec.derive(_zeno_frame, 1), *dec.derive(_zeno_frame, 2),
               dec.derive(fixed_point_state)]
    assert counts == {"qr": 0, "lift": 2}
    for x in derived:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[(0,) * x.ndim] = 0
    _analyze.cache_clear()  # a new decomposition derives its own data
    assert suppression_check(s, random_hermitian(3, rng))
    assert counts == {"qr": 0, "lift": 3}
    assert analyze_peripheral(s) is not dec and dec.derive(_zeno_frame, 1)[0] is derived[0]


def test_a_verdict_after_classify_derives_nothing(monkeypatch):
    # classify's DFS test reads the verdicts' frame at d1 = 1, so the verdicts that follow
    # it on the same kick reuse that frame instead of building their own
    s = random_stinespring(4, 2, seed=7102)  # a kick no other test analyses
    counts = counted_derivations(monkeypatch)
    assert classify(s).dfs_free
    assert counts == {"qr": 0, "lift": 1}  # the eigendata at d1 = 1, and no factorization
    rng = np.random.default_rng(0)
    assert suppression_check(s, random_hermitian(4, rng))
    assert dd_check(s, random_hermitian(4, rng), 1).works
    assert counts == {"qr": 0, "lift": 1}


@pytest.mark.parametrize("d", range(1, 9))
def test_the_one_coordinate_table_is_read_only_and_holds_the_kicked_indices(d):
    # the pair indices, their flat indices then the diagonal's, and Re T and Im T interleaved
    # column by column, as the kicked evolutions read them; no caller can write to them
    table = _hermitian_coordinates(d)
    t, _, _, i, j, kept, parts = table
    want_i, want_j = np.triu_indices(d, 1)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
    assert np.array_equal(kept, np.concatenate([d * want_i + want_j, np.arange(d) * (d + 1)]))
    assert np.array_equal(parts, np.stack([t.real, t.imag], axis=-1).reshape(d * d, -1))
    y = np.random.default_rng(d).standard_normal((3, d * d))
    assert np.array_equal((y @ parts).view(complex), y @ t)
    for x in table:
        assert not x.flags.writeable
        if x.size:
            with pytest.raises(ValueError):
                x[(0,) * x.ndim] = 0
    assert _hermitian_coordinates(d) is table
