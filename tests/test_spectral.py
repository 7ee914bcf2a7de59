import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bathdd import spectral
from bathdd.channel import KrausChannel, Superoperator, to_superoperator
from bathdd.classify import COMMUTE_TOL, _is_dfs_free, classify
from bathdd.hamiltonian import adjoint_rep, random_hamiltonian
from bathdd.linalg import dagger, eig
from bathdd.spectral import (
    PERIPHERAL_TOL,
    SpectralError,
    _cluster_indices,
    analyze_peripheral,
    fixed_point_state,
    peripheral_power,
)
from bathdd.zeno import dd_check, suppression_check, zeno_hamiltonian
from bathdd.zoo import builtin, names

Z = np.diag([1.0, -1.0]).astype(complex)


def dec_of(name, **params):
    return analyze_peripheral(to_superoperator(builtin(name, **params).channel))


def peripheral_projection(dec):
    """P_phi = sum_l P_l, from the peripheral eigenvectors."""
    return dec.right @ dec.left


def projections(dec):
    """The spectral projection right[:, c] @ left[c] of each cluster c."""
    ends = np.cumsum(dec.multiplicities)
    return [dec.right[:, e - m:e] @ dec.left[e - m:e] for m, e in zip(dec.multiplicities, ends)]


def test_cluster_indices():
    vals = np.array([1.0, 1.0 + 1e-10, -1.0, 0.5])
    clusters = _cluster_indices(vals, tol=1e-8)
    merged = sorted(tuple(c) for c in clusters)
    assert merged == [(0, 1), (2,), (3,)]


def test_clusters_come_in_the_order_of_their_largest_member():
    # _analyze keeps this order among clusters equally far from 1
    clusters = _cluster_indices(np.array([0.5, 1.0, -0.9, 1.0 + 1e-10]), tol=1e-8)
    assert [c.tolist() for c in clusters] == [[1, 3], [2], [0]]


def diagonal_unitary_kick(phases):
    """The kick rho -> U rho U^dag of U = diag(e^{i phase_j})."""
    u = np.diag(np.exp(1j * np.asarray(phases)))
    return to_superoperator(KrausChannel(len(phases), (u,)))


def test_chain_of_close_eigenvalues_is_one_cluster():
    # eigenvalues e^{i 0.7 tol (j - k)}: a chain of steps 0.7 tol, 2.8 tol from end to end
    dec = analyze_peripheral(diagonal_unitary_kick(0.7 * PERIPHERAL_TOL * np.arange(3)))
    assert list(dec.multiplicities) == [9]
    assert abs(dec.peripheral_values[0].imag) <= 1e-15  # a greedy grouping left 4.7e-9


def test_grouping_is_closed_under_conjugation():
    # e^{+-i tol} both lie within tol of 1, and only a grouping that takes both is conjugation-closed
    dec = analyze_peripheral(diagonal_unitary_kick([0.0, PERIPHERAL_TOL]))
    values, mult = dec.peripheral_values, dec.multiplicities
    for v, m in zip(values, mult):
        partner = np.argmin(np.abs(values - np.conj(v)))
        assert abs(values[partner] - np.conj(v)) <= 1e-15 and mult[partner] == m
    assert list(mult) == [4]


@st.composite
def conjugate_chains(draw):
    """A conjugation-symmetric set of unit-modulus values: 1-4 chains of 1-5 values with
    neighbours 0.5-1.0 tol apart, each chain with its conjugate."""
    phases = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.floats(-np.pi, np.pi))
        steps = draw(st.lists(st.floats(0.5, 1.0), min_size=0, max_size=4))
        phases += list(start + PERIPHERAL_TOL * np.cumsum([0.0] + steps))
    values = np.exp(1j * np.array(phases))
    return np.concatenate([values, values.conj()])


def single_linkage_reference(values, tol):
    """The connected components of the graph |v_i - v_j| <= tol, by a plain search."""
    unseen, parts = set(range(len(values))), []
    while unseen:
        stack, part = [unseen.pop()], []
        while stack:
            i = stack.pop()
            part.append(i)
            near = {j for j in unseen if abs(values[i] - values[j]) <= tol}
            unseen -= near
            stack += near
        parts.append(tuple(sorted(part)))
    return sorted(parts)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cluster_partition_does_not_depend_on_input_order(data):
    values = data.draw(conjugate_chains())
    perm = np.array(data.draw(st.permutations(range(len(values)))))

    def partition(clusters, index):
        return sorted(tuple(sorted(index[c])) for c in clusters)

    want = single_linkage_reference(values, PERIPHERAL_TOL)
    assert partition(_cluster_indices(values), np.arange(len(values))) == want
    assert partition(_cluster_indices(values[perm]), perm) == want


def test_projection_channel_single_peripheral():
    dec = dec_of("P_rho")
    assert dec.dim_fixed == 1
    assert dec.dim_recurrent == 1
    assert np.allclose(dec.peripheral_values, [1.0])
    # P(A) = rho_* tr(A): projection equals the channel itself
    s = to_superoperator(builtin("P_rho").channel)
    assert np.allclose(projections(dec)[0], s.matrix, atol=1e-10)


def test_updown_peripheral_structure():
    dec = dec_of("E_updown")
    assert sorted(np.round(dec.peripheral_values.real, 9)) == [-1.0, 1.0]
    assert list(dec.multiplicities) == [1, 1]
    # closed-form projections: 1/2 I tr(I .) and 1/2 Z tr(Z .)
    p0 = np.outer(np.eye(2).reshape(-1) / 2, np.eye(2).reshape(-1).conj())
    p1 = np.outer(Z.reshape(-1) / 2, Z.reshape(-1).conj())
    got = projections(dec)
    assert np.allclose(got[0], p0, atol=1e-9)
    assert np.allclose(got[1], p1, atol=1e-9)


def test_triangle_cube_roots():
    dec = dec_of("E_triangle")
    expected = sorted(np.exp(2j * np.pi * np.arange(3) / 3), key=lambda z: np.angle(z))
    got = sorted(dec.peripheral_values, key=lambda z: np.angle(z))
    assert np.allclose(got, expected, atol=1e-9)


@pytest.mark.parametrize("name,params", [
    ("E_updown", {}), ("E_hook", {}), ("E_triangle", {}), ("E_square", {}),
    ("E_dephase", {"d": 3}), ("P_rho", {}), ("E_omega", {}), ("E_df", {}),
])
def test_projection_identities(name, params):
    s = to_superoperator(builtin(name, **params).channel)
    dec = analyze_peripheral(s)
    # P_l P_l' = delta_ll' P_l
    proj = projections(dec)
    for i, pi in enumerate(proj):
        for j, pj in enumerate(proj):
            prod = pi @ pj
            target = pi if i == j else 0 * pi
            assert np.linalg.norm(prod - target) < 1e-8
    # E_phi = E P_phi = P_phi E
    e_phi = peripheral_power(dec, 1).matrix
    p_phi = peripheral_projection(dec)
    assert np.linalg.norm(e_phi - s.matrix @ p_phi) < 1e-8
    assert np.linalg.norm(e_phi - p_phi @ s.matrix) < 1e-8
    assert dec.dim_fixed >= 1
    # peripheral eigenvector residuals
    for lam, v in zip(np.repeat(dec.peripheral_values, dec.multiplicities), dec.right.T):
        assert np.linalg.norm(s.matrix @ v - lam * v) < 1e-8 * np.linalg.norm(s.matrix)


def test_fixed_point_states():
    assert np.allclose(fixed_point_state(dec_of("E_updown")), np.eye(2) / 2, atol=1e-9)
    hook = fixed_point_state(dec_of("E_hook"))
    assert np.allclose(hook, np.diag([0.5, 0.5, 0.0]), atol=1e-9)
    for p in (0.5, 0.25):
        sq = fixed_point_state(dec_of("E_square", p=p))
        assert np.allclose(sq, np.diag([p / 2, (1 - p) / 2, 0.5]), atol=1e-9)


def test_fixed_point_state_of_non_ergodic_kick():
    # a degenerate fixed space: the state the maximally mixed input relaxes to
    assert np.allclose(fixed_point_state(dec_of("E_dephase", d=2)), np.eye(2) / 2, atol=1e-9)


def test_peripheral_power():
    dec = dec_of("E_updown")
    assert np.allclose(peripheral_power(dec, 0).matrix,
                       peripheral_projection(dec), atol=1e-9)
    # (-1)^2 = 1: squared peripheral part is the peripheral projection
    assert np.allclose(peripheral_power(dec, 2).matrix,
                       peripheral_projection(dec), atol=1e-9)
    assert np.allclose(peripheral_power(dec, 2).matrix,
                       np.linalg.matrix_power(peripheral_power(dec, 1).matrix, 2), atol=1e-9)


def test_peripheral_power_refuses_a_negative_n():
    with pytest.raises(ValueError, match="non-negative"):
        peripheral_power(dec_of("E_updown"), -1)


def test_peripheral_power_dephasing_is_itself():
    s = to_superoperator(builtin("E_dephase", d=2).channel)
    dec = analyze_peripheral(s)
    for n in (1, 3, 10):
        assert np.allclose(peripheral_power(dec, n).matrix, s.matrix, atol=1e-9)


@pytest.mark.parametrize("name", names())
def test_peripheral_power_at_large_n_preserves_hermiticity(name):
    # a real lambda such as -1 must stay real in lambda^n: (-1 + 0j)^n taken as
    # e^{n log lambda} leaves an imaginary part of about n eps
    dec = dec_of(name)
    d = dec.dim
    x = peripheral_power(dec, 10**6).matrix.reshape(d, d, d, d)
    assert np.max(np.abs(x.conj() - x.transpose(1, 0, 3, 2))) <= 1e-14


def _hermitian_coordinates(d):
    """T with T vec(X) = (X_ii; Re X_ij for i < j; Im X_ij for i < j), built
    from matrix units, and its inverse T^-1 (columns E_ii, E_ij + E_ji and
    i E_ij - i E_ji)."""
    units = np.eye(d * d).reshape(d, d, d * d)  # units[i, j] = vec(E_ij)
    pairs = list(zip(*np.triu_indices(d, 1)))
    diag = [units[i, i] for i in range(d)]
    sym = [units[i, j] + units[j, i] for i, j in pairs]
    anti = [units[i, j] - units[j, i] for i, j in pairs]
    t_inv = np.array(diag + sym + [1j * a for a in anti]).T
    t = np.array(diag + [v / 2 for v in sym] + [-0.5j * a for a in anti])
    return t, t_inv


def hermiticity_preserving(m):
    """T^-1 M T for a real d^2 x d^2 M: it maps Hermitian operators to
    Hermitian ones, as a channel does, and has the spectrum of M."""
    t, t_inv = _hermitian_coordinates(int(round(np.sqrt(len(m)))))
    return t_inv @ m @ t


def kick_beside_jordan_block(jordan, seed):
    """S = T^-1 M T with M = X D X^-1 real. D has peripheral values 1, -1 and
    the pair +-i (a rotation block), a Jordan block of size ``jordan`` at 0.5
    and contracting real values and rotation blocks. Returns S and its exact
    peripheral projections T^-1 X E_k X^-1 T by eigenvalue, with E_k the
    spectral projections of D."""
    rng = np.random.default_rng(seed)
    n = 16
    d = np.zeros((n, n))
    d[0, 0], d[1, 1] = 1.0, -1.0
    d[2:4, 2:4] = [[0.0, -1.0], [1.0, 0.0]]
    end = 4 + jordan
    d[4:end, 4:end] = 0.5 * np.eye(jordan) + np.eye(jordan, k=1)
    if (n - end) % 2:
        d[end, end] = 0.9 * rng.uniform()
        end += 1
    for b in range(end, n, 2):
        a = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        d[b:b + 2, b:b + 2] = [[a.real, -a.imag], [a.imag, a.real]]
    x = rng.standard_normal((n, n))
    x_inv = np.linalg.inv(x)

    e = {lam: np.zeros((n, n), dtype=complex) for lam in (1.0, -1.0, 1j, -1j)}
    e[1.0][0, 0] = e[-1.0][1, 1] = 1.0
    for lam in (1j, -1j):
        e[lam][2:4, 2:4] = [[0.5, 0.5 * lam], [-0.5 * lam, 0.5]]
    return (hermiticity_preserving(x @ d @ x_inv),
            {lam: hermiticity_preserving(x @ ek @ x_inv) for lam, ek in e.items()})


def assert_projections_exact(dec, exact):
    assert np.max(np.abs(peripheral_projection(dec) - sum(exact.values()))) <= 1e-10
    assert sorted(dec.multiplicities) == [1, 1, 1, 1]
    for lam, p in zip(dec.peripheral_values, projections(dec)):
        key = min(exact, key=lambda z: abs(z - lam))
        assert abs(key - lam) <= 1e-10
        assert np.max(np.abs(p - exact[key])) <= 1e-10


@pytest.mark.parametrize("jordan", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_projections_exact_beside_defective_block(jordan, seed):
    # the peripheral projections are exact however ill-conditioned the
    # Jordan block at 0.5 is
    s, exact = kick_beside_jordan_block(jordan, seed)
    assert_projections_exact(analyze_peripheral(Superoperator(4, s)), exact)


@pytest.fixture
def eig_inputs(monkeypatch):
    """The matrices that reach eig during the test."""
    inputs = []
    monkeypatch.setattr(spectral, "eig", lambda m, radius: inputs.append(m) or eig(m, radius))
    return inputs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_real_route_projections_exact_beside_defective_block(seed, eig_inputs):
    # S maps Hermitian operators to Hermitian ones, so it goes to eig once,
    # as a real matrix
    s, exact = kick_beside_jordan_block(3, seed)
    spectral._analyze.cache_clear()  # an earlier test analyses the same matrix
    dec = analyze_peripheral(Superoperator(4, s))
    assert [m.dtype for m in eig_inputs] == [np.float64]
    assert_projections_exact(dec, exact)


def test_peripheral_jordan_block_is_defective():
    # eigenvalue 1 carries a 2x2 Jordan block: not the superoperator of a
    # channel, whose peripheral spectrum is always diagonalizable
    m = np.diag([1.0, 1.0, 0.5, 0.2])
    m[0, 1] = 1.0
    with pytest.raises(SpectralError, match="defective"):
        analyze_peripheral(Superoperator(2, hermiticity_preserving(m)))


def test_non_channel_input_is_refused():
    # a superoperator that does not preserve Hermiticity is no channel; eig
    # itself takes real matrices only
    m = np.diag([1.0, 0.5, 0.5, 0.2]).astype(complex)
    m[1, 2] = 1e-6j
    with pytest.raises(ValueError, match="not Hermiticity-preserving"):
        analyze_peripheral(Superoperator(2, m))
    with pytest.raises(ValueError, match="real"):
        eig(m, 0.5)


def _stinespring(d, rank, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d * rank, d)) + 1j * rng.standard_normal((d * rank, d))
    q, _ = np.linalg.qr(g)
    return [q[k * d:(k + 1) * d] for k in range(rank)]


KICKS = {
    **{name: builtin(name).channel.kraus for name in names()},
    **{f"stinespring_d{d}_r{rank}": _stinespring(d, rank, seed=10 * d + rank)
       for d in range(2, 9) for rank in (1, 2, 3)},
}


@pytest.fixture(scope="module")
def analysed():
    """(S, decomposition) of a kick of KICKS, with S = sum_k K kron conj(K)
    in the row vectorization; each kick is analysed once per module."""
    cache = {}

    def get(key):
        if key not in cache:
            kraus = KICKS[key]
            s = sum(np.kron(k, k.conj()) for k in kraus)
            cache[key] = s, analyze_peripheral(Superoperator(kraus[0].shape[0], s))
        return cache[key]

    return get


@pytest.mark.parametrize("key", KICKS)
def test_projections_match_full_eigendecomposition(key, analysed):
    # reference without bathdd: P = VR[:, J] inv(VR)[J, :] over the
    # eigenvalues J of the cluster, which is accurate for these
    # diagonalizable kicks
    tol = PERIPHERAL_TOL
    s, dec = analysed(key)
    w, vr = np.linalg.eig(s)
    vr_inv = np.linalg.inv(vr)
    on = np.abs(w) >= 1 - tol

    reference = vr[:, on] @ vr_inv[on]
    assert np.max(np.abs(peripheral_projection(dec) - reference)) <= 1e-10
    assert dec.dim_recurrent == np.count_nonzero(on)
    for lam, p in zip(dec.peripheral_values, projections(dec)):
        j = on & (np.abs(w - lam) <= tol)
        assert np.max(np.abs(p - vr[:, j] @ vr_inv[j])) <= 1e-10


@pytest.mark.parametrize("key", KICKS)
def test_readers_in_the_kick_rank_match_per_cluster_references(key, analysed):
    # the d^2 x d^2 formulas: the projection of each cluster formed
    # explicitly, sum_l lambda_l^n P_l, sum_l P_l [H, .] P_l, and the
    # commutator [X_b, L_a^dag] of every same-cluster pair in a loop
    _, dec = analysed(key)
    d = dec.dim
    ends = np.cumsum(dec.multiplicities)
    clusters = [range(e - m, e) for m, e in zip(dec.multiplicities, ends)]
    proj = projections(dec)
    for n in (0, 1, 2, 3):
        reference = sum(lam**n * p for lam, p in zip(dec.peripheral_values, proj))
        assert np.max(np.abs(peripheral_power(dec, n).matrix - reference)) <= 1e-10

    h = random_hamiltonian(d, seed=d)
    h_adj = adjoint_rep(h).matrix
    reference = sum(p @ h_adj @ p for p in proj)
    assert np.max(np.abs(zeno_hamiltonian(dec, h).matrix - reference)) <= 1e-10

    def commutator_norm(a, b):
        x = dec.right[:, b].reshape(d, d)  # right eigenoperator X_b
        l_dag = dagger(dec.left[a].conj().reshape(d, d))  # L_a = unvec(conj(row a))
        return np.linalg.norm(x @ l_dag - l_dag @ x)

    worst = max(commutator_norm(a, b) for c in clusters for a in c for b in c)
    assert worst <= 1e-10 or worst >= 1e-6
    assert _is_dfs_free(dec) == (worst <= COMMUTE_TOL)


def test_spectrum_on_the_cut_is_an_error():
    # 1 - tol and the float just below it sit on either side of the cut and
    # are coupled: no Sylvester solve can split them, so no projections
    tol = 1e-8
    edge = 1 - tol
    m = np.diag([1.0, edge, np.nextafter(edge, 0), 0.5])
    m[1, 2] = 1.0
    with pytest.raises(SpectralError, match="tol=1e-08"):
        analyze_peripheral(Superoperator(2, hermiticity_preserving(m)), tol)


def test_tol_validation():
    s = to_superoperator(builtin("E_updown").channel)
    with pytest.raises(ValueError):
        analyze_peripheral(s, tol=0.0)
    with pytest.raises(ValueError):
        analyze_peripheral(s, tol=1e-3)


def _fresh_kick(d, seed):
    """S of a Stinespring kick that no other test analyses (seeds >= 1000)."""
    return sum(np.kron(k, k.conj()) for k in _stinespring(d, 2, seed))


def test_equal_kick_is_analysed_once(eig_inputs):
    # every verdict on one kick reads one decomposition, whatever Superoperator
    # or memory layout carries the matrix
    m = _fresh_kick(3, 1000)
    first = analyze_peripheral(Superoperator(3, m))
    again = analyze_peripheral(Superoperator(3, np.asfortranarray(m.copy())))
    classify(Superoperator(3, m.copy()))
    suppression_check(Superoperator(3, m.copy()), random_hamiltonian(3, seed=1000))
    dd_check(Superoperator(3, m.copy()), random_hamiltonian(6, seed=1000), 2)
    assert len(eig_inputs) == 1
    assert again is first


def test_each_tol_is_analysed_once(eig_inputs):
    s = Superoperator(3, _fresh_kick(3, 1001))
    for _ in range(2):
        analyze_peripheral(s, 1e-8)
        analyze_peripheral(s, np.float64(1e-9))
    assert len(eig_inputs) == 2


def test_matrix_edited_in_place_is_analysed_afresh(eig_inputs):
    before, after = _fresh_kick(2, 1002), _fresh_kick(2, 1003)
    s = Superoperator(2, before.copy())
    analyze_peripheral(s)
    s.matrix[:] = after
    rho = fixed_point_state(analyze_peripheral(s))
    assert len(eig_inputs) == 2
    assert np.max(np.abs(after @ rho.reshape(-1) - rho.reshape(-1))) <= 1e-12
    assert np.max(np.abs(before @ rho.reshape(-1) - rho.reshape(-1))) > 1e-6


def test_shared_decomposition_is_read_only():
    dec = analyze_peripheral(Superoperator(2, _fresh_kick(2, 1004)))
    for name in ("peripheral_values", "multiplicities", "right", "left"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(dec, name)[0] = 0


def test_refused_input_raises_on_every_call(eig_inputs):
    non_hp = np.diag([1.0, 0.5, 0.5, 0.2]).astype(complex)
    non_hp[1, 2] = 1e-6j
    defective = np.diag([1.0, 1.0, 0.5, 0.2])
    defective[0, 1] = 1.0
    s = Superoperator(2, _fresh_kick(2, 1005))
    for _ in range(2):
        with pytest.raises(ValueError, match="not Hermiticity-preserving"):
            analyze_peripheral(Superoperator(2, non_hp))
        with pytest.raises(SpectralError, match="defective"):
            analyze_peripheral(Superoperator(2, hermiticity_preserving(defective)))
        for tol in (0.0, 1e-3, float("nan")):
            with pytest.raises(ValueError, match="tol must lie"):
                analyze_peripheral(s, tol)
    assert len(eig_inputs) == 2  # the defective matrix, once per call


def test_memo_is_bounded():
    for seed in range(2000, 2000 + spectral._CACHE_SIZE + 5):
        analyze_peripheral(Superoperator(2, _fresh_kick(2, seed)))
    info = spectral._analyze.cache_info()
    assert info.maxsize == spectral._CACHE_SIZE
    assert info.currsize <= info.maxsize
