import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bathdd.linalg import (
    _hermitian_rule,
    _lone_eigenvectors,
    _unit,
    dagger,
    eig,
    expm,
    is_hermitian,
    kron,
    trace_norm,
)
from helpers import stinespring_kraus

Z = np.diag([1.0, -1.0]).astype(complex)


def test_vec_convention():
    # the row vectorization X.reshape(-1), vec(|i><j|) the (d*i+j)-th basis vector, takes
    # A X B to (A kron B^T) vec(X): the convention of every superoperator in the package
    rng = np.random.default_rng(3)
    a, b, x = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
    assert np.allclose(kron(a, b.T) @ x.reshape(-1), (a @ x @ b).reshape(-1))
    for i, j in np.ndindex(3, 3):
        unit = np.zeros((3, 3))
        unit[i, j] = 1.0
        assert np.flatnonzero(unit.reshape(-1)).tolist() == [3 * i + j]


def test_hermitian_check():
    assert is_hermitian(Z)
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def _is_hermitian_before(m, tol=1e-12):
    """The 2-D rule of the check: entrywise within tol * max(1, Frobenius norm)."""
    scale = max(1.0, float(np.linalg.norm(m)))
    return float(np.max(np.abs(m - m.conj().T))) <= tol * scale


def test_is_hermitian_2d_answers_as_before_and_stack_per_matrix():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 8):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        cases = []
        for scale in (1e-3, 1.0, 1e6):
            for eps in (0.0, 0.5e-12, 2e-12):  # violation relative to the tolerance scale
                m = scale * (g + g.conj().T) / 2
                m[0, -1] += 1j * eps * max(1.0, float(np.linalg.norm(m)))
                cases.append(m)
        answers = [is_hermitian(m) for m in cases]
        assert answers == [_is_hermitian_before(m) for m in cases]
        assert True in answers and False in answers
        assert is_hermitian(np.stack(cases)) is False
        assert is_hermitian(np.stack([m for m, ok in zip(cases, answers) if ok])) is True


def _scaled_rule(m):
    """The check with the power-of-two rescale on every input: finite, then the rule on M / c."""
    m = np.asarray(m, dtype=complex)
    return bool(np.isfinite(m).all()) and _hermitian_rule(*_unit(m))


# largest |Re| or |Im| of a corpus matrix: 2^e times a factor in [1, 2), from the least
# subnormal to near the float range, on both sides of 2^-400 and 2^400
CORPUS_EXPONENTS = (-1074, -1070, -1050, -1023, -1000, -900, -600, -401, -400, -399, -120, -40,
                    -1, 0, 1, 40, 120, 399, 400, 401, 600, 900, 1000)
# one entry off Hermitian by these times the tolerance 1e-12 max(1, ||M||_F)
VIOLATIONS = (0.0, 0.999999, 1.0, 1.000001)


def hermitian_corpus(d, rng):
    """(violation, matrix) pairs at every corpus exponent; the violation is exact, in one
    entry whose mirror is real."""
    for e in (*CORPUS_EXPONENTS, *rng.integers(-1074, 1001, size=4)):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g + g.conj().T
        h[0, -1] = h[-1, 0] = h[0, -1].real
        c = np.ldexp(1.0, int(e))
        x = h.view(float)  # real arithmetic: no complex division's overflow at c = 2^-1074
        h = (x / np.abs(x).max() * (c * rng.uniform(1, 2))).view(complex)
        tol = 1e-12 * max(1.0, float(np.linalg.norm(h.view(float) / c)) * c)  # finite at 2^1000
        for f in VIOLATIONS:
            m = h.copy()
            m[0, -1] += 1j * f * tol / (2 if d == 1 else 1)  # |M - M^dag| = f tol there
            yield f, m


def test_is_hermitian_decides_as_the_rescaled_rule_at_every_scale():
    rng = np.random.default_rng(12)
    for d in range(1, 9):
        corpus = list(hermitian_corpus(d, rng))
        answers = [is_hermitian(m) for _, m in corpus]
        assert answers == [_scaled_rule(m) for _, m in corpus], d
        # the corpus straddles the tolerance
        assert all(ok for (f, _), ok in zip(corpus, answers) if f < 1)
        assert not any(ok for (f, _), ok in zip(corpus, answers) if f > 1)
        # stacks: mixed scales and answers, then Hermitian ones in range alone and with one
        # matrix out of it
        ms = np.stack([m for _, m in corpus])
        inside = np.stack([m for (f, m), ok in zip(corpus, answers)
                           if ok and 2.0**-400 <= np.abs(m.view(float)).max() <= 2.0**400])
        for stack, want in ((ms, False), (inside, True), (np.concatenate([inside, ms[:1]]), True)):
            assert is_hermitian(stack) is _scaled_rule(stack) is want, d
        # NaN, inf and zero matrices, alone and in a stack
        zero = np.zeros((d, d), dtype=complex)
        assert is_hermitian(zero) and is_hermitian(np.stack([zero, inside[0]]))
        for bad in (np.nan, np.inf, -np.inf, 1j * np.inf, complex(np.nan, 0.0)):
            m = inside[0].copy()
            m[-1, 0] = bad
            assert not is_hermitian(m) and not _scaled_rule(m)
            assert not is_hermitian(np.stack([inside[0], m]))


def test_trace_norm_stack_matches_single_calls():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    assert np.allclose(trace_norm(m), [trace_norm(x) for x in m], rtol=0, atol=1e-13)


def test_norms_pauli_z():
    assert trace_norm(Z) == pytest.approx(2.0)


def test_norms_zero():
    z = np.zeros((3, 3))
    assert trace_norm(z) == 0.0


def test_trace_norm_independent_svd():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    # oracle: singular values via eigenvalues of M^dag M
    sv = np.sqrt(np.maximum(np.linalg.eigvalsh(dagger(m) @ m), 0))
    assert trace_norm(m) == pytest.approx(float(np.sum(sv)), abs=1e-10)


def test_kron_trivial():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(kron(Z, Z), np.diag([1, -1, -1, 1]))


def test_kron_equals_numpy_kron():
    # square pairs 1x1 to 8x8, then random rectangular ones
    rng = np.random.default_rng(7)
    squares = [((i, i), (j, j)) for i in range(1, 9) for j in (1, 2, 4, 8)]
    rectangles = [(tuple(rng.integers(1, 9, 2)), tuple(rng.integers(1, 9, 2))) for _ in range(40)]
    for sa, sb in squares + rectangles:
        a = rng.standard_normal(sa) + 1j * rng.standard_normal(sa)
        b = rng.standard_normal(sb) + 1j * rng.standard_normal(sb)
        assert np.array_equal(kron(a, b), np.kron(a, b))


def test_kron_product_action():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 2, 2))
    x, y = rng.standard_normal((2, 2))
    assert np.allclose(kron(a, b) @ np.kron(x, y), np.kron(a @ x, b @ y))


def test_expm_trivial():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))
    assert np.allclose(expm(np.diag([1j * np.pi, 0])), np.diag([-1, 1]), atol=1e-14)


def test_expm_conjugation_oracle():
    # exponential of the commutator superoperator = conjugation by the
    # exponentiated 2x2 unitary
    from bathdd.hamiltonian import adjoint_rep

    m = -1j * (np.pi / 2) * adjoint_rep(Z).matrix
    u = scipy.linalg.expm(-1j * (np.pi / 2) * Z)
    oracle = np.kron(u, u.conj())
    assert np.linalg.norm(expm(m) - oracle) <= 1e-12 * max(1, np.linalg.norm(oracle))


def test_expm_accuracy_large_norm():
    # relative accuracy 1e-12 up to operator norm 10, vs eigendecomposition
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + dagger(g)) / 2
    h = 10 * h / np.linalg.norm(h, 2)
    w, v = np.linalg.eigh(h)
    oracle = (v * np.exp(-1j * w)) @ dagger(v)
    got = expm(-1j * h)
    assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)


# --- eig ---------------------------------------------------------------------


def test_eig_diagonal():
    m = np.diag([1.0, -1.0, 0.0, 0.0])
    w, r, lh = eig(m, 0.0)
    assert sorted(np.round(w.real, 10)) == [-1.0, 0.0, 0.0, 1.0]
    assert np.allclose(lh @ r, np.eye(4), atol=1e-12)


def test_eig_updown_superoperator():
    # superoperator of the spin-flip channel built via an independent
    # matrix-unit construction; it is real in the matrix-unit basis
    k1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    k2 = k1.T.copy()
    s = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2))
            unit[i, j] = 1.0
            out = k1 @ unit @ k1.T + k2 @ unit @ k2.T
            s[:, 2 * i + j] = out.reshape(-1)
    w, r, lh = eig(s, 0.0)
    assert np.allclose(sorted(np.round(w.real, 9)), [-1, 0, 0, 1])
    assert np.max(np.abs(w.imag)) < 1e-9
    # the peripheral pair alone, with its projections onto I and Z
    w, r, lh = eig(s, 0.5)
    assert sorted(np.round(w.real, 9)) == [-1.0, 1.0]
    for lam, vec_r, vec_l in zip(w, r.T, lh):
        axis = np.eye(2) if lam.real > 0 else Z
        p = np.outer(vec_r, vec_l)
        assert np.allclose(p, np.outer(axis.reshape(-1), axis.reshape(-1)) / 2, atol=1e-12)


def _real_block_diagonal(values):
    """Real block-diagonal matrix with eigenvalues ``values``: each non-real z
    is a 2x2 rotation block that also carries conj(z)."""
    blocks = [[[z.real]] if z.imag == 0 else [[z.real, -z.imag], [z.imag, z.real]]
              for z in map(complex, values)]
    return scipy.linalg.block_diag(*blocks)


def _hidden(d, rng):
    """X D X^-1 for a random real X."""
    x = rng.standard_normal(d.shape)
    return x @ d @ np.linalg.inv(x)


def assert_eig_contract(m, radius):
    """eig(m, radius) leaves m unchanged and returns complex w, r, lh with
    M R = R diag(w), L^dag M = diag(w) L^dag and L^dag R = I."""
    before = m.copy()
    w, r, lh = eig(m, radius)
    assert np.array_equal(m, before)
    assert w.dtype == r.dtype == lh.dtype == complex
    scale = np.linalg.norm(m)
    assert np.linalg.norm(m @ r - r * w) <= 1e-12 * scale * np.linalg.norm(r)
    assert np.linalg.norm(lh @ m - w[:, None] * lh) <= 1e-12 * scale * np.linalg.norm(lh)
    assert np.max(np.abs(lh @ r - np.eye(w.size))) <= 1e-12
    return w


def test_eig_residuals_and_biorthogonality():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6))
    for radius in (0.0, np.median(np.abs(np.linalg.eigvals(m)))):
        w = assert_eig_contract(m, radius)
        assert w.size == (6 if radius == 0 else 3)


def test_eig_real_input_residuals_and_biorthogonality():
    # a real M with complex-conjugate pairs on both sides of the radius 0.8:
    # the selection must keep each pair whole
    rng = np.random.default_rng(7)
    d = _real_block_diagonal([1.2 * np.exp(0.4j), 1.1, 0.6 * np.exp(2.1j), 0.3, -0.7])
    m = _hidden(d, rng)
    assert m.dtype == float
    for radius, count in ((0.0, 7), (0.8, 3)):
        w = assert_eig_contract(m, radius)
        assert w.size == count


def assert_selects_by_modulus(m, spectrum, counts):
    """Radii 1, 0.9, 0.5 and 0 (each less 1e-8) keep exactly the eigenvalues
    of M with |lambda| >= radius, ``counts`` of them; radius 1.5 keeps none."""
    for radius, count in zip((1 - 1e-8, 0.9 - 1e-8, 0.5 - 1e-8, 0.0), counts):
        w = assert_eig_contract(m, radius)
        expected = spectrum[np.abs(spectrum) >= radius]
        assert w.size == count
        assert np.allclose(np.sort_complex(np.round(w, 8)), np.sort_complex(expected), atol=1e-10)
    assert eig(m, 1.5)[0].size == 0


def test_eig_selects_by_modulus():
    # known spectrum on circles of radius 1, 0.9 and 0.5, hidden by a random
    # real similarity: real values and the conjugate pairs +-i, +-0.9i, +-0.5i
    rng = np.random.default_rng(11)
    spectrum = np.array([1.0, -1.0, 1j, 0.9, 0.9j, 0.5, 0.5j, 0.0])
    m = _hidden(_real_block_diagonal(spectrum), rng)
    spectrum = np.concatenate([spectrum, spectrum[spectrum.imag != 0].conj()])
    assert_selects_by_modulus(m, spectrum, (4, 7, 10, 11))


def test_eig_real_input_selects_by_modulus():
    # the same circles for a real M, which also carries the conjugate of each
    # non-real value: the pairs i, -i and 0.9 exp(+-0.7i) are selected whole
    rng = np.random.default_rng(11)
    spectrum = np.array([1.0, -1.0, 1j, 0.9 * np.exp(0.7j), 0.5, 0.5 * np.exp(2j), 0.0])
    m = _hidden(_real_block_diagonal(spectrum), rng)
    spectrum = np.concatenate([spectrum, spectrum[spectrum.imag != 0].conj()])
    assert_selects_by_modulus(m, spectrum, (4, 6, 9, 10))


def _stinespring_real_form(d, seed):
    """The real form T S T^-1 (``spectral._real_form``) of a rank-2 Stinespring kick on C^d,
    a mixing channel: its one eigenvalue of modulus 1 is 1."""
    from bathdd.spectral import _real_form

    s = sum(np.kron(k, k.conj()) for k in stinespring_kraus(d, 2, np.random.default_rng(seed)))
    return _real_form(d, s.tobytes())[2]


@pytest.mark.parametrize("d", range(2, 9))
def test_eig_one_eigenvalue_route_on_stinespring_kicks(d):
    # a single selected eigenvalue takes its vectors from the bordered solves, and they
    # meet the contract of the general route
    m = _stinespring_real_form(d, seed=d)
    w = assert_eig_contract(m, 1 - 1e-8)
    assert w.size == 1 and abs(w[0] - 1) <= 1e-13
    lam = np.linalg.eigvals(m)
    lone = _lone_eigenvectors(m, lam[np.argmax(np.abs(lam))].real)
    assert lone is not None
    assert all(np.array_equal(a, b) for a, b in zip(eig(m, 1 - 1e-8), lone))


def test_eig_residual_guard_sends_a_lone_eigenvalue_to_the_general_route():
    # eigenvalue 1 is simple, but its left eigenvector l is orthogonal to the all-ones
    # border, so the bordered matrix is singular to rounding: its solution is no eigenvector,
    # the residual guard rejects it, and the two eigenvector sets give the contract instead
    rng = np.random.default_rng(5)
    left, right = np.array([1.0, -1.0, 2.0, -2.0]), np.array([1.0, 0.3, -0.7, 0.2])
    p = np.outer(right, left) / (left @ right)
    a = rng.standard_normal((4, 4))
    m = p + (np.eye(4) - p) @ (0.5 * a / np.linalg.norm(a, 2)) @ (np.eye(4) - p)
    assert _lone_eigenvectors(m, 1.0) is None
    w = assert_eig_contract(m, 0.9)
    assert w.size == 1 and abs(w[0] - 1) <= 1e-14
    _, r, lh = eig(m, 0.9)
    assert np.max(np.abs(r @ lh - p)) <= 1e-13


def test_eig_defective_selection_keeps_values():
    # a nilpotent 3x3 Jordan block in disguise: the values are exact, the
    # right eigenvectors are dependent and no left adjoints exist
    m = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    w, r, lh = eig(m, 0.0)
    assert np.allclose(w, 0)
    assert np.linalg.cond(r) > 1e12
    assert not np.all(np.isfinite(lh)) or np.max(np.abs(lh)) > 1e12


@settings(max_examples=25)
@given(arrays(np.float64, (3, 3), elements=st.floats(-3, 3, allow_nan=False)))
def test_eig_trace_and_det(m):
    w, _, _ = eig(m, 0.0)
    scale = max(1, np.linalg.norm(m))
    assert w.size == 3
    assert np.sum(w) == pytest.approx(np.trace(m), abs=1e-7 * scale)
    assert np.prod(w) == pytest.approx(np.linalg.det(m), abs=1e-7 * scale**3)
