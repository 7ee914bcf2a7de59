"""Acceptance suite: eleven end-to-end criteria at their stated tolerances.

Each test prints exactly one PASS/FAIL line (visible with pytest -s or -rA).
Desk scale throughout: d <= 8, superoperators <= 64x64.
"""

import numpy as np
import pytest

from bathdd.channel import (
    Superoperator,
    extend_with_identity,
    to_superoperator,
)
from bathdd.classify import classify
from bathdd.hamiltonian import random_hamiltonian
from bathdd.harness import choi_distance, reduced_choi_purity
from bathdd.linalg import dagger, expm, kron
from bathdd.spectral import analyze_peripheral, fixed_point_state, peripheral_power
from bathdd.zeno import (
    dd_check,
    dd_evolution,
    suppression_check,
    zeno_evolution,
    zeno_hamiltonian,
)
from bathdd.zoo import builtin, names, pauli
from helpers import sup

Z = pauli("z")
EYE2 = np.eye(2, dtype=complex)

ERGODIC_ZOO = ("E_updown", "E_hook", "E_triangle", "E_square", "P_rho")
DFS_FREE_ZOO = ERGODIC_ZOO + ("E_dephase",)


def zeno_target(dec, h_z, t, n):
    """The Zeno-limit target E_phi^n e^{-i t H_Z}."""
    return Superoperator(dec.dim, peripheral_power(dec, n).matrix @ expm(-1j * t * h_z.matrix))


def report(num, label, ok):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def herm_sqrt(m):
    w, v = np.linalg.eigh((m + dagger(m)) / 2)
    return (v * np.sqrt(np.maximum(w, 0))) @ dagger(v)


def test_criterion_01_classification_table():
    ok = True
    for name in names():
        entry = builtin(name, **({"p": 0.5} if name == "E_square" else {}))
        c = classify(to_superoperator(entry.channel), name=name)
        e = entry.expected
        ok &= (
            c.ergodic == e.ergodic
            and c.mixing == e.mixing
            and c.irreducible == e.irreducible
            and c.dfs_free == e.dfs_free
        )
    report(1, "classification booleans match the reference table for all 8 channels", ok)


def test_criterion_02_ergodic_peripheral_structure():
    ok = True
    for name in ERGODIC_ZOO:
        s = sup(name)
        dec = analyze_peripheral(s)
        rho = fixed_point_state(dec)
        k = classify(s).cycle_lengths[0]
        roots = sorted(np.exp(2j * np.pi * np.arange(k) / k), key=np.angle)
        got = sorted(dec.peripheral_values, key=np.angle)
        ok &= np.allclose(got, roots, atol=1e-8)
        ok &= bool(np.all(dec.multiplicities == 1))  # rank-1 projections: non-degenerate spectrum
        for r, l in zip(dec.right.T, dec.left.conj()):
            r, l = r.reshape(dec.dim, dec.dim), l.reshape(dec.dim, dec.dim)
            ok &= np.linalg.norm(dagger(l) @ r - r @ dagger(l)) <= 1e-8
            sig = herm_sqrt(dagger(r) @ r)
            ok &= np.linalg.norm(sig / np.trace(sig) - rho) <= 1e-8
    report(2, "ergodic peripheral spectra are root-of-unity groups with "
              "rank-1 projections, commuting L/R pairs, and rho* = sqrt(R^dag R)", ok)


@pytest.fixture(scope="module")
def updown_dd_min_curve():
    s2 = sup("E_updown")
    ns = (1, 2, 5, 10, 20, 50, 100)
    hams = [random_hamiltonian(4, s) for s in range(100)]
    curve = {}
    for n in ns:
        curve[n] = min(
            reduced_choi_purity(dd_evolution(s2, h, 1.0, n, 2), 2, 2) for h in hams
        )
    return curve


def test_criterion_03_spinflip_dd_purity(updown_dd_min_curve):
    curve = updown_dd_min_curve
    ns = sorted(curve)
    ok = curve[100] >= 0.99
    for a, b in zip(ns, ns[1:]):
        ok &= curve[b] >= curve[a] - 1e-3
    report(3, f"spin-flip kick decouples: min purity {curve[100]:.4f} >= 0.99 "
              "at n=100, trend monotone", ok)


def test_criterion_04_spinflip_zeno_rate():
    s = sup("E_updown")
    hams = [random_hamiltonian(2, s_) for s_ in range(100)]
    ok = True
    for n in (5, 10, 20, 50, 100):
        s_n = Superoperator(s.dim, np.linalg.matrix_power(s.matrix, n))
        worst = max(choi_distance(zeno_evolution(s, h, 1.0, n), s_n) for h in hams)
        ok &= worst <= 1.5 * 2.7 / n
    report(4, "spin-flip Zeno error stays below 1.5 * (2.7/n)", ok)


def test_criterion_05_dephasing_dd():
    s2 = sup("E_dephase", d=2)
    h_fix = kron(Z, Z)
    ok = True
    for n in range(1, 101):
        p = reduced_choi_purity(dd_evolution(s2, h_fix, 1.0, n, 2), 2, 2)
        ok &= abs(p - 0.59) <= 0.02
    hams = [random_hamiltonian(4, s) for s in range(100)]
    means = {}
    for n in (50, 100):
        means[n] = float(np.mean(
            [reduced_choi_purity(dd_evolution(s2, h, 1.0, n, 2), 2, 2) for h in hams]
        ))
        ok &= abs(means[n] - 0.85) <= 0.03
    report(5, f"dephasing kick: fixture purity constant at 0.59, random mean "
              f"{means[100]:.3f} within 0.85 +/- 0.03", ok)


def test_criterion_06_dephasing_zeno_rate():
    s = sup("E_dephase", d=2)
    dec = analyze_peripheral(s)
    hams = [random_hamiltonian(2, s_) for s_ in range(100)]
    ok = True
    for n in (5, 10, 20, 50, 100):
        worst = 0.0
        for h in hams:
            hz = zeno_hamiltonian(dec, h)
            worst = max(worst, choi_distance(
                zeno_evolution(s, h, 1.0, n), zeno_target(dec, hz, 1.0, n)))
        ok &= worst <= 1.5 * 2 / n
    report(6, "dephasing Zeno error stays below 1.5 * (2/n)", ok)


def test_criterion_07_dfs_constants():
    s2 = sup("E_omega")  # bath reset to the maximally mixed state
    dec = analyze_peripheral(s2)
    ok = True
    # decoupling fixture: constant purity 0.59
    h_dd = kron(kron(Z, Z), EYE2)
    for n in (1, 10, 50, 100):
        p = reduced_choi_purity(dd_evolution(s2, h_dd, 1.0, n, 2), 2, 4)
        ok &= abs(p - 0.59) <= 0.02
    # decoupling random mean 0.91
    hams8 = [random_hamiltonian(8, s) for s in range(100)]
    mean_dd = float(np.mean(
        [reduced_choi_purity(dd_evolution(s2, h, 1.0, 50, 2), 2, 4) for h in hams8]
    ))
    ok &= abs(mean_dd - 0.91) <= 0.03
    # suppression fixture: constant distance 1.68 to the suppressed target
    h_z = kron(Z, EYE2)
    hz0 = zeno_hamiltonian(dec, np.zeros((4, 4)))
    for n in (1, 10, 50, 100):
        d = choi_distance(zeno_evolution(s2, h_z, 1.0, n),
                          zeno_target(dec, hz0, 1.0, n))
        ok &= abs(d - 1.68) <= 0.02
    # suppression random mean 0.55
    hams4 = [random_hamiltonian(4, s) for s in range(100)]
    mean_z = float(np.mean([
        choi_distance(zeno_evolution(s2, h, 1.0, 100),
                      zeno_target(dec, hz0, 1.0, 100))
        for h in hams4
    ]))
    ok &= abs(mean_z - 0.55) <= 0.03
    report(7, f"reset kick with a protected qubit: fixture constants 0.59/1.68, "
              f"random means {mean_dd:.3f}/{mean_z:.3f} near 0.91/0.55", ok)


def test_criterion_08_decoupling_decision():
    ok = True
    for name in ERGODIC_ZOO:
        s2 = sup(name)
        d2 = s2.dim
        for seed in range(20):
            v = dd_check(s2, random_hamiltonian(2 * d2, seed), 2)
            ok &= v.works and v.residual <= 1e-8
    v = dd_check(sup("E_dephase", d=2), kron(Z, Z), 2)
    ok &= not v.works
    v = dd_check(sup("E_omega"), kron(kron(Z, Z), EYE2), 2)
    ok &= not v.works
    report(8, "decoupling verdict: true for every ergodic kick x 20 random H, "
              "false for the non-ergodic counterexamples", ok)


def test_criterion_09_suppression_decision():
    ok = True
    for name in DFS_FREE_ZOO:
        s = sup(name)
        for seed in range(20):
            ok &= suppression_check(s, random_hamiltonian(s.dim, seed), tol=1e-10)
    for name in ("E_omega", "E_df"):
        entry = builtin(name)
        s = to_superoperator(entry.channel)
        for _, h, expected in entry.witnesses:
            ok &= suppression_check(s, h) == expected
    # reset to a non-uniform bath state still has the protected qubit
    entry = builtin("E_omega", omega=np.diag([0.3, 0.7]))
    ok &= not suppression_check(to_superoperator(entry.channel), kron(Z, EYE2))
    report(9, "suppression verdict: true for every DFS-free kick x 20 random H, "
              "false on the protected-subsystem witnesses", ok)


def test_criterion_10_zeno_rate_oracle():
    ok = True
    floor = 1e-12  # below this the kicked evolution already equals its target
    for name in names():
        s = sup(name)
        dec = analyze_peripheral(s)
        for seed in range(5):
            h = random_hamiltonian(s.dim, 1000 + seed)
            hz = zeno_hamiltonian(dec, h)

            def err(n):
                return choi_distance(zeno_evolution(s, h, 1.0, n),
                                     zeno_target(dec, hz, 1.0, n))

            for n in (8, 16, 32):
                e_n, e_2n = err(n), err(2 * n)
                if e_n < floor:
                    continue
                ok &= 1.6 <= e_n / e_2n <= 2.4
    report(10, "first-order Zeno convergence: err(n)/err(2n) in [1.6, 2.4] "
               "across the whole channel zoo", ok)


def test_criterion_11_ergodicity_stability():
    ok = True
    zoo = {name: sup(name) for name in names()}
    for erg in ERGODIC_ZOO:
        se = zoo[erg]
        for other, so in zoo.items():
            if so.dim != se.dim:
                continue
            mix = Superoperator(se.dim, 0.1 * se.matrix + 0.9 * so.matrix)
            ok &= classify(mix).ergodic
        with_id = Superoperator(
            se.dim, 0.1 * se.matrix + 0.9 * np.eye(se.dim**2)
        )
        ok &= classify(with_id).mixing
    report(11, "small ergodic admixtures keep ergodicity; admixture to the "
               "identity channel is mixing", ok)
