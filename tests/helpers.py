"""Builders shared by the test modules: kicks, Hamiltonians, channel files and the plain
references that several modules check against. Each keeps its seeds and RNG call order, so
every kick it builds is the same bit for bit wherever it is read."""

import json

import numpy as np
import scipy.linalg
from hypothesis import strategies as st

from bathdd.channel import KrausChannel, Superoperator, _matrix_to_pairs, to_superoperator
from bathdd.linalg import kron
from bathdd.zoo import builtin

# 0.9 I as a channel file: completely positive, but its trace residual ||0.81 I - I||_F is 0.269
NOT_CPTP = {"dim": 2, "kraus": [[[[0.9, 0], [0, 0]], [[0, 0], [0.9, 0]]]]}


def sup(name, **params):
    return to_superoperator(builtin(name, **params).channel)


def stinespring_kraus(d, rank, rng):
    """Kraus operators of a random channel: the blocks of a Haar-like isometry."""
    g = rng.standard_normal((d * rank, d)) + 1j * rng.standard_normal((d * rank, d))
    v, _ = np.linalg.qr(g)
    return [v[i * d:(i + 1) * d] for i in range(rank)]


def random_stinespring(d, rank, seed):
    kraus = stinespring_kraus(d, rank, np.random.default_rng(seed))
    return to_superoperator(KrausChannel(d, tuple(kraus)))


# Kraus lists of random channels with d <= 4 and Kraus rank 1 to 3, shared by the property
# tests; rank 1 is a unitary channel, which has a DFS.
STINESPRING_KRAUS = st.builds(
    lambda d, rank, seed: tuple(stinespring_kraus(d, rank, np.random.default_rng(seed))),
    st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))


def random_unitary(d, seed):
    """A Haar unitary: Q of a complex Gaussian matrix, with the phases of R's diagonal fixed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def channel_dict(ch):
    """The channel file format: dim, Kraus operators as [re, im] pairs, name."""
    return {"dim": ch.dim, "kraus": [_matrix_to_pairs(k) for k in ch.kraus], "name": ch.name}


def save_channel(ch, path):
    path.write_text(json.dumps(channel_dict(ch)))


def apply(s, x):
    """S(X) in the row vectorization: vec(|i><j|) is the (d i + j)-th basis vector."""
    return (s.matrix @ np.reshape(x, -1)).reshape(np.shape(x))


def projections(dec):
    """The spectral projection right[:, c] @ left[c] of each cluster c."""
    ends = np.cumsum(dec.multiplicities)
    return [dec.right[:, e - m:e] @ dec.left[e - m:e] for m, e in zip(dec.multiplicities, ends)]


def plain_kicked_evolution(kick, h, t, n):
    """(S W)^n with W = V kron conj(V) and V = expm(-i (t/n) H): the unfactored
    n-fold product, built without bathdd's kicked-evolution code."""
    v = scipy.linalg.expm(-1j * t / n * h)
    return Superoperator(kick.dim, np.linalg.matrix_power(kick.matrix @ kron(v, v.conj()), n))
