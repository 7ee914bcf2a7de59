"""Spectral analysis of finite-dimensional quantum channels.

Decides from the peripheral spectrum of a kick channel whether bath
dynamical decoupling applies (the kick must be ergodic) and whether repeated
kicking suppresses all Hamiltonian evolution in the Zeno limit (the kick
must have no decoherence-free subsystem), and simulates the kicked
evolutions to desk scale.
"""

from .channel import (
    ChannelError,
    KrausChannel,
    Superoperator,
    choi,
    load_channel,
    to_superoperator,
    validate_cptp,
)
from .classify import Classification, classify
from .hamiltonian import random_hamiltonian
from .harness import SweepConfig, SweepRecord, choi_distance, reproduce, sweep
from .spectral import (
    PeripheralDecomposition,
    SpectralError,
    analyze_peripheral,
    fixed_point_state,
    peripheral_power,
)
from .zeno import DdVerdict, dd_check, suppression_check, zeno_hamiltonian
from .zoo import builtin, names

__version__ = "0.1.0"
