"""Entanglement-picture simulation toolkit.

Quantum dynamics represented as networks of channels acting on the bond
(entanglement) space of matrix-product states, with exact, sampled, and
region-partitioned evaluators, thermal/entropy/transition-amplitude
estimators, and a brute-force oracle backing every quantity.
"""

from .channels import Channel, ChoiState, oqt_channel
from .hamiltonians import LocalHamiltonian, build_heisenberg, build_tfim
from .mps import MPS, from_statevector
from .network import (
    BrickworkCircuit,
    ChannelNetwork,
    build_network,
    compile_gate,
    evaluate_exact,
    evaluate_regions,
    evaluate_sampled,
    oqt_prepare_plan,
    resources,
)

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "ChoiState",
    "oqt_channel",
    "LocalHamiltonian",
    "build_heisenberg",
    "build_tfim",
    "MPS",
    "from_statevector",
    "BrickworkCircuit",
    "ChannelNetwork",
    "build_network",
    "compile_gate",
    "evaluate_exact",
    "evaluate_regions",
    "evaluate_sampled",
    "oqt_prepare_plan",
    "resources",
]
