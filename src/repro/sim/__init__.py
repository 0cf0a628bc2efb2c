"""The Algorand protocol simulator substrate.

Modules
-------
rng
    Named, independently seeded random substreams.
crypto
    Simulated keys, signatures, VRF and round seeds.
sortition
    Stake-weighted binomial committee selection with verifiable proofs.
blocks
    Blocks, transactions, per-node ledgers.
network
    The random gossip overlay.
behavior
    Node behaviour categories.
ba_star
    The Reduction + BinaryBA* consensus state machine.
fastpath
    The vectorized round-level simulator, with its reward-mechanism
    hooks.  Its per-message differential oracle lives with the test
    suite (``tests/des``).
config / metrics / roles
    Tunables, per-round measurements, and role snapshots.
"""

from repro.sim.behavior import (
    Behavior,
    assign_behaviors,
    defective_fraction,
    strategic_fraction,
)
from repro.sim.blocks import Block, ConsensusLabel, Ledger, Transaction
from repro.sim.config import SIMULATION_BACKENDS, SimulationConfig
from repro.sim.fastpath import (
    FastSimulation,
    LatencyModel,
    RewardMechanism,
    make_simulation,
)
from repro.sim.metrics import RoundRecord, SimulationMetrics, average_fractions
from repro.sim.rng import RngStreams
from repro.sim.roles import RewardAllocation, RoleSnapshot
from repro.sim.sortition import Role, SortitionProof, sortition, verify_sortition

__all__ = [
    "Behavior",
    "Block",
    "ConsensusLabel",
    "FastSimulation",
    "LatencyModel",
    "Ledger",
    "SIMULATION_BACKENDS",
    "RewardAllocation",
    "RewardMechanism",
    "RngStreams",
    "Role",
    "RoleSnapshot",
    "RoundRecord",
    "SimulationConfig",
    "SimulationMetrics",
    "SortitionProof",
    "Transaction",
    "assign_behaviors",
    "defective_fraction",
    "strategic_fraction",
    "average_fractions",
    "make_simulation",
    "sortition",
    "verify_sortition",
]
