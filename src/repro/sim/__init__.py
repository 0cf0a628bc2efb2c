"""The Algorand protocol simulator substrate.

Modules
-------
rng
    Named, independently seeded random substreams.
crypto
    Simulated keys, VRF and round seeds.
sortition
    Stake-weighted binomial committee selection: the batched CDF
    inversion the fast kernel draws committee weights with (the DES's
    per-node draw and proofs live in ``tests/des/signing.py``).
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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "behavior": (
        "Behavior", "assign_behaviors", "defective_fraction", "strategic_fraction",
    ),
    "blocks": ("Block", "ConsensusLabel", "Ledger", "Transaction"),
    "config": ("SIMULATION_BACKENDS", "SimulationConfig"),
    "fastpath": ("FastSimulation", "LatencyModel", "RewardMechanism", "make_simulation"),
    "metrics": ("RoundRecord", "SimulationMetrics", "average_fractions"),
    "rng": ("RngStreams",),
    "roles": ("RewardAllocation", "RoleSnapshot"),
    "sortition": ("Role",),
})
