"""The per-message discrete-event simulator (DES): the fast kernel's oracle.

Every gossip hop is an event and every node a callback-driven object.
That fidelity costs about a second per simulated round, so the library
runs the vectorized round kernel (:mod:`repro.sim.fastpath`) instead, and
this package stays with the test suite to check it: on paired seeds the
two agree record for record (``tests/sim/test_fastpath_oracle.py``,
``benchmarks/check_fastpath_drift.py``).

Modules
-------
engine
    Deterministic discrete-event executor.
messages
    Gossip message types.
network
    Gossip dissemination with delays, drops, and priority relay filtering.
node
    The per-node protocol logic, task counters and their pricing.
protocol
    :class:`AlgorandSimulation`, the multi-round driver.
latency
    :func:`fit_latency_model`, the calibration of the kernel's
    hop-budget latency model.
signing
    Per-node sortition with its verifiable proof, message signatures,
    and VRF and proof verification.

The DES reads the kernel's shared definitions (config, stakes,
behaviours, overlay, BA* state machine, quorum rule) from ``repro.sim``,
so paired runs start from identical state.  It imports numpy and
``repro`` only, never the suite's scipy/networkx oracles, so the
numpy-only CI job can run the drift guard.  Tests import it as ``des``
(the suite's root directory is on ``sys.path`` through its
``conftest.py``); the benchmark scripts add ``tests/`` to ``sys.path``.
"""

from des.engine import EventEngine
from des.latency import fit_latency_model
from des.messages import CredentialMessage
from des.network import GossipNetwork
from des.node import count_votes, price_counters
from des.protocol import AlgorandSimulation

__all__ = [
    "AlgorandSimulation",
    "CredentialMessage",
    "EventEngine",
    "GossipNetwork",
    "count_votes",
    "fit_latency_model",
    "price_counters",
]
