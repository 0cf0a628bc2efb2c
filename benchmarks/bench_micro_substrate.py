"""Micro-benchmarks of the simulator substrate.

Not paper figures — these track the performance of the building blocks
(sortition, gossip dissemination, a full consensus round, the Nash check)
so regressions in the substrate are visible.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from repro.core import RoleCosts, is_nash_equilibrium, all_cooperate
from repro.core.game import AlgorandGame, FoundationRule
from repro.sim import SimulationConfig
from repro.sim.crypto import KeyPair
from repro.sim.network import build_random_overlay
from repro.sim.sortition import Role

# The discrete-event simulator is the fast kernel's test oracle: it lives
# with the test suite.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from des import (  # noqa: E402
    AlgorandSimulation,
    CredentialMessage,
    EventEngine,
    GossipNetwork,
)
from des.signing import sortition  # noqa: E402


def test_bench_sortition_throughput(benchmark):
    """One sortition evaluation (VRF + binomial inversion + priority)."""
    keypair = KeyPair.generate("bench")

    def run():
        return sortition(
            keypair, seed=1234, round_index=7, role=Role.STEP,
            stake=100, total_stake=1_000_000, expected_size=2000, step=3,
        )

    proof = benchmark(run)
    assert proof is not None


def test_bench_gossip_broadcast(benchmark):
    """Disseminating one message through a 200-node, fanout-5 overlay."""
    rng = random.Random(0)
    overlay = build_random_overlay(list(range(200)), 5, rng)

    class Sink:
        def __init__(self, node_id):
            self.node_id = node_id

        def on_receive(self, message, now):
            return True

        relays_gossip = True
        is_online = True

    def run():
        engine = EventEngine()
        network = GossipNetwork(engine, overlay, delay_sampler=lambda: 0.1)
        for node_id in range(200):
            network.register(Sink(node_id))
        network.broadcast(0, CredentialMessage(sender=0, block_round=1))
        engine.run()
        return network.stats.deliveries

    deliveries = benchmark(run)
    assert deliveries >= 199


def test_bench_consensus_round(benchmark):
    """One healthy BA* round on a 60-node network."""
    config = SimulationConfig(
        n_nodes=60, seed=3, tau_proposer=8.0, tau_step=60.0, tau_final=80.0,
        verify_crypto=False,
    )

    def run():
        simulation = AlgorandSimulation(config)
        return simulation.run_round()

    record = benchmark.pedantic(run, rounds=3, iterations=1)
    assert record.n_final > 0


def test_bench_nash_check(benchmark):
    """Exact Nash check on a 30-player round game."""
    game = AlgorandGame.from_role_stakes(
        leader_stakes=[5.0] * 4,
        committee_stakes=[3.0] * 12,
        online_stakes=[10.0] * 14,
        costs=RoleCosts.paper_defaults(),
        reward_rule=FoundationRule(b_i=20.0),
    )
    profile = all_cooperate(game)

    result = benchmark(lambda: is_nash_equilibrium(game, profile))
    assert not result.is_equilibrium  # Theorem 2


def test_bench_sortition_batch_population(benchmark):
    """Vectorized sortition sampling for a 500k-node population.

    The numpy batch path inverts the binomial CDF for every node at once;
    the scalar `binomial_weight` loop it replaces is the correctness
    oracle (tests/analysis/test_vectorized.py) and is ~two orders of
    magnitude slower at this scale.
    """
    import numpy as np

    from repro.sim.sortition import sample_population_weights

    rng = np.random.default_rng(11)
    stakes = rng.uniform(1, 200, 500_000)
    total = float(stakes.sum())

    def run():
        return sample_population_weights(
            stakes, total, 2000.0, np.random.default_rng(7)
        )

    weights = benchmark(run)
    assert 0 < int(weights.sum()) < 2 * 2000


def test_bench_sortition_batch_zipf_whales(benchmark):
    """Vectorized sortition for a 5k-agent zipf population, 2000 seats.

    The service audit's cold shape.  Unlike the uniform 500k case above,
    a heavy-tailed population leaves a few whales walking hundreds of CDF
    steps after the crowd has retired, so this times the scalar tail of
    `binomial_weights` rather than its lockstep crowd phase.
    """
    import numpy as np

    from repro.analysis.scale import ScaleConfig
    from repro.sim.sortition import sample_population_weights

    population = ScaleConfig(n_agents=5_000, seed=2021).population_spec().materialize()
    stakes = population.stake64()
    total = float(stakes.astype(np.int64).sum())

    def run():
        return sample_population_weights(
            stakes, total, 2000.0, np.random.default_rng(7)
        )

    weights = benchmark(run)
    assert weights.max() >= 100  # at least one whale walked the tail


def test_bench_zipf_block_synthesis(benchmark):
    """One 8192-agent zipf seed block at the `audit_grid_1m` parameters.

    Exponent 1.9, scale 3.0: the stake column is the block's main cost.
    The zipf family replays numpy's rejection loop with array operations
    (`generators.zipf_draws`); `Generator.zipf` runs it one draw at a
    time and is the test oracle.
    """
    from repro.populations import PopulationSpec
    from repro.populations.arrays import SEED_BLOCK

    spec = PopulationSpec(
        family="zipf", size=4 * SEED_BLOCK,
        params={"exponent": 1.9, "scale": 3.0}, seed=2021,
    )

    block = benchmark(lambda: spec.block(1))
    assert block.n_agents == SEED_BLOCK and block.offset == SEED_BLOCK
