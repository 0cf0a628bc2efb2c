"""Integration tests for the multi-round simulation driver."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim import Behavior, ConsensusLabel, SimulationConfig
from repro.sim.blocks import Transaction

from des import AlgorandSimulation


def _config(**overrides) -> SimulationConfig:
    defaults = dict(
        n_nodes=40,
        seed=11,
        tau_proposer=6.0,
        tau_step=60.0,
        tau_final=80.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestHealthyNetwork:
    def test_all_nodes_finalize(self):
        sim = AlgorandSimulation(_config())
        record = sim.run_round()
        assert record.authoritative_label is ConsensusLabel.FINAL
        assert record.n_final == 40
        assert record.n_none == 0

    def test_rounds_accumulate_blocks(self):
        sim = AlgorandSimulation(_config())
        sim.run(3)
        assert sim.authoritative.height == 3
        assert sim.authoritative.final_height() == 3

    def test_healthy_round_short_circuits(self):
        sim = AlgorandSimulation(_config())
        record = sim.run_round()
        assert record.steps_used <= 4  # common case: concluded at binary step 1

    def test_node_ledgers_match_authoritative(self):
        sim = AlgorandSimulation(_config())
        sim.run(3)
        tip = sim.authoritative.tip().block_hash()
        for node in sim.nodes:
            assert node.ledger.tip().block_hash() == tip

    def test_roles_partition_online_nodes(self):
        sim = AlgorandSimulation(_config())
        sim.run_round()
        snapshot = sim.role_snapshot(1)
        assert snapshot.n_nodes == 40
        assert len(snapshot.leaders) >= 1
        assert len(snapshot.committee) >= 1

    def test_metrics_series(self):
        sim = AlgorandSimulation(_config())
        metrics = sim.run(2)
        assert metrics.n_rounds == 2
        assert metrics.series("fraction_final") == [1.0, 1.0]
        assert metrics.final_block_rate() == 1.0


class TestDeterminism:
    def test_same_seed_reproduces_metrics(self):
        a = AlgorandSimulation(_config()).run(2)
        b = AlgorandSimulation(_config()).run(2)
        assert a.to_rows() == b.to_rows()

    def test_different_seed_changes_something(self):
        a = AlgorandSimulation(_config(seed=1)).run(2)
        b = AlgorandSimulation(_config(seed=2)).run(2)
        # Role assignments are sortition-driven: leader counts should differ.
        assert [r.n_leaders for r in a.records] != [r.n_leaders for r in b.records] or [
            r.n_committee for r in a.records
        ] != [r.n_committee for r in b.records]

    def test_stake_vector_respected(self):
        stakes = [float(5 + i) for i in range(40)]
        sim = AlgorandSimulation(_config(stakes=stakes))
        assert sim.total_stake() == sum(stakes)


class TestDefection:
    def test_full_defection_produces_no_block(self):
        sim = AlgorandSimulation(_config(defection_rate=1.0))
        record = sim.run_round()
        assert record.authoritative_label is ConsensusLabel.NONE
        assert record.n_final == 0
        assert record.n_leaders == 0

    def test_heavy_defection_kills_finality(self):
        sim = AlgorandSimulation(_config(defection_rate=0.3))
        metrics = sim.run(3)
        assert all(r.fraction_final < 0.5 for r in metrics.records)

    def test_light_defection_mostly_survives(self):
        sim = AlgorandSimulation(_config(defection_rate=0.05))
        metrics = sim.run(3)
        assert sum(r.fraction_final for r in metrics.records) / 3 > 0.5

    def test_explicit_behaviors_override_rates(self):
        behaviors = [Behavior.HONEST] * 39 + [Behavior.SELFISH_DEFECT]
        sim = AlgorandSimulation(_config(), behaviors=behaviors)
        assert sim.nodes[39].behavior is Behavior.SELFISH_DEFECT
        record = sim.run_round()
        assert record.n_final >= 39

    def test_behavior_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            AlgorandSimulation(_config(), behaviors=[Behavior.HONEST])


class TestFaultyAndMalicious:
    def test_offline_nodes_are_excluded_from_metrics(self):
        sim = AlgorandSimulation(_config(offline_rate=0.1))
        record = sim.run_round()
        assert record.n_online == 36

    def test_small_malicious_minority_is_tolerated(self):
        sim = AlgorandSimulation(_config(malicious_rate=0.1))
        record = sim.run_round()
        assert record.fraction_final > 0.7


class TestRewardsIntegration:
    class _FlatMechanism:
        """Pays every online node one Algo (test double)."""

        def allocate(self, snapshot):
            from repro.sim.roles import RewardAllocation

            per_node = {node_id: 1.0 for node_id in snapshot.all_stakes()}
            return RewardAllocation(per_node=per_node, total=float(len(per_node)),
                                    params={"b_i": float(len(per_node))})

        name = "flat"

    def test_rewards_compound_into_stakes(self):
        sim = AlgorandSimulation(_config(), mechanism=self._FlatMechanism())
        before = sim.total_stake()
        record = sim.run_round()
        assert record.reward_total == 40.0
        assert sim.total_stake() == pytest.approx(before + 40.0)

    def test_reward_params_recorded(self):
        sim = AlgorandSimulation(_config(), mechanism=self._FlatMechanism())
        record = sim.run_round()
        assert record.reward_params["b_i"] == 40.0


class TestTransactions:
    def test_transaction_source_feeds_blocks(self):
        def source(round_index):
            return [Transaction(1, 2, 5.0, nonce=round_index)]

        sim = AlgorandSimulation(_config(), transaction_source=source)
        sim.run_round()
        tip = sim.authoritative.tip()
        assert len(tip.transactions) == 1


class TestValidationErrors:
    def test_zero_rounds_rejected(self):
        sim = AlgorandSimulation(_config())
        with pytest.raises(SimulationError):
            sim.run(0)

    def test_seed_advances_every_round(self):
        sim = AlgorandSimulation(_config())
        seed_before = sim.sortition_seed
        sim.run_round()
        assert sim.sortition_seed != seed_before
