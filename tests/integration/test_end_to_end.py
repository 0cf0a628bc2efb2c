"""Full-stack integration: DES simulator + reward mechanisms + game checks."""

from __future__ import annotations

import pytest

from repro.core import (
    FoundationSharing,
    IncentiveCompatibleSharing,
    RoleCosts,
)
from repro.sim import SimulationConfig
from repro.stakes.exchange import ExchangeSimulator

from des import AlgorandSimulation, price_counters
from scalar_game.equilibrium import theorem3_equilibrium
from scalar_game.game import AlgorandGame, RoleBasedRule


def _config(**overrides) -> SimulationConfig:
    defaults = dict(
        n_nodes=40,
        seed=21,
        tau_proposer=6.0,
        tau_step=60.0,
        tau_final=80.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestSimulationWithFoundationSharing:
    def test_rewards_flow_every_round(self):
        sim = AlgorandSimulation(_config(), mechanism=FoundationSharing(reward=20.0))
        metrics = sim.run(3)
        assert metrics.total_rewards() == pytest.approx(60.0)

    def test_defectors_still_get_paid(self):
        """The Theorem 2 flaw, observed in the simulator."""
        sim = AlgorandSimulation(
            _config(defection_rate=0.1), mechanism=FoundationSharing(reward=20.0)
        )
        sim.run(2)
        defectors = [n for n in sim.nodes if n.behavior.value == "selfish_defect"]
        assert defectors
        assert all(node.rewards_received > 0 for node in defectors)

    def test_stakes_compound(self):
        sim = AlgorandSimulation(_config(), mechanism=FoundationSharing(reward=20.0))
        initial = sim.total_stake()
        sim.run(2)
        assert sim.total_stake() == pytest.approx(initial + 40.0)


class TestSimulationWithAlgorithm1:
    def test_adaptive_mechanism_runs_in_simulation(self):
        mechanism = IncentiveCompatibleSharing(on_infeasible="skip")
        sim = AlgorandSimulation(_config(), mechanism=mechanism)
        metrics = sim.run(3)
        assert len(mechanism.reports) == 3
        for record in metrics.records:
            assert record.reward_total > 0
            assert 0 < record.reward_params["alpha"] < 1

    def test_no_leader_would_rather_have_idled(self):
        """The realized payments make every leader's role worthwhile.

        Note the guarantee is *deviation-unprofitability*, not a higher
        per-stake rate: a large leader deviating would dilute the K pool by
        its own stake, so its cooperate rate can sit below the idle rate
        while deviation stays unprofitable (Lemma 2's exact comparison).
        """
        costs = RoleCosts.paper_defaults()
        mechanism = IncentiveCompatibleSharing(costs=costs, on_infeasible="skip")
        sim = AlgorandSimulation(_config(), mechanism=mechanism)
        sim.run_round()
        snapshot = sim.role_snapshot(1)
        by_id = {node.node_id: node for node in sim.nodes}
        report = mechanism.reports[0]
        stake_others = snapshot.stake_others
        for nid, stake in snapshot.leaders.items():
            earned = by_id[nid].rewards_received
            cooperate_payoff = earned - costs.leader
            deviate_payoff = (
                report.gamma * report.b_i * stake / (stake_others + stake)
                - costs.sortition
            )
            assert cooperate_payoff > deviate_payoff

    def test_collapsed_round_is_skipped_not_fatal(self):
        mechanism = IncentiveCompatibleSharing(on_infeasible="skip")
        sim = AlgorandSimulation(
            _config(defection_rate=1.0), mechanism=mechanism
        )
        record = sim.run_round()
        assert record.reward_total == 0.0


class TestSimulationRolesFeedGameAnalysis:
    def test_round_snapshot_supports_equilibrium_check(self):
        """Close the loop: simulate a round, run Algorithm 1 on its roles,
        and verify the resulting split sustains the Theorem 3 equilibrium."""
        sim = AlgorandSimulation(_config())
        sim.run_round()
        snapshot = sim.role_snapshot(1)
        mechanism = IncentiveCompatibleSharing(margin=0.01)
        report = mechanism.compute_parameters(snapshot)

        game = AlgorandGame.from_role_stakes(
            leader_stakes=list(snapshot.leaders.values()),
            committee_stakes=list(snapshot.committee.values()),
            online_stakes=list(snapshot.others.values()),
            costs=RoleCosts.paper_defaults(),
            reward_rule=RoleBasedRule(report.alpha, report.beta, report.b_i),
            synchrony_size=len(snapshot.others),
        )
        assert theorem3_equilibrium(game).holds


class TestExchangeFeedsSimulation:
    def test_exchange_transactions_populate_blocks(self):
        config = _config()
        exchange = ExchangeSimulator(
            [25.0] * config.n_nodes, picks_per_round=40, seed=2
        )

        def source(round_index):
            return exchange.transactions_for_round(round_index, n_transactions=10)

        sim = AlgorandSimulation(config, transaction_source=source)
        sim.run(2)
        blocks = [entry.block for entry in sim.authoritative.entries()[1:]]
        assert any(block.transactions for block in blocks)

    def test_long_run_stability(self):
        """Ten rounds with rewards and churn: chain grows, no desync."""
        mechanism = IncentiveCompatibleSharing(on_infeasible="skip")
        sim = AlgorandSimulation(_config(), mechanism=mechanism)
        metrics = sim.run(10)
        assert sim.authoritative.height == 10
        final_rate = metrics.final_block_rate()
        assert final_rate >= 0.8
        last = metrics.records[-1]
        assert last.n_desynced == 0


class TestCostAccountingBridge:
    def test_simulated_workload_priced_by_cost_model(self):
        """TaskCounters from the DES can be priced with Table II costs."""
        from repro.core.costs import TaskCosts

        sim = AlgorandSimulation(_config())
        sim.run(2)
        tasks = TaskCosts.paper_defaults()
        for node in sim.nodes:
            cost = price_counters(tasks, node.counters.snapshot())
            assert cost > 0  # everyone at least ran sortition and counted

    def test_leaders_bear_higher_costs(self):
        from repro.core.costs import TaskCosts

        sim = AlgorandSimulation(_config())
        sim.run_round()
        tasks = TaskCosts.paper_defaults()
        snapshot = sim.role_snapshot(1)
        by_id = {node.node_id: node for node in sim.nodes}
        leader_costs = [
            price_counters(tasks, by_id[nid].counters.snapshot())
            for nid in snapshot.leaders
        ]
        idle_costs = [
            price_counters(tasks, by_id[nid].counters.snapshot())
            for nid in snapshot.others
        ]
        assert min(leader_costs) > max(idle_costs)