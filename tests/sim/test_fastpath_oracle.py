"""Differential suite: the vectorized fast kernel vs the DES oracle.

The fast kernel (:mod:`repro.sim.fastpath`) must agree with the
event-driven simulator on paired seeds:

* **bit-exact** where the kernel recomputes the same quantities — VRF
  outputs, sortition committee weights, population/overlay construction,
  and the shared pure threshold/step functions, and
* **statistically** for full-round metrics, where the gossip layer is
  approximated by the calibrated hop-budget latency model — in the
  calibrated regime (the paper's default timing constants) the agreement
  is in fact exact on every configuration these tests pin.

The DES comes from the test tree (``tests/des``).  Plus kernel-only
invariants: purity (same config, same result), the latency-model
calibration staying in band, and the one rule every backend-carrying
surface applies: ``"fast"`` is the only simulation engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import runner
from repro.analysis.defection import DefectionExperimentConfig
from repro.analysis.experiments import EXPERIMENTS
from repro.errors import ConfigurationError
from repro.scenarios.spec import ScenarioSpec
from repro.service import prepare_job
from repro.sim import (
    Behavior,
    FastSimulation,
    LatencyModel,
    SimulationConfig,
    make_simulation,
)
from repro.sim import crypto
from repro.sim.ba_star import resolve_quorum
from repro.sim.fastpath import DEFAULT_HOP_QUANTILE, RoundContext
from repro.sim.roles import RewardAllocation, RoleSnapshot
from repro.sim.sortition import Role

from des import AlgorandSimulation, count_votes, fit_latency_model
from des.signing import sortition


def _paired_config(**overrides) -> SimulationConfig:
    """A small paper-regime config shared by the kernel and the DES."""
    base = dict(
        n_nodes=40,
        seed=11,
        tau_proposer=6.0,
        tau_step=60.0,
        tau_final=80.0,
        verify_crypto=False,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _records(simulation, n_rounds):
    return simulation.run(n_rounds).records


# -- pure threshold/step functions shared by the kernel and the DES ----------


@dataclass(frozen=True)
class _Vote:
    """Minimal vote shape ``count_votes`` consumes (value + weight)."""

    value: int
    weight: int


class TestSharedPureFunctions:
    @given(
        weights=st.dictionaries(
            st.integers(min_value=-1, max_value=50),
            st.integers(min_value=1, max_value=200),
            max_size=8,
        ),
        tau=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
        threshold=st.floats(min_value=0.51, max_value=0.99, allow_nan=False),
    )
    def test_count_votes_defers_to_resolve_quorum(self, weights, tau, threshold):
        votes = [_Vote(value=value, weight=weight) for value, weight in weights.items()]
        assert count_votes(votes, tau, threshold) == resolve_quorum(
            weights, tau, threshold
        )

    @given(
        tau=st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
        threshold=st.floats(min_value=0.51, max_value=0.99, allow_nan=False),
    )
    def test_resolve_quorum_requires_strict_majority_of_tau(self, tau, threshold):
        needed = threshold * tau
        below = {7: int(needed)}  # weight <= needed never wins
        assert resolve_quorum(below, tau, threshold) is None

    def test_resolve_quorum_tie_breaks_to_smallest_value(self):
        weights = {9: 80, 3: 80, 5: 70}
        assert resolve_quorum(weights, 100.0, 0.685) == 3

    def test_resolve_quorum_prefers_heaviest(self):
        weights = {9: 90, 3: 80}
        assert resolve_quorum(weights, 100.0, 0.685) == 9


class TestVrfHotLoopExact:
    @pytest.mark.parametrize(
        "round_seed, round_index",
        [
            (987_654_321, 5),
            (0, 0),
            (1, 1),
            (2**63 - 1, 10_000),
            (-(2**31), 3),
        ],
    )
    def test_vrf_values_match_crypto_for_every_domain(self, round_seed, round_index):
        """The batched counter-mode hasher is bit-identical to crypto.

        Sweeps the proposer (0), step (1000+s), and final (2000+s) tag
        domains across degenerate and extreme (seed, round) pairs — the
        batched path must reproduce ``crypto.vrf_evaluate`` exactly, not
        just statistically, on every row of one multi-domain batch.
        """
        simulation = FastSimulation(_paired_config())
        tags = (0, 1_000 + 1, 1_000 + 13, 2_000 + 10_000)
        batch = simulation._vrf_values(round_seed, round_index, tags)
        assert batch.shape == (len(tags), simulation.config.n_nodes)
        for row, tag in zip(batch, tags):
            reference = [
                crypto.vrf_evaluate(keypair, round_seed, round_index, tag).value
                for keypair in simulation._keypairs
            ]
            assert row.tolist() == reference

    def test_batch_digests_are_the_crypto_proofs(self):
        """Proposers read their VRF proof from the batch: digest ``t * n + i``
        is key ``i``'s ``vrf_evaluate(...).proof`` under ``tags[t]``."""
        simulation = FastSimulation(_paired_config())
        tags = (0, 2_000 + 10_000)
        digests = simulation._vrf_digests(987_654_321, 5, tags)
        n = simulation.config.n_nodes
        assert len(digests) == 32 * n * len(tags)
        for t, tag in enumerate(tags):
            for i, keypair in enumerate(simulation._keypairs):
                k = t * n + i
                proof = int.from_bytes(digests[32 * k : 32 * (k + 1)], "big")
                assert proof == crypto.vrf_evaluate(keypair, 987_654_321, 5, tag).proof


class TestBatchedStepSortition:
    """One batch of step domains equals per-node scalar sortition."""

    def test_batch_rows_match_scalar_sortition(self):
        simulation = FastSimulation(
            _paired_config(offline_rate=0.2, stake_high=400.0)
        )
        config = simulation.config
        stakes = simulation.stakes
        total = simulation.total_stake()
        units = np.array([int(s) for s in stakes], dtype=np.int64)
        seed, round_index = simulation.sortition_seed, 3
        steps = (1, 2, 3, 4, 5, 6)
        batch = simulation._sortition(
            Role.STEP, steps, round_index, seed, units, total
        )
        assert batch.shape == (len(steps), config.n_nodes)
        for row, step in zip(batch, steps):
            single = simulation._sortition(
                Role.STEP, (step,), round_index, seed, units, total
            )[0]
            assert row.tolist() == single.tolist()
            reference = [
                sortition(
                    keypair,
                    seed,
                    round_index,
                    Role.STEP,
                    stakes[i],
                    total,
                    config.tau_step,
                    step,
                ).weight
                if simulation.behaviors[i].is_online
                else 0
                for i, keypair in enumerate(simulation._keypairs)
            ]
            assert row.tolist() == reference


class TestMatmulTally:
    """The one-matmul tally equals a per-node resolve_quorum reference."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_tally_matches_per_node_reference(self, data):
        simulation = FastSimulation(
            _paired_config(n_nodes=12, seed=5, offline_rate=0.2)
        )
        hops = simulation._round_hops()
        n, n_values, step = 12, 4, 5
        batches = []
        for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
            size = data.draw(st.integers(min_value=1, max_value=n))
            senders = np.array(
                data.draw(st.permutations(range(n)))[:size], dtype=np.intp
            )
            weights = np.array(
                data.draw(st.lists(st.integers(1, 30), min_size=size, max_size=size)),
                dtype=np.int64,
            )
            values = np.array(
                data.draw(
                    st.lists(st.integers(0, n_values - 1), min_size=size, max_size=size)
                ),
                dtype=np.intp,
            )
            cast_index = data.draw(st.integers(min_value=step - 3, max_value=step - 1))
            batches.append((senders, weights, values, cast_index))
        needed = 0.685 * 40.0
        won = simulation._tally(batches, step, hops, n_values, needed)
        config = simulation.config
        for node in range(n):
            weights = {}
            for senders, batch_weights, values, cast_index in batches:
                budget = simulation.latency.hop_budget(
                    (step - cast_index) * config.step_timeout, config
                )
                for sender, weight, value in zip(senders, batch_weights, values):
                    if hops[sender, node] <= budget:
                        weights[int(value)] = weights.get(int(value), 0) + int(weight)
            expected = resolve_quorum(weights, 40.0, 0.685)
            assert won[node] == (-1 if expected is None else expected)


class TestProposeSubUnitWeight:
    """Sortition weights in (0, 1) hold no whole sub-user slot."""

    def _context(self, simulation) -> RoundContext:
        config = simulation.config
        return RoundContext(
            round_index=1,
            sortition_seed=simulation.sortition_seed,
            total_stake=simulation.total_stake(),
            tau_proposer=config.tau_proposer,
            tau_step=config.tau_step,
            tau_final=config.tau_final,
            t_step=config.t_step,
            t_final=config.t_final,
            max_binary_steps=config.max_binary_steps,
            coin_seed=simulation.sortition_seed,
        )

    def _propose_with_weight(self, weight: float):
        simulation = FastSimulation(_paired_config())
        weights = np.zeros(simulation.config.n_nodes, dtype=np.float64)
        weights[0] = weight
        simulation._role_weights = lambda *args, **kwargs: weights
        ctx = self._context(simulation)
        stake_units = np.array(
            [int(s) for s in simulation.stakes], dtype=np.int64
        )
        return simulation._propose(ctx, stake_units, ctx.total_stake)

    def test_sub_one_weight_yields_no_proposal(self):
        """Weight 0.5 truncates to zero sub-users: skip, don't raise."""
        assert self._propose_with_weight(0.5) == []

    def test_whole_weight_still_proposes(self):
        proposals = self._propose_with_weight(1.0)
        assert len(proposals) == 1
        assert proposals[0].sender == 0


# -- paired-seed differential comparisons ------------------------------------


class TestPairedSeedExactAgreement:
    """Configs in the calibrated regime agree record-for-record."""

    @pytest.mark.parametrize("defection_rate", [0.0, 0.05, 0.15, 0.30])
    def test_round_records_match_des(self, defection_rate):
        kwargs = dict(n_nodes=40, seed=71, defection_rate=defection_rate)
        des = AlgorandSimulation(_paired_config(**kwargs))
        fast = FastSimulation(_paired_config(**kwargs))
        for des_record, fast_record in zip(_records(des, 4), _records(fast, 4)):
            assert (
                des_record.n_final,
                des_record.n_tentative,
                des_record.n_none,
                des_record.n_concluded_empty,
                des_record.steps_used,
                des_record.n_leaders,
                des_record.n_committee,
                des_record.n_online,
                des_record.authoritative_label,
                des_record.authoritative_value,
            ) == (
                fast_record.n_final,
                fast_record.n_tentative,
                fast_record.n_none,
                fast_record.n_concluded_empty,
                fast_record.steps_used,
                fast_record.n_leaders,
                fast_record.n_committee,
                fast_record.n_online,
                fast_record.authoritative_label,
                fast_record.authoritative_value,
            )

    def test_explicit_behavior_vector_matches_des(self):
        behaviors = (
            [Behavior.SELFISH_COOPERATE] * 20
            + [Behavior.SELFISH_DEFECT] * 6
            + [Behavior.HONEST] * 12
            + [Behavior.FAULTY] * 2
        )
        config = _paired_config(seed=5)
        des = AlgorandSimulation(config, behaviors=list(behaviors))
        fast = FastSimulation(
            _paired_config(seed=5), behaviors=list(behaviors)
        )
        des_metrics = des.run(3)
        fast_metrics = fast.run(3)
        assert des_metrics.series("fraction_final") == fast_metrics.series(
            "fraction_final"
        )
        assert des_metrics.series("n_online") == fast_metrics.series("n_online")


class _UnitRewardPerLeader:
    """Toy mechanism: 1 Algo per performing leader (stake compounds)."""

    def allocate(self, snapshot: RoleSnapshot) -> RewardAllocation:
        per_node = {node_id: 1.0 for node_id in snapshot.leaders}
        return RewardAllocation(
            per_node=per_node, total=float(len(per_node)), params={"b_i": 1.0}
        )


class TestMechanismParity:
    def test_reward_compounding_matches_des(self):
        des = AlgorandSimulation(_paired_config(), mechanism=_UnitRewardPerLeader())
        fast = FastSimulation(
            _paired_config(), mechanism=_UnitRewardPerLeader()
        )
        des_records = _records(des, 4)
        fast_records = _records(fast, 4)
        assert [r.reward_total for r in des_records] == [
            r.reward_total for r in fast_records
        ]
        assert des.stake_vector() == fast.stake_vector()


class TestStatisticalAgreement:
    """Hypothesis sweep: committee sizes exact, timing stats in tolerance."""

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        defection_rate=st.sampled_from([0.0, 0.1, 0.2, 0.3]),
        n_nodes=st.sampled_from([24, 32, 40]),
    )
    def test_committee_sizes_exact_and_quantiles_close(
        self, seed, defection_rate, n_nodes
    ):
        kwargs = dict(n_nodes=n_nodes, seed=seed, defection_rate=defection_rate)
        des_records = _records(AlgorandSimulation(_paired_config(**kwargs)), 3)
        fast_records = _records(
            FastSimulation(_paired_config(**kwargs)), 3
        )
        # Sortition is recomputed exactly: realized role counts must match
        # round for round.
        assert [(r.n_leaders, r.n_committee, r.n_online) for r in des_records] == [
            (r.n_leaders, r.n_committee, r.n_online) for r in fast_records
        ]
        # Finalization-time proxy (steps used) and extraction fractions
        # agree within tolerance even outside the exact regime.
        des_steps = median(r.steps_used for r in des_records)
        fast_steps = median(r.steps_used for r in fast_records)
        assert abs(des_steps - fast_steps) <= 2
        des_final = np.mean([r.fraction_final for r in des_records])
        fast_final = np.mean([r.fraction_final for r in fast_records])
        assert abs(des_final - fast_final) <= 0.34


# -- kernel-only invariants ---------------------------------------------------


class TestFastKernelInvariants:
    def test_runs_are_pure_functions_of_config(self):
        config = _paired_config(defection_rate=0.1)
        first = FastSimulation(config).run(4)
        second = FastSimulation(config).run(4)
        assert first.series("fraction_final") == second.series("fraction_final")
        assert first.series("steps_used") == second.series("steps_used")

    def test_fraction_categories_partition_online(self):
        metrics = FastSimulation(
            _paired_config(defection_rate=0.2, offline_rate=0.1)
        ).run(4)
        for record in metrics.records:
            assert record.n_final + record.n_tentative + record.n_none == (
                record.n_online
            )

    def test_drop_probability_degrades_gracefully(self):
        healthy = FastSimulation(_paired_config(seed=3)).run(4)
        lossy = FastSimulation(
            _paired_config(seed=3, drop_probability=0.6)
        ).run(4)
        assert sum(lossy.series("fraction_final")) <= sum(
            healthy.series("fraction_final")
        )

    def test_latency_model_validates(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(hop_quantile=1.5)

    def test_zero_delay_window_admits_everything(self):
        config = _paired_config(delay_min=0.0, delay_max=0.0)
        metrics = FastSimulation(config).run(2)
        assert all(r.n_online == 40 for r in metrics.records)


class TestLatencyCalibration:
    def test_fitted_quantile_matches_shipped_constant(self):
        fitted = fit_latency_model()
        assert abs(fitted.hop_quantile - DEFAULT_HOP_QUANTILE) < 0.1

    def test_fit_handles_degenerate_delay_span(self):
        config = SimulationConfig(
            n_nodes=12, seed=0, delay_min=0.1, delay_max=0.1, verify_crypto=False
        )
        assert fit_latency_model(config).hop_quantile == 0.0


#: Every surface that carries a backend, as ``value -> construct it``.
_BACKEND_SURFACES = {
    "fig3-config": lambda value: DefectionExperimentConfig(backend=value),
    "scenario-spec": lambda value: ScenarioSpec(
        name="x", description="", sim_backend=value
    ),
    "experiment-field": lambda value: EXPERIMENTS["fig3"].configure(
        "small", {"backend": value}
    ),
    "service-scenarios-job": lambda value: prepare_job("scenarios", {"backend": value}),
    "service-tournament-job": lambda value: prepare_job(
        "tournament", {"backend": value}
    ),
}


class TestOneEngine:
    def test_make_simulation_builds_the_fast_kernel(self):
        assert isinstance(make_simulation(_paired_config()), FastSimulation)

    @pytest.mark.parametrize("value", ["des", "warp"])
    @pytest.mark.parametrize("surface", sorted(_BACKEND_SURFACES))
    def test_surface_rejects_all_but_fast(self, surface, value):
        with pytest.raises(ConfigurationError, match="tests/des"):
            _BACKEND_SURFACES[surface](value)

    def test_cli_rejects_des_naming_the_oracle(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["fig3", "--backend", "des", "--no-progress"])
        assert excinfo.value.code == 2
        assert "tests/des" in capsys.readouterr().err
