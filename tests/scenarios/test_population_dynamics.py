"""Tests for the streamed population-dynamics layer.

Spec validation and round-trips, the golden-trajectory replay contract
(Section V's conclusions are pinned bit-exactly), stake churn with
selected-agent pinning, the campaign/orchestrator integration, and the
``repro-runner dynamics`` experiment surface.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.populations import PopulationSpec
from repro.populations import threads as threads_module
from repro.schemes.deviation import ONLINE
from repro.scenarios.population_dynamics import (
    UPDATE_RULES,
    PopulationDynamicsSpec,
    dynamics_sweep_spec,
    dynamics_to_csv,
    render_dynamics_trajectories,
    run_population_dynamics,
    run_population_dynamics_campaign,
)
from repro.telemetry.runtime import capture

from oracles import oracle_game, scalar_rule

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture(params=(1, 2), ids=lambda count: f"T{count}")
def at_threads(request, monkeypatch):
    """Run the driver at 1 and 2 in-call threads.

    Slices may be a single seed block, so the two- and three-block
    populations here really split when a chunk holds more than one.
    """
    monkeypatch.setattr(threads_module, "THREADS", request.param)
    monkeypatch.setattr(threads_module, "MIN_SLICE_BLOCKS", 1)
    return request.param


def _population(**overrides) -> PopulationSpec:
    settings = {
        "family": "zipf",
        "size": 600,
        "params": {"exponent": 1.9, "scale": 3.0},
        "cooperation": 0.9,
        "seed": 7,
    }
    settings.update(overrides)
    return PopulationSpec(**settings)


def _spec(**overrides) -> PopulationDynamicsSpec:
    settings = {
        "name": "unit",
        "population": _population(),
        "n_epochs": 5,
        "n_leaders": 3,
        "committee_size": 8,
    }
    settings.update(overrides)
    return PopulationDynamicsSpec(**settings)


class TestSpecValidation:
    def test_round_trips_through_params(self):
        spec = _spec(update_rule="best_response", churn_rate=0.2)
        rebuilt = PopulationDynamicsSpec.from_params(spec.to_params())
        assert rebuilt == spec
        assert rebuilt.cache_key() == spec.cache_key()

    def test_population_accepts_a_params_mapping(self):
        spec = PopulationDynamicsSpec(
            name="from-mapping", population=_population().to_params()
        )
        assert isinstance(spec.population, PopulationSpec)
        assert spec.population.size == 600

    def test_with_overrides_revalidates(self):
        spec = _spec()
        assert spec.with_overrides(n_epochs=9).n_epochs == 9
        with pytest.raises(ConfigurationError):
            spec.with_overrides(n_epochs=0)

    def test_cache_key_covers_every_field(self):
        assert _spec().cache_key() != _spec(churn_rate=0.1).cache_key()
        assert _spec().cache_key() != _spec(
            population=_population(seed=8)
        ).cache_key()

    def test_describe_mentions_the_shape(self):
        text = _spec().describe()
        assert "unit" in text and "replicator" in text and "E=5" in text

    def test_rejected_shapes(self):
        with pytest.raises(ConfigurationError):
            _spec(name="")
        with pytest.raises(ConfigurationError):
            _spec(update_rule="mimicry")
        with pytest.raises(ConfigurationError):
            _spec(replicator_intensity=0.0)
        with pytest.raises(ConfigurationError):
            _spec(replicator_mutation=1.0)
        with pytest.raises(ConfigurationError):
            _spec(churn_rate=1.5)
        with pytest.raises(ConfigurationError):
            _spec(churn_family="zipf")  # churn params without churn
        with pytest.raises(ConfigurationError):
            _spec(churn_rate=0.1, churn_family="no-such-family")

    def test_update_rules_constant_matches_validation(self):
        for rule in UPDATE_RULES:
            assert _spec(update_rule=rule).update_rule == rule


class TestGoldenTrajectories:
    """Refactors cannot silently change the Section V conclusions.

    Replays run at T = 1 and T = 2 in-call threads, each at the golden's
    one-block chunks and monolithically (one chunk, split across the
    threads at T = 2).
    """

    @pytest.mark.parametrize("chunk_agents", [8_192, None])
    @pytest.mark.parametrize("scheme", ["foundation", "role_based"])
    def test_golden_replay_is_bit_identical(self, scheme, chunk_agents, at_threads):
        golden_path = _GOLDEN_DIR / f"population_dynamics_{scheme}.json"
        golden = golden_path.read_text()
        spec = PopulationDynamicsSpec(
            name="golden",
            population=PopulationSpec(
                family="zipf",
                size=16_384,
                params={"exponent": 1.9, "scale": 3.0},
                cooperation=0.9,
                seed=2021,
            ),
            n_epochs=8,
            chunk_agents=chunk_agents,
        )
        replayed = (
            json.dumps(
                run_population_dynamics(spec, scheme).to_payload(),
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        assert replayed == golden

    def test_goldens_pin_the_paper_verdicts(self):
        foundation = json.loads(
            (_GOLDEN_DIR / "population_dynamics_foundation.json").read_text()
        )
        role_based = json.loads(
            (_GOLDEN_DIR / "population_dynamics_role_based.json").read_text()
        )
        final_f = foundation["epochs"][-1]
        final_r = role_based["epochs"][-1]
        assert final_f["n_defecting"] == final_f["n_players"]  # unraveled
        assert final_f["block_success"] is False
        assert final_r["n_defecting"] == 0  # stabilized
        assert final_r["block_success"] is True

    @pytest.mark.parametrize(
        "path",
        [
            path
            for path in sorted(_GOLDEN_DIR.glob("population_dynamics_*.json"))
            if "spec" in json.loads(path.read_text())
        ],
        ids=lambda path: path.stem[len("population_dynamics_") :],
    )
    @pytest.mark.parametrize("monolithic", [False, True], ids=["chunked", "whole"])
    def test_case_golden_replay_is_bit_identical(self, path, monolithic, at_threads):
        """Self-describing fixtures: rule, churn, scheme and dtype paths."""
        golden = json.loads(path.read_text())
        spec = PopulationDynamicsSpec.from_params(golden["spec"])
        if monolithic:
            spec = spec.with_overrides(chunk_agents=None)
        replayed = run_population_dynamics(spec, golden["scheme"]).to_payload()
        assert json.dumps(replayed, sort_keys=True) == json.dumps(
            golden["trajectory"], sort_keys=True
        )

    def test_case_goldens_cover_the_unpinned_paths(self):
        cases = [
            json.loads(path.read_text())
            for path in _GOLDEN_DIR.glob("population_dynamics_*.json")
        ]
        specs = [case["spec"] for case in cases if "spec" in case]
        assert {case["scheme"] for case in cases if "spec" in case} >= {
            "foundation",
            "role_based",
            "irs",
            "axiomatic_tau",
        }
        assert any(spec["update_rule"] == "best_response" for spec in specs)
        assert any(spec["churn_rate"] > 0 for spec in specs)
        assert any(spec["population"]["dtype"] == "float32" for spec in specs)

    def test_sole_sync_defector_golden_has_a_restorable_epoch(self, monkeypatch):
        """The fixture keeps reaching a failed epoch with one restorer."""
        golden = json.loads(
            (_GOLDEN_DIR / "population_dynamics_sole_sync_defector.json").read_text()
        )
        epochs = _record_restorers(monkeypatch)
        run_population_dynamics(
            PopulationDynamicsSpec.from_params(golden["spec"]), golden["scheme"]
        )
        assert [
            rows for census, rows in epochs if census.sync_defectors == 1 and rows
        ]

    def test_sole_sync_defector_outside_the_first_slice(self, monkeypatch):
        """A restorer that slice 0 does not hold moves no byte across threads.

        The golden's shape at seed 2020, run as one three-block chunk: at
        T = 2 with one-block slices, slice 0 is block 0 and the epoch-1
        sole defector — the block rule's one restorer — lies in the pool
        worker's slice.  Its index and the trajectory match the
        one-thread run.
        """
        golden = json.loads(
            (_GOLDEN_DIR / "population_dynamics_sole_sync_defector.json").read_text()
        )
        spec = PopulationDynamicsSpec.from_params(golden["spec"])
        spec = spec.with_overrides(
            population=spec.population.with_overrides(seed=2020),
            chunk_agents=None,
            n_epochs=2,
        )
        monkeypatch.setattr(threads_module, "MIN_SLICE_BLOCKS", 1)
        runs = {}
        for count in (1, 2):
            monkeypatch.setattr(threads_module, "THREADS", count)
            epochs = _record_restorers(monkeypatch)
            trajectory = run_population_dynamics(spec, golden["scheme"])
            restorers = [rows for _, rows in epochs if rows]
            runs[count] = (restorers, trajectory.to_payload())
        (whole,) = spec.population.chunks(spec.population.size)
        first_slice = threads_module.slices(whole, 2)[0]
        restorers, payload = runs[2]
        assert len(restorers) == 1 and len(restorers[0]) == 1
        assert restorers[0][0] >= first_slice.offset + first_slice.n_agents
        assert runs[1] == (restorers, payload)


def _record_restorers(monkeypatch):
    """Record each measured epoch's census and its crowd restorer rows.

    A restorer is a crowd agent whose lone move to C turns the epoch's
    failed block into a produced one (the block rule's flips from a
    failed base); rows are global agent indices.
    """
    from repro.scenarios import population_dynamics

    epochs = []
    measure = population_dynamics._measure_pass

    def recording(engine, epoch, *args, **kwargs):
        aggregates = measure(engine, epoch, *args, **kwargs)
        rows = []
        if not aggregates.census.holds:
            for chunk in engine.chunks:
                ctx = population_dynamics._epoch_context(engine, chunk, epoch)
                flips = aggregates.census.flips(ctx, 0)
                flips = flips[ctx.roles[flips] == ONLINE]
                rows.extend((ctx.offset + flips).tolist())
        epochs.append((aggregates.census, rows))
        return aggregates

    monkeypatch.setattr(population_dynamics, "_measure_pass", recording)
    return epochs


class TestQuorumRestore:
    """A failed quorum cannot be restored by the sole sync defector.

    600 uniform agents, 2 leaders and a committee of 5: the leaders
    cooperate, every committee member defects (the tally is 0, at or
    below any quorum) and one sync crowd agent defects.  The block fails
    on the quorum whatever that agent plays, so its return to C earns
    nothing — as the game oracle says.
    """

    @pytest.mark.parametrize("scheme", ["foundation", "role_based", "irs"])
    def test_sole_defector_payoffs_match_the_oracle(self, scheme):
        from repro.scenarios.population_dynamics import (
            _build_engine,
            _chunk_counterfactuals,
            _epoch_context,
            _measure_pass,
        )
        from repro.schemes.population_audit import _build_structure, _chunks
        from repro.schemes.registry import resolve_scheme
        from scalar_game.game import Strategy, with_deviation

        spec = _spec(
            population=PopulationSpec(family="uniform", size=600, seed=3),
            n_leaders=2,
            committee_size=5,
        )
        resolved = resolve_scheme(scheme)
        config = spec.audit_config()
        chunks = _chunks(spec.population, config)
        structure = _build_structure([resolved], spec.population, config, chunks)
        engine = _build_engine(spec, resolved.name, structure, chunks)
        sel_action = np.ones(config.n_selected, dtype=np.int8)
        sel_action[: config.n_leaders] = 0
        crowd_sync = engine.sync.copy()
        crowd_sync[structure.selected_index] = False
        sole = int(np.flatnonzero(crowd_sync)[0])
        engine.profile[:] = 0
        engine.profile[sole] = 1
        aggregates = _measure_pass(engine, 0, None, sel_action)
        assert not aggregates.record.block_success

        (chunk,) = chunks
        ctx = _epoch_context(engine, chunk, 0)
        utility_c, utility_d = _chunk_counterfactuals(engine, ctx, aggregates)
        game = oracle_game(
            ctx.stake,
            ctx.roles,
            ctx.sync,
            structure.costs,
            scalar_rule(resolved, structure.b_i, structure.split),
            config.committee_quorum,
        )
        profile = {
            j: Strategy.DEFECT if engine.profile[j] else Strategy.COOPERATE
            for j in range(ctx.n)
        }
        expected = [
            game.payoff(sole, with_deviation(profile, sole, strategy))
            for strategy in (Strategy.COOPERATE, Strategy.DEFECT)
        ]
        assert [utility_c[sole], utility_d[sole]] == pytest.approx(
            expected, rel=1e-12, abs=1e-15
        )


class TestInCallThreads:
    """Threads change neither the telemetry a run records nor its lifetime."""

    @pytest.mark.parametrize("update_rule", ["replicator", "best_response"])
    def test_counters_match_and_no_thread_outlives_the_call(
        self, monkeypatch, update_rule
    ):
        monkeypatch.setattr(threads_module, "MIN_SLICE_BLOCKS", 1)
        spec = _spec(
            population=_population(size=3 * 8192 - 100, cooperation=0.8),
            update_rule=update_rule,
            n_epochs=3,
        )
        counts = {}
        for count in (1, 2):
            monkeypatch.setattr(threads_module, "THREADS", count)
            alive = threading.active_count()
            with capture() as registry:
                trajectory = run_population_dynamics(spec, "role_based")
            assert threading.active_count() == alive
            metrics = registry.snapshot()["metrics"]
            counts[count] = (
                {
                    name: sorted(
                        (tuple(sorted(sample["labels"].items())), sample["value"])
                        for sample in metrics[name]["samples"]
                    )
                    for name in (
                        "repro_dynamics_revisions_total",
                        "repro_dynamics_epochs_total",
                    )
                },
                trajectory.to_payload(),
            )
        assert counts[1] == counts[2]
        revisions = dict(counts[2][0]["repro_dynamics_revisions_total"])
        if update_rule == "best_response":
            assert revisions[(("kind", "crowd"),)] > 0

    def test_concurrent_profile_writes_under_fast_thread_switching(
        self, monkeypatch
    ):
        """Four threads (more than the host's cores) and a 1 us switch
        interval: best-response slices write the held profile at once,
        and the trajectory still equals the serial one byte for byte."""
        monkeypatch.setattr(threads_module, "MIN_SLICE_BLOCKS", 1)
        spec = _spec(
            population=_population(size=4 * 8192 - 50, cooperation=0.8),
            update_rule="best_response",
            n_epochs=3,
        )
        monkeypatch.setattr(threads_module, "THREADS", 1)
        serial = run_population_dynamics(spec, "role_based").to_payload()
        monkeypatch.setattr(threads_module, "THREADS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_population_dynamics(spec, "role_based").to_payload()
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestEngineBehavior:
    def test_trajectory_shape_and_metadata(self):
        trajectory = run_population_dynamics(_spec(), "role_based")
        assert trajectory.scenario == "unit"
        assert trajectory.scheme == "role_based"
        assert len(trajectory.records) == 6
        assert trajectory.b_i > 0
        assert [record.epoch for record in trajectory.records] == list(range(6))

    def test_best_response_mode_runs_and_differs_from_replicator(self):
        replicator = run_population_dynamics(_spec(), "role_based")
        best_response = run_population_dynamics(
            _spec(update_rule="best_response"), "role_based"
        )
        assert best_response.records[0].n_cooperating == (
            replicator.records[0].n_cooperating
        )  # same realized epoch 0
        assert (
            best_response.defection_series() != replicator.defection_series()
        )

    def test_churn_pins_the_selected_and_the_calibration(self):
        """Stake churn perturbs the trajectory but never the structure.

        A gentle replicator intensity keeps the crowd profile *mixed*
        while blocks still succeed — the regime where the pool split
        actually depends on the stake distribution.  (At an all-C
        profile the cooperator class sweeps the whole budget whatever
        the stakes, so churn would be invisible in the aggregates.)
        """
        still = run_population_dynamics(
            _spec(n_epochs=4, replicator_intensity=0.5), "role_based"
        )
        churned = run_population_dynamics(
            _spec(n_epochs=4, replicator_intensity=0.5, churn_rate=0.5),
            "role_based",
        )
        assert churned.b_i == still.b_i
        assert churned.alpha == still.alpha
        # Same epoch-0 state (churn starts at epoch 1), different later
        # payoffs (the crowd's stakes moved under the same behavior draws).
        assert churned.records[0].n_cooperating == still.records[0].n_cooperating
        assert any(
            ours.mean_payoff_cooperate != theirs.mean_payoff_cooperate
            for ours, theirs in zip(churned.records[1:], still.records[1:])
        )

    def test_churn_family_override_is_used(self):
        uniform = run_population_dynamics(
            _spec(
                n_epochs=3,
                churn_rate=0.5,
                churn_family="uniform",
                churn_params={"low": 1.0, "high": 2.0},
            ),
            "role_based",
        )
        default = run_population_dynamics(
            _spec(n_epochs=3, churn_rate=0.5), "role_based"
        )
        assert uniform.records[-1].mean_payoff_cooperate != (
            default.records[-1].mean_payoff_cooperate
        )

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            run_population_dynamics(_spec(), "no-such-scheme")


class TestDrawCounts:
    """Each run draws its epoch-invariant and per-epoch columns once."""

    @staticmethod
    def _counted_run(monkeypatch, update_rule, resident_bytes, chunk_agents):
        from collections import Counter

        from repro.populations import SEED_BLOCK
        from repro.populations import spec as spec_module

        monkeypatch.setattr(spec_module, "RESIDENT_BYTES", resident_bytes)
        draws = Counter()
        chunk_draws = PopulationSpec.chunk_draws

        def counting(self, offset, n_agents, column, draw, out=None):
            first = offset // SEED_BLOCK
            last = (offset + n_agents - 1) // SEED_BLOCK
            for block in range(first, last + 1):
                draws[(column, block)] += 1
            return chunk_draws(self, offset, n_agents, column, draw, out)

        monkeypatch.setattr(PopulationSpec, "chunk_draws", counting)
        spec = _spec(
            population=_population(size=2 * SEED_BLOCK + 700),
            n_epochs=4,
            update_rule=update_rule,
            chunk_agents=chunk_agents,
        )
        run_population_dynamics(spec, "role_based")
        return spec, draws

    @pytest.mark.parametrize("chunk_agents", [None, 8_192])
    @pytest.mark.parametrize("resident_bytes", [0, 1 << 40], ids=["streamed", "resident"])
    @pytest.mark.parametrize("update_rule", ["replicator", "best_response"])
    def test_sync_and_realize_columns_are_drawn_once(
        self, monkeypatch, update_rule, resident_bytes, chunk_agents
    ):
        spec, draws = self._counted_run(
            monkeypatch, update_rule, resident_bytes, chunk_agents
        )
        blocks = range(spec.population.n_blocks)
        # Once in the structure pass, once in the census — never per epoch.
        sync = {block: draws[("audit.sync", block)] for block in blocks}
        assert all(1 <= count <= 2 for count in sync.values()), sync
        realize = {
            key: count
            for key, count in draws.items()
            if key[0].startswith("dynamics.realize.")
        }
        # Best response realizes the crowd from draws at epoch 0 only.
        epochs = range(spec.n_epochs + 1) if update_rule == "replicator" else (0,)
        assert realize == {
            (f"dynamics.realize.{epoch}", block): 1
            for epoch in epochs
            for block in blocks
        }


class TestCampaign:
    def test_sweep_spec_grid_and_validation(self):
        sweep = dynamics_sweep_spec([_spec()], ["foundation", "role_based"])
        assert sweep.name == "population-dynamics"
        assert len(sweep.grid["dynamics"]) == 1
        assert len(sweep.grid["scheme"]) == 2
        with pytest.raises(ConfigurationError):
            dynamics_sweep_spec([], ["foundation"])
        with pytest.raises(ConfigurationError):
            dynamics_sweep_spec([_spec()], [])

    def test_campaign_matches_direct_runs_and_caches(self, tmp_path):
        specs = [_spec(n_epochs=3)]
        first = run_population_dynamics_campaign(
            specs, ["foundation", "role_based"], cache_dir=tmp_path
        )
        direct = run_population_dynamics(specs[0], "foundation")
        assert first[("unit", "foundation")].to_payload() == direct.to_payload()
        # Second run resumes entirely from the shard cache.
        again = run_population_dynamics_campaign(
            specs, ["foundation", "role_based"], cache_dir=tmp_path
        )
        assert {key: t.to_payload() for key, t in again.items()} == {
            key: t.to_payload() for key, t in first.items()
        }
        assert any(tmp_path.iterdir())

    def test_campaign_workers_are_semantically_invisible(self, tmp_path):
        specs = [_spec(n_epochs=2)]
        serial = run_population_dynamics_campaign(specs, ["role_based"])
        parallel = run_population_dynamics_campaign(
            specs, ["role_based"], workers=2
        )
        assert serial[("unit", "role_based")].to_payload() == (
            parallel[("unit", "role_based")].to_payload()
        )


class TestRenderingAndRunner:
    def test_render_mentions_schemes_and_verdicts(self):
        trajectories = run_population_dynamics_campaign(
            [_spec(n_epochs=3)], ["foundation", "role_based"]
        )
        text = render_dynamics_trajectories(trajectories)
        assert "foundation" in text and "role_based" in text
        assert "verdict" in text

    def test_csv_export(self, tmp_path):
        trajectories = run_population_dynamics_campaign(
            [_spec(n_epochs=2)], ["role_based"]
        )
        path = tmp_path / "dynamics.csv"
        dynamics_to_csv(trajectories, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("dynamics,scheme,epoch")
        assert len(lines) == 1 + 3  # header + epochs 0..2

    def test_runner_dynamics_experiment(self, tmp_path):
        from repro.analysis.runner import run_experiment

        outcome = run_experiment(
            "dynamics",
            scale="small",
            out=tmp_path,
            agents=600,
            epochs=2,
            chunk_agents=None,
            schemes=("role_based",),
            workers=1,
        )
        assert "role_based" in outcome.rendered
        assert (tmp_path / "dynamics.csv").exists()
        payload = json.loads((tmp_path / "dynamics.json").read_text())
        assert list(payload) == ["dynamics-small/role_based"]

    def test_runner_cli_flags_reach_the_experiment(self, tmp_path, capsys):
        from repro.analysis.runner import main

        code = main(
            [
                "dynamics",
                "--scale",
                "small",
                "--agents",
                "600",
                "--epochs",
                "2",
                "--scheme",
                "foundation",
                "--workers",
                "1",
                "--no-progress",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "foundation" in printed and "verdict" in printed
