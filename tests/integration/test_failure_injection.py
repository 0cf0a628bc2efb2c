"""Failure injection: asynchrony, message loss, and recovery.

The paper's weak-synchrony story (Definitions 2-3 and the Figure 3
discussion around rounds 17-20): the network can go asynchronous for a
bounded period — tentative blocks pile up — and once strong synchrony
returns, nodes finalize and catch up retroactively.
"""

from __future__ import annotations

import pytest

from repro.sim import ConsensusLabel, SimulationConfig

from des import AlgorandSimulation


def _config(**overrides) -> SimulationConfig:
    defaults = dict(
        n_nodes=40,
        seed=31,
        tau_proposer=6.0,
        tau_step=60.0,
        tau_final=80.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestAsynchronyPeriods:
    def test_slow_network_degrades_consensus(self):
        """Scaling every hop delay beyond the step timeout starves quorums."""
        sim = AlgorandSimulation(_config(delay_scale=50.0))
        record = sim.run_round()
        assert record.fraction_final == 0.0

    def test_recovery_after_asynchrony(self):
        """Asynchronous rounds stall the chain; recovery resumes finality and
        retroactively finalizes via catch-up (the Figure 3 rounds-17-20
        effect)."""
        sim = AlgorandSimulation(_config())
        sim.run(2)
        assert sim.metrics.records[-1].fraction_final == 1.0

        sim.network.delay_scale = 50.0  # asynchronous period begins
        degraded = sim.run_round()
        assert degraded.fraction_final < 1.0

        sim.network.delay_scale = 1.0  # strong synchrony returns
        recovered = [sim.run_round() for _ in range(2)]
        assert recovered[-1].fraction_final == 1.0
        # Every node ends on the authoritative tip again.
        tip = sim.authoritative.tip().block_hash()
        assert all(
            node.ledger.tip().block_hash() == tip for node in sim.online_nodes
        )

    def test_lossy_network_still_makes_progress(self):
        """Moderate hop loss is absorbed by gossip redundancy."""
        sim = AlgorandSimulation(_config(drop_probability=0.10))
        metrics = sim.run(3)
        assert metrics.final_block_rate() >= 2 / 3

    def test_heavy_loss_breaks_dissemination(self):
        sim = AlgorandSimulation(_config(drop_probability=0.85))
        record = sim.run_round()
        assert record.fraction_final < 0.5


class TestCombinedAdversity:
    def test_defection_plus_loss_is_worse_than_either(self):
        clean = AlgorandSimulation(_config()).run(3).final_block_rate()
        defect_only = AlgorandSimulation(
            _config(defection_rate=0.15)
        ).run(3).final_block_rate()
        both = AlgorandSimulation(
            _config(defection_rate=0.15, drop_probability=0.25)
        ).run(3).final_block_rate()
        assert clean >= defect_only >= both

    def test_malicious_equivocation_does_not_fork_finality(self):
        """Equivocating proposers may slow consensus but never produce two
        FINAL blocks in one round (the ledger sync-safety invariant)."""
        sim = AlgorandSimulation(_config(malicious_rate=0.2, seed=77))
        sim.run(4)
        # Safety: authoritative chain heights and labels are consistent and
        # every per-node FINAL block matches the authoritative block.
        for node in sim.online_nodes:
            for entry, auth_entry in zip(
                node.ledger.entries(), sim.authoritative.entries()
            ):
                if entry.label is ConsensusLabel.FINAL and (
                    auth_entry.label is ConsensusLabel.FINAL
                ):
                    assert entry.block.block_hash() == auth_entry.block.block_hash()


class TestRunnerRegistry:
    def test_registry_runs_small_experiments(self, tmp_path):
        from repro.analysis.runner import run_experiment

        outcome = run_experiment("table3", scale="small", out=tmp_path)
        assert "Table III" in outcome.rendered
        assert outcome.csv_path is not None and outcome.csv_path.exists()

    def test_registry_rejects_unknown_names(self):
        from repro.analysis.runner import run_experiment
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_registry_rejects_unknown_scale(self):
        from repro.analysis.runner import run_experiment
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_experiment("table2", scale="galactic")

    def test_cli_main_runs(self, capsys):
        from repro.analysis.runner import main

        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_tournament_registered(self):
        from repro.analysis.runner import EXPERIMENTS, _SCALES

        assert "tournament" in EXPERIMENTS
        for scale in _SCALES.values():
            assert "tournament" in scale

    def test_cli_version_from_package_metadata(self, capsys):
        """--version prints repro.__version__, which comes from importlib
        metadata (setup.py), not a second hard-coded string."""
        import repro
        from repro.analysis.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert repro.__version__ in out
