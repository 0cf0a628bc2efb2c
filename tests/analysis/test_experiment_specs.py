"""The shared experiment specs: one declaration drives the CLI and the service.

The runner's experiment flags and the service's job validation are both
generated from :mod:`repro.analysis.experiments`.  These tests pin the
consequences a user sees: each job kind accepts exactly the settings of
its CLI experiment, a bad or misplaced flag is a usage error (exit 2)
naming the flag before any work starts, and ``all`` hands each
experiment the flags it declares.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import runner
from repro.analysis.experiments import EXPERIMENTS, FIELDS
from repro.errors import ConfigurationError
from repro.service.jobs import JOB_KINDS, prepare_job

#: One valid value per field: (CLI token, JSON value).
SAMPLES = {
    "seed": ("3", 3),
    "backend": ("fast", "fast"),
    "family": ("lognormal", "lognormal"),
    "family_params": ("exponent=1.8", {"exponent": 1.8}),
    "agents": ("600", 600),
    "chunk_agents": ("4096", 4096),
    "dtype": ("float32", "float32"),
    "schemes": ("role_based", ["role_based"]),
    "epochs": ("2", 2),
    "players": ("8", 8),
    "replications": ("1", 1),
    "simulate_rounds": ("0", 0),
    "budget_multipliers": ("1.25", [1.25]),
    "cost_scales": ("2", [2.0]),
    "name": ("probe", "probe"),
}


def _cli_accepts(experiment: str, dest: str, flag: str) -> bool:
    """Whether the generated CLI takes ``flag`` for ``experiment``."""
    parser = runner._parser()
    args = parser.parse_args([experiment, flag, SAMPLES[dest][0]])
    try:
        runner._plan(parser, args, [experiment])
    except SystemExit:
        return False
    return True


def _service_accepts(kind: str, name: str) -> bool:
    try:
        prepare_job(kind, {name: SAMPLES[name][1]})
    except ConfigurationError as error:
        assert "unknown parameter" in str(error), error
        return False
    return True


def test_samples_cover_every_generated_flag():
    flags = {
        action.dest: action.option_strings[0]
        for action in runner._parser()._actions
        if action.dest in SAMPLES
    }
    assert set(flags) == set(SAMPLES) == set(FIELDS)


@pytest.mark.parametrize("kind", sorted(JOB_KINDS))
def test_job_kind_accepts_exactly_its_cli_flags(kind):
    """Both sets are observed from outside: the CLI's through the
    generated parser, the service's through ``prepare_job``."""
    (experiment,) = [name for name, spec in EXPERIMENTS.items() if spec.kind == kind]
    flags = {
        action.dest: action.option_strings[0]
        for action in runner._parser()._actions
        if action.dest in SAMPLES
    }
    cli = {dest for dest, flag in flags.items() if _cli_accepts(experiment, dest, flag)}
    service = {name for name in SAMPLES if _service_accepts(kind, name)}
    assert cli == service == set(prepare_job(kind, {}).params)


def test_served_kinds():
    assert {spec.kind for spec in EXPERIMENTS.values() if spec.kind} == {
        "audit",
        "dynamics",
        "scenarios",
        "tournament",
    }
    assert set(JOB_KINDS) == {"audit", "dynamics", "scenarios", "tournament"}


def test_every_field_declared_once_with_one_flag():
    flags = [field.flag for field in FIELDS.values()]
    assert len(flags) == len(set(flags))
    assert FIELDS["chunk_agents"].flag == "--chunk-agents"
    assert FIELDS["schemes"].flag == "--scheme"
    assert FIELDS["family_params"].flag == "--family-param"


class TestUsageErrors:
    @pytest.mark.parametrize(
        ("argv", "flags"),
        [
            (["scale", "--seed", "-1"], ["--seed"]),
            (["dynamics", "--epochs", "0"], ["--epochs"]),
            (["dynamics", "--agents", "0"], ["--agents"]),
            (["dynamics", "--chunk-agents", "0"], ["--chunk-agents"]),
            (["scale", "--family-param", "exponent"], ["--family-param"]),
            (["tournament", "--cost-scale", "nan"], ["--cost-scale"]),
            (["scenarios", "--simulate-rounds", "-1"], ["--simulate-rounds"]),
            (
                ["fig3", "--agents", "5", "--budget-multiplier", "2", "--dtype", "float32"],
                ["--agents", "--budget-multiplier", "--dtype"],
            ),
            (["serve", "--seed", "3"], ["--seed"]),
            (["profile", "table2", "--seed", "3"], ["--seed"]),
            (["all", "--seed", "-1"], ["--seed"]),
        ],
    )
    def test_bad_or_misplaced_flag_exits_2_naming_it(
        self, argv, flags, capsys, tmp_path
    ):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as excinfo:
            runner.main([*argv, "--out", str(out), "--no-progress"])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        for flag in flags:
            assert flag in message
        assert not out.exists()  # rejected before any work started

    def test_unknown_family_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["scale", "--family", "made_up_family", "--no-progress"])
        assert excinfo.value.code == 2
        assert "made_up_family" in capsys.readouterr().err

    def test_all_hands_each_experiment_its_declared_flags(self):
        parser = runner._parser()
        args = parser.parse_args(
            ["all", "--scale", "small", "--agents", "600", "--budget-multiplier", "2"]
        )
        _, plans = runner._plan(parser, args, sorted(EXPERIMENTS))
        configs = {spec.name: config for spec, config in plans}
        assert configs["scale"].n_agents == 600
        assert configs["scale"].budget_multipliers == (2.0,)
        assert configs["dynamics"][0].population.size == 600
        assert configs["tournament"].audit.budget_multipliers == (2.0,)
        assert configs["fig3"].n_nodes == 40  # fig3 takes neither flag

    def test_run_experiment_rejects_undeclared_fields(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            runner.run_experiment("fig3", scale="small", agents=5)


def test_name_flag_reaches_the_dynamics_payload(tmp_path):
    code = runner.main(
        [
            "dynamics",
            "--agents", "600",
            "--epochs", "1",
            "--scheme", "role_based",
            "--name", "probe",
            "--workers", "1",
            "--out", str(tmp_path),
            "--no-progress",
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "dynamics.json").read_text())
    assert list(payload) == ["probe/role_based"]


def test_campaign_flags_reach_scenarios(tmp_path):
    """--players/--epochs/--replications/--simulate-rounds, formerly
    service-only, shape the CLI campaign and its new scenarios.json."""
    code = runner.main(
        [
            "scenarios",
            "--scale", "small",
            "--players", "8",
            "--epochs", "2",
            "--replications", "1",
            "--simulate-rounds", "0",
            "--workers", "1",
            "--out", str(tmp_path),
            "--no-progress",
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "scenarios.json").read_text())
    for trajectory in payload.values():
        assert trajectory["n_replications"] == 1
        assert len(trajectory["defection_share"]) == 3  # epoch 0 plus two


def test_family_params_spellings_share_one_job_key():
    """The CLI's KEY=VALUE strings and a JSON object are one computation."""
    as_object = prepare_job("audit", {"family_params": {"exponent": 1.8}})
    as_tokens = prepare_job("audit", {"family_params": ["exponent=1.8"]})
    assert as_tokens.params == as_object.params
    assert as_tokens.key == as_object.key
