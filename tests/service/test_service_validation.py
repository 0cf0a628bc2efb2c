"""Regression tests: bad job payloads become structured 400s, not crashes.

The satellite fix under test: where the CLI raises
:class:`~repro.errors.ConfigurationError` (unknown scheme names, unknown
population families, malformed parameters), the service must answer a
structured 400 error body — ``{"error": {"type", "message"}}`` — and
the event loop and workers must keep serving.  Every case ends with a
successful submission on the same instance to prove nothing crashed.
"""

from __future__ import annotations

import json

import pytest

from harness import ServiceHarness

from repro.service import prepare_job


@pytest.fixture(scope="module")
def harness():
    """One shared instance: survival across bad requests is the point."""
    with ServiceHarness() as instance:
        yield instance


def _submit_error(harness, kind, params):
    status, body = harness.submit(kind, params)
    assert status == 400, body
    error = body["error"]
    assert set(error) == {"type", "message"}
    return error


class TestUnknownNames:
    def test_unknown_scheme_is_structured_400(self, harness):
        error = _submit_error(
            harness, "audit", {"agents": 1000, "schemes": ["made_up_scheme"]}
        )
        # SchemeError subclasses ConfigurationError; the body names the
        # concrete type and echoes the offending name plus the choices.
        assert error["type"] == "SchemeError"
        assert "made_up_scheme" in error["message"]
        assert "foundation" in error["message"]

    def test_unknown_family_is_structured_400(self, harness):
        error = _submit_error(
            harness, "audit", {"agents": 1000, "family": "made_up_family"}
        )
        assert error["type"] == "ConfigurationError"
        assert "made_up_family" in error["message"]

    def test_unknown_scheme_in_dynamics_is_structured_400(self, harness):
        error = _submit_error(
            harness, "dynamics", {"agents": 8192, "schemes": ["nope"]}
        )
        assert error["type"] == "SchemeError"

    def test_unknown_kind_is_structured_400(self, harness):
        error = _submit_error(harness, "frobnicate", {})
        assert error["type"] == "ConfigurationError"
        assert "frobnicate" in error["message"]
        assert "audit" in error["message"]


class TestMalformedParameters:
    def test_unknown_parameter_names_are_rejected(self, harness):
        error = _submit_error(harness, "audit", {"agnets": 1000})
        assert "agnets" in error["message"]
        assert "allowed" in error["message"]

    def test_non_object_params_are_rejected(self, harness):
        error = _submit_error(harness, "audit", ["not", "an", "object"])
        assert error["type"] == "ConfigurationError"

    def test_out_of_range_values_are_rejected(self, harness):
        assert "agents" in _submit_error(harness, "audit", {"agents": 0})["message"]
        for kind in ("audit", "dynamics"):
            assert (
                "dtype"
                in _submit_error(harness, kind, {"dtype": "float16"})["message"]
            )
        assert (
            "backend"
            in _submit_error(harness, "scenarios", {"backend": "quantum"})[
                "message"
            ]
        )
        assert (
            "tests/des"
            in _submit_error(harness, "tournament", {"backend": "des"})["message"]
        )

    def test_wrong_types_are_rejected(self, harness):
        _submit_error(harness, "audit", {"agents": "many"})
        _submit_error(harness, "audit", {"schemes": "foundation"})
        _submit_error(harness, "audit", {"budget_multipliers": [True]})
        _submit_error(harness, "audit", {"family_params": "exponent=2"})

    @pytest.mark.parametrize(
        "params",
        [
            {"cost_scales": [-1]},
            {"cost_scales": [float("nan")]},
            {"budget_multipliers": [0]},
            {"budget_multipliers": [float("inf")]},
        ],
    )
    def test_bad_tournament_audit_axes_are_rejected(self, harness, params):
        """The tournament's audit config is built at admission, so a bad
        axis (``NaN`` passes ``json.loads``) is a 400, not a failed job."""
        error = _submit_error(harness, "tournament", params)
        assert error["type"] == "ConfigurationError"
        assert "positive and finite" in error["message"]

    def test_tournament_job_keys_are_unchanged(self):
        """Admission-time validation must not move the memoization keys."""
        assert prepare_job("tournament", {}).key == (
            "69002dca0279e30716f132d09e252d1952e51f2efb7a36302d552370c6663887"
        )
        widened = {"budget_multipliers": [1.25], "cost_scales": [2.0]}
        assert prepare_job("tournament", widened).key == (
            "08a6d05ddc389aaaada21dd7af08ac515b1ff69669405dae7d5195935a39aa64"
        )

    def test_missing_kind_is_rejected(self, harness):
        status, _, body = harness.request(
            "POST", "/v1/jobs", body=json.dumps({"params": {}}).encode()
        )
        assert status == 400
        assert json.loads(body)["error"]["type"] == "ConfigurationError"


class TestServiceSurvives:
    def test_valid_submission_still_works_after_all_of_it(self, harness):
        """The loop and workers are intact: a real job still round-trips."""
        assert harness.is_responsive()
        status, body = harness.submit(
            "audit", {"agents": 1000, "schemes": ["foundation"]}
        )
        assert status in (200, 202)
        job = harness.poll(body["job"]["id"])
        assert job["state"] == "done"
        assert json.loads(harness.result(job["id"]))["n_agents"] == 1000

    def test_rejections_leave_no_queue_residue(self, harness):
        depth_before = harness.engine.queue_depth()
        for _ in range(5):
            harness.submit("audit", {"schemes": ["bogus"]})
        assert harness.engine.queue_depth() == depth_before
