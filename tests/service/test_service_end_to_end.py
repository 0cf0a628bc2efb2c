"""Black-box end-to-end: the served result is byte-identical to the CLI's.

The acceptance criterion of the service layer: submitting a job over
HTTP and running the same settings through ``repro-runner`` must produce
**the same bytes** as the payload the CLI writes under ``--out``
(``scale.audit.json``, ``dynamics.json``, ``scenarios.json``,
``tournament.json``) — same deterministic payload, same serialization.  Plus the plain functional loop every client performs:
submit -> 202, poll -> done, fetch result, scrape ``/metrics`` (linted)
and ``/healthz``.
"""

from __future__ import annotations

import json

import pytest

from harness import ServiceHarness
from repro.telemetry import PROMETHEUS_CONTENT_TYPE, lint_prometheus_text

#: One small-but-real audit spec, shared by the CLI run and the service
#: submission.  2000 zipf agents audit in well under a second.
AUDIT_PARAMS = {"agents": 2000, "schemes": ["foundation", "role_based"]}


@pytest.fixture(scope="module")
def harness():
    """One service instance shared by the module's read-mostly tests."""
    with ServiceHarness() as instance:
        yield instance


class TestByteIdentity:
    def test_served_audit_equals_cli_audit(self, harness, tmp_path):
        from repro.analysis.runner import run_experiment

        run_experiment(
            "scale",
            scale="small",
            out=tmp_path,
            workers=1,
            agents=AUDIT_PARAMS["agents"],
            schemes=tuple(AUDIT_PARAMS["schemes"]),
        )
        cli_bytes = (tmp_path / "scale.audit.json").read_bytes()

        status, body = harness.submit("audit", AUDIT_PARAMS)
        assert status in (200, 202)
        job = harness.poll(body["job"]["id"])
        assert job["state"] == "done"
        served_bytes = harness.result(job["id"])
        assert served_bytes == cli_bytes

    def test_served_float32_dynamics_equals_cli_dynamics(self, harness, tmp_path):
        from repro.analysis.runner import run_experiment

        params = {
            "name": "dynamics-small",
            "family": "lognormal",
            "family_params": {"median": 10.0, "sigma": 1.0},
            "agents": 8192,
            "epochs": 2,
            "schemes": ["role_based"],
            "dtype": "float32",
        }
        run_experiment(
            "dynamics",
            scale="small",
            out=tmp_path,
            workers=1,
            family="lognormal",
            family_params=("median=10.0", "sigma=1.0"),
            agents=params["agents"],
            epochs=params["epochs"],
            schemes=tuple(params["schemes"]),
            dtype="float32",
        )
        cli_bytes = (tmp_path / "dynamics.json").read_bytes()

        served = {}
        for dtype in ("float32", "float64"):
            status, body = harness.submit("dynamics", dict(params, dtype=dtype))
            assert status in (200, 202)
            assert body["job"]["params"]["dtype"] == dtype
            job = harness.poll(body["job"]["id"])
            assert job["state"] == "done"
            served[dtype] = harness.result(job["id"])
        assert served["float32"] == cli_bytes
        # The cast is real: continuous stakes round differently.
        assert served["float64"] != served["float32"]

    @pytest.mark.parametrize(
        ("kind", "service_seed"), [("scenarios", 7), ("tournament", 11)]
    )
    def test_served_campaign_equals_cli_payload(
        self, harness, tmp_path, kind, service_seed
    ):
        """The sharded kinds serve the bytes of the CLI's ``<kind>.json``;
        the CLI run names the seed the service defaults to."""
        from repro.analysis.runner import run_experiment

        params = {"players": 8, "epochs": 2, "replications": 1, "simulate_rounds": 1}
        run_experiment(
            kind, scale="small", out=tmp_path, workers=1, seed=service_seed, **params
        )
        cli_bytes = (tmp_path / f"{kind}.json").read_bytes()

        status, body = harness.submit(kind, params)
        assert status in (200, 202)
        assert body["job"]["params"]["seed"] == service_seed
        job = harness.poll(body["job"]["id"])
        assert job["state"] == "done"
        assert harness.result(job["id"]) == cli_bytes

    def test_repeat_submission_serves_identical_bytes(self, harness):
        first_status, first = harness.submit("audit", AUDIT_PARAMS)
        harness.poll(first["job"]["id"])
        repeat_status, repeat = harness.submit("audit", AUDIT_PARAMS)
        assert repeat_status == 200  # memo hit answers immediately
        assert repeat["job"]["memoized"]
        assert harness.result(repeat["job"]["id"]) == harness.result(
            first["job"]["id"]
        )


class TestServiceSurface:
    def test_healthz(self, harness):
        status, _, body = harness.request("GET", "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["queue_depth"] >= 0

    def test_submit_poll_result_flow(self, harness):
        status, body = harness.submit(
            "audit", {"agents": 1000, "schemes": ["foundation"]}
        )
        assert status in (200, 202)
        job = body["job"]
        assert job["kind"] == "audit"
        assert job["state"] in ("queued", "running", "done")
        assert job["params"]["agents"] == 1000
        finished = harness.poll(job["id"])
        assert finished["result_url"] == f"/v1/jobs/{job['id']}/result"
        payload = json.loads(harness.result(job["id"]))
        assert payload["schemes"]["foundation"]["certified"] in (True, False)

    def test_metrics_exposition_is_lintable(self, harness):
        # Ensure at least one request precedes the scrape.
        harness.request("GET", "/healthz")
        status, headers, body = harness.request("GET", "/metrics")
        assert status == 200
        assert headers["content-type"] == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        assert lint_prometheus_text(text) == []
        assert "repro_service_requests_total" in text

    def test_unknown_job_id_is_a_clean_404(self, harness):
        status, _, body = harness.request("GET", "/v1/jobs/job-does-not-exist")
        assert status == 404
        assert json.loads(body)["error"]["type"] == "JobNotFoundError"

    def test_dynamics_job_round_trips(self, harness):
        status, body = harness.submit(
            "dynamics",
            {"agents": 8192, "epochs": 2, "schemes": ["role_based"]},
        )
        assert status in (200, 202)
        job = harness.poll(body["job"]["id"])
        assert job["state"] == "done"
        payload = json.loads(harness.result(job["id"]))
        assert "dynamics/role_based" in payload
