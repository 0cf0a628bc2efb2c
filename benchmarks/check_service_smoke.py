"""CI guard: boot ``repro-runner serve`` and drive one full client session.

The service-smoke job's scripted client: starts the real server as a
subprocess (ephemeral port, printed on stdout), then performs the whole
API surface end to end —

1. ``GET /healthz`` answers 200/ok;
2. ``POST /v1/jobs`` with a small audit spec is accepted (202);
3. polling ``GET /v1/jobs/{id}`` reaches ``done``;
4. ``GET /v1/jobs/{id}/result`` returns the payload, byte-identical to
   the same spec run through the CLI path (``scale.audit.json``);
   a small ``tournament`` job, which runs through the sweep orchestrator,
   must likewise equal the CLI's ``tournament.json`` (the server runs
   ``--workers 2``, so its shards go through the process pool, started
   from a job-engine thread);
5. a **repeat submission answers 200 with ``memoized: true``** and
   serves the same bytes — the memo cache works across requests;
6. bad requests (unknown scheme, malformed JSON) answer structured
   400s and the service keeps serving;
7. ``GET /metrics`` exposes the service families and the exposition
   **passes the Prometheus linter**
   (:func:`repro.telemetry.lint_prometheus_text`).

Exits non-zero on the first failed expectation (fails the CI job).
Run from the repo root::

    PYTHONPATH=src python benchmarks/check_service_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: The audit spec the session submits (and the CLI comparison runs).
AUDIT_PARAMS = {"agents": 2000, "schemes": ["foundation", "role_based"]}

#: A small tournament: every scheme, every scenario family, sharded.
TOURNAMENT_PARAMS = {"players": 8, "epochs": 2, "replications": 1, "simulate_rounds": 1}

#: The service's tournament seed (the CLI defaults to 2021).
TOURNAMENT_SERVICE_SEED = 11


def fail(message: str) -> None:
    """Print the failure and exit non-zero (fails the CI job)."""
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def request(
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, str], bytes]:
    """One HTTP exchange against the served port."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return (
            response.status,
            {name.lower(): value for name, value in response.getheaders()},
            response.read(),
        )
    finally:
        conn.close()


def submit(
    port: int, params: Dict[str, object], kind: str = "audit"
) -> Tuple[int, Dict[str, object]]:
    """POST one job; return (status, decoded body)."""
    status, _, body = request(
        port,
        "POST",
        "/v1/jobs",
        body=json.dumps({"kind": kind, "params": params}).encode(),
        headers={"Content-Type": "application/json", "X-Client-Id": "ci-smoke"},
    )
    return status, json.loads(body)


def poll(port: int, job_id: str, timeout_s: float = 120.0) -> Dict[str, object]:
    """Poll the status endpoint until the job is terminal."""
    deadline = time.monotonic() + timeout_s
    while True:
        status, _, body = request(port, "GET", f"/v1/jobs/{job_id}")
        if status != 200:
            fail(f"poll of {job_id} answered {status}: {body!r}")
        job = json.loads(body)["job"]
        if job["state"] in ("done", "failed"):
            return job
        if time.monotonic() > deadline:
            fail(f"job {job_id} still {job['state']!r} after {timeout_s}s")
        time.sleep(0.2)


def cli_reference_bytes(experiment: str, payload_file: str, **fields) -> bytes:
    """Run the same settings through the CLI path; return its payload file."""
    from repro.analysis.runner import run_experiment

    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(experiment, scale="small", out=Path(tmp), workers=1, **fields)
        return (Path(tmp) / payload_file).read_bytes()


def main() -> int:
    """Boot the server, run the scripted session, report pass/fail."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src")
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.analysis.runner",
            "serve",
            "--port",
            "0",
            "--workers",
            "2",
            "--no-progress",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=_REPO_ROOT,
    )
    try:
        assert server.stdout is not None
        ready = server.stdout.readline().strip()
        if not ready.startswith("serving on "):
            fail(f"unexpected startup line: {ready!r}")
        port = int(ready.rsplit(":", 1)[1])
        print(f"server up on port {port}")

        status, _, body = request(port, "GET", "/healthz")
        if status != 200 or json.loads(body)["status"] != "ok":
            fail(f"/healthz answered {status}: {body!r}")
        print("healthz: ok")

        status, first = submit(port, AUDIT_PARAMS)
        if status != 202:
            fail(f"first submission answered {status}: {first}")
        job = poll(port, first["job"]["id"])
        if job["state"] != "done":
            fail(f"audit job failed: {job.get('error')}")
        status, _, served = request(port, "GET", f"/v1/jobs/{job['id']}/result")
        if status != 200:
            fail(f"result fetch answered {status}")
        print(f"audit served: {len(served)} bytes")

        reference = cli_reference_bytes(
            "scale",
            "scale.audit.json",
            agents=AUDIT_PARAMS["agents"],
            schemes=AUDIT_PARAMS["schemes"],
        )
        if served != reference:
            fail(
                "served result differs from the CLI's scale.audit.json "
                f"({len(served)} vs {len(reference)} bytes)"
            )
        print("byte-identity vs CLI: ok")

        status, repeat = submit(port, AUDIT_PARAMS)
        if status != 200 or not repeat["job"]["memoized"]:
            fail(f"repeat submission was not a memo hit: {status} {repeat}")
        status, _, repeat_bytes = request(
            port, "GET", f"/v1/jobs/{repeat['job']['id']}/result"
        )
        if repeat_bytes != served:
            fail("memoized result differs from the original bytes")
        print("memo cache on repeat submission: ok")

        status, body = submit(port, TOURNAMENT_PARAMS, kind="tournament")
        if status != 202:
            fail(f"tournament submission answered {status}: {body}")
        job = poll(port, body["job"]["id"])
        if job["state"] != "done":
            fail(f"tournament job failed: {job.get('error')}")
        status, _, served = request(port, "GET", f"/v1/jobs/{job['id']}/result")
        if status != 200:
            fail(f"tournament result fetch answered {status}")
        reference = cli_reference_bytes(
            "tournament",
            "tournament.json",
            seed=TOURNAMENT_SERVICE_SEED,
            **TOURNAMENT_PARAMS,
        )
        if served != reference:
            fail(
                "served tournament differs from the CLI's tournament.json "
                f"({len(served)} vs {len(reference)} bytes)"
            )
        print(f"tournament served: {len(served)} bytes, byte-identical to the CLI")

        status, error_body = submit(port, {"schemes": ["bogus_scheme"]})
        if status != 400 or error_body["error"]["type"] != "SchemeError":
            fail(f"unknown scheme not a structured 400: {status} {error_body}")
        status, _, body = request(port, "POST", "/v1/jobs", body=b"{not json")
        if status != 400:
            fail(f"malformed JSON answered {status}")
        print("structured 400s: ok")

        status, headers, metrics = request(port, "GET", "/metrics")
        if status != 200:
            fail(f"/metrics answered {status}")
        text = metrics.decode("utf-8")
        from repro.telemetry import PROMETHEUS_CONTENT_TYPE, lint_prometheus_text

        if headers["content-type"] != PROMETHEUS_CONTENT_TYPE:
            fail(f"wrong /metrics content type: {headers['content-type']}")
        problems = lint_prometheus_text(text)
        if problems:
            fail("Prometheus lint: " + "; ".join(problems))
        for family in (
            "repro_service_requests_total",
            "repro_service_jobs_executed_total",
            "repro_service_memo_hits_total",
            "repro_service_job_seconds",
        ):
            if family not in text:
                fail(f"metric family {family} missing from /metrics")
        print("metrics exposition: linted ok")

        print("service smoke: PASS")
        return 0
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
