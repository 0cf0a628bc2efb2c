"""The four benchmark workloads and the service session's client.

Each in-process workload builds its inputs from a seed and runs in
*passes*.  Pass ``i`` uses the input seed :func:`pass_seed` ``(seed, i)``,
so pass 0 runs exactly the requested seed and later passes run fresh
inputs of the same shape.  A pass returns its work, its wall time, the
latencies of the operations a user waits on, and the problems its output
checks found.

The service workload drives ``repro-runner serve`` in a subprocess with
one closed-loop client (each request waits for the previous response).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: SHA-256 digests of each workload's outputs at its default seed.
DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())


def pass_seed(seed: int, index: int) -> int:
    """The input seed of pass ``index`` (pass 0 runs ``seed`` itself)."""
    return seed + 7919 * index


def sha256_json(value) -> str:
    """SHA-256 of ``value``'s canonical JSON (sorted keys, exact floats)."""
    blob = json.dumps(value, indent=2, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Pass:
    """One pass of an in-process workload."""

    work: float
    wall_s: float
    op_ms: List[float]
    problems: List[str] = field(default_factory=list)
    #: Further timings, printed as medians over passes but not gated.
    details: Dict[str, float] = field(default_factory=dict)


class InProcessWorkload:
    """Shared shape of the in-process workloads (see the module doc).

    The constructor is the set-up that ``setup_s`` times in fresh
    processes: the imports plus the first pass's spec (``self.base``).
    """

    name = ""
    default_seed = 2021
    #: Name and unit of the work rate, and name of the operation timed.
    work_name = ""
    op_name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def check_digest(self, seed: int, digest: str, problems: List[str]) -> None:
        """At the default seed, the output must hash to the stored digest."""
        if seed == self.default_seed and digest != DIGESTS[self.name]:
            problems.append(
                f"output digest {digest[:12]}... differs from the stored "
                f"{DIGESTS[self.name][:12]}... at seed {seed}"
            )


class AuditGrid(InProcessWorkload):
    """10^6 zipf agents, all schemes, a 2x2 budget x cost-scale grid."""

    name = "audit_grid_1m"
    work_name = "agent_cells_per_s"
    op_name = "run_scale_p50_ms"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        from repro.analysis import scale

        self.scale = scale
        self.base = self.config(seed)
        self.base.population_spec()
        self.cells = len(self.base.scheme_list()) * 4

    def config(self, seed: int, n_agents: int = 1_000_000):
        return self.scale.ScaleConfig(
            family="zipf",
            family_params={"exponent": 1.9, "scale": 3.0},
            n_agents=n_agents,
            chunk_agents=131_072,
            seed=seed,
            committee_expected_size=2000.0,
            budget_multipliers=(1.0, 2.0),
            cost_scales=(0.5, 2.0),
        )

    def warm_up(self) -> None:
        self.scale.run_scale(self.config(self.seed, n_agents=20_000))

    def run_pass(self, index: int) -> Pass:
        seed = pass_seed(self.seed, index)
        config = self.config(seed)
        started = time.perf_counter()
        result = self.scale.run_scale(config)
        wall = time.perf_counter() - started
        problems: List[str] = []
        for (scheme, budget, cost), report in result.grid.reports.items():
            if scheme == "foundation" and report.certified:
                problems.append(f"foundation certified at b={budget} c={cost}")
            if scheme == "role_based" and not report.certified:
                problems.append(f"role_based not certified at b={budget} c={cost}")
        if sum(1 for key in result.grid.reports if key[0] == "role_based") != 4:
            problems.append("role_based was not audited in all 4 cells")
        self.check_digest(seed, sha256_json(result.audit_payload()), problems)
        return Pass(config.n_agents * self.cells, wall, [wall * 1e3], problems)


class Dynamics(InProcessWorkload):
    """2x10^5 zipf agents, cooperation 0.9, 10 replicator epochs, 2 schemes."""

    name = "dynamics_200k"
    work_name = "agent_epochs_per_s"
    op_name = "run_population_dynamics_p50_ms"
    schemes = ("foundation", "role_based")

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        from repro.populations.arrays import DEFAULT_CHUNK_AGENTS
        from repro.populations.spec import PopulationSpec
        from repro.scenarios import population_dynamics

        self.pd = population_dynamics
        self.population = PopulationSpec
        self.chunk = DEFAULT_CHUNK_AGENTS
        self.base = self.spec(seed)

    def spec(self, seed: int, size: int = 200_000, epochs: int = 10):
        return self.pd.PopulationDynamicsSpec(
            name="dynamics",
            population=self.population("zipf", size, cooperation=0.9, seed=seed),
            n_epochs=epochs,
            chunk_agents=self.chunk,
        )

    def warm_up(self) -> None:
        for scheme in self.schemes:
            self.pd.run_population_dynamics(self.spec(self.seed, 16_384, 2), scheme)

    def run_pass(self, index: int) -> Pass:
        seed = pass_seed(self.seed, index)
        spec = self.spec(seed)
        op_ms: List[float] = []
        trajectories = {}
        started = time.perf_counter()
        for scheme in self.schemes:
            op_started = time.perf_counter()
            trajectories[scheme] = self.pd.run_population_dynamics(spec, scheme)
            op_ms.append((time.perf_counter() - op_started) * 1e3)
        wall = time.perf_counter() - started
        problems: List[str] = []
        final = {s: t.records[-1] for s, t in trajectories.items()}
        defection = {s: r.n_defecting / r.n_players for s, r in final.items()}
        if defection["foundation"] < 0.9:
            problems.append(f"foundation final defection {defection['foundation']:.3f} < 0.9")
        if defection["role_based"] > 0.1:
            problems.append(f"role_based final defection {defection['role_based']:.3f} > 0.1")
        if not final["role_based"].block_success:
            problems.append("role_based final block failed")
        payload = {s: t.to_payload() for s, t in trajectories.items()}
        self.check_digest(seed, sha256_json(payload), problems)
        work = spec.population.size * spec.n_epochs * len(self.schemes)
        return Pass(work, wall, op_ms, problems)


class Fig3Campaign(InProcessWorkload):
    """Fig. 3: 6 rates x 5 runs x 20 rounds x 80 nodes at 2 workers."""

    name = "fig3_campaign"
    default_seed = 2020
    work_name = "rounds_per_s"
    op_name = "campaign_p50_ms"
    workers = 2

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        from repro.analysis import defection

        self.defection = defection
        self.base = defection.DefectionExperimentConfig(seed=seed, backend="fast")

    def config(self, seed: int, **overrides):
        return self.defection.DefectionExperimentConfig(
            seed=seed, backend="fast", **overrides
        )

    @staticmethod
    def rows(result) -> List[Tuple[float, ...]]:
        """The fig3.csv rows: (rate, round, final, tentative, none)."""
        return [
            (rate, index + 1, series.fraction_final[index],
             series.fraction_tentative[index], series.fraction_none[index])
            for rate, series in sorted(result.series.items())
            for index in range(len(series.fraction_final))
        ]

    def campaign(self, config, cache_dir: Path):
        return self.defection.run_defection_experiment(
            config, workers=self.workers, cache_dir=cache_dir
        )

    def warm_up(self) -> None:
        config = self.config(self.seed, rates=(0.05, 0.3), n_runs=1, n_rounds=2)
        cache = self.scratch / "fig3-warm-up"
        try:
            self.campaign(config, cache)
            self.campaign(config, cache)
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def run_pass(self, index: int) -> Pass:
        seed = pass_seed(self.seed, index)
        config = self.config(seed)
        cache = self.scratch / f"fig3-cache-{index}"
        shutil.rmtree(cache, ignore_errors=True)
        try:
            started = time.perf_counter()
            cold = self.campaign(config, cache)
            cold_wall = time.perf_counter() - started
            warm = self.campaign(config, cache)
            warm_wall = time.perf_counter() - started - cold_wall
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        problems = list(self.defection.shape_assertions(cold))
        rows = self.rows(cold)
        if self.rows(warm) != rows:
            problems.append("the warm re-run's rows differ from the cold run's")
        self.check_digest(seed, sha256_json(rows), problems)
        rounds = len(config.rates) * config.n_runs * config.n_rounds
        # The re-run only reads 30 cache files (about 3 ms), too short to
        # gate on a shared host, so it is reported but not gated.
        return Pass(
            rounds, cold_wall, [cold_wall * 1e3], problems,
            {"warm_rerun_p50_ms": warm_wall * 1e3},
        )


IN_PROCESS = {cls.name: cls for cls in (AuditGrid, Dynamics, Fig3Campaign)}


# -- the service session --------------------------------------------------------

#: Session shape: cold audits per round, memo repeats per round, and the
#: agent counts of the cold and busy-phase audits.
COLD_JOBS = 6
MEMO_REPEATS = 40
COLD_AGENTS = 5_000
BUSY_AGENTS = 30_000
WARM_UP_AGENTS = 2_000
#: Pause between status polls of a cold job.
POLL_S = 0.004


class ServiceError(RuntimeError):
    """The server could not be started or stopped cleanly."""


class Server:
    """One ``serve --port 0`` subprocess; times spawn to its ready line."""

    def __init__(self, argv: List[str], root: Path, env: Dict[str, str]) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        watchdog = threading.Timer(60.0, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline().strip()
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - started
        if not line.startswith("serving on "):
            self.stop()
            raise ServiceError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServiceError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGINT, then wait; SIGKILL after 20 s.  Returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            code = self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.process.stdout.close()
        return code


@dataclass
class Session:
    """What one client session saw: latency samples, failures, results."""

    cold_ms: List[float] = field(default_factory=list)
    memo_ms: List[float] = field(default_factory=list)
    busy_memo_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: (agents, seed) -> served result bytes, for the in-process check.
    served: Dict[Tuple[int, int], bytes] = field(default_factory=dict)
    rounds: int = 0
    wall_s: float = 0.0


class Client:
    """The closed-loop client: one request at a time, one connection each."""

    def __init__(self, port: int, session: Session) -> None:
        self.port = port
        self.session = session

    def request(self, method: str, path: str, body: Optional[dict] = None):
        """One exchange; returns ``(status, body bytes, seconds)``."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        started = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(
                method,
                path,
                body=data,
                headers={"Content-Type": "application/json", "X-Client-Id": "bench"},
            )
            response = conn.getresponse()
            payload = response.read()
        finally:
            conn.close()
        self.session.attempted += 1
        return response.status, payload, time.perf_counter() - started

    def fail(self, message: str) -> None:
        self.session.failed += 1
        if len(self.session.problems) < 10:
            self.session.problems.append(message)

    def submit(self, agents: int, seed: int, expect: int):
        """POST an audit; returns ``(job id or None, seconds)``."""
        status, body, seconds = self.request(
            "POST", "/v1/jobs", {"kind": "audit", "params": {"agents": agents, "seed": seed}}
        )
        if status != expect:
            self.fail(f"submit of ({agents}, {seed}) answered {status}, expected {expect}")
            return None, seconds
        return json.loads(body)["job"]["id"], seconds

    def state(self, job_id: str) -> str:
        status, body, _ = self.request("GET", f"/v1/jobs/{job_id}")
        if status != 200:
            self.fail(f"status of {job_id} answered {status}")
            return "failed"
        return json.loads(body)["job"]["state"]

    def result(self, job_id: str):
        """GET the result bytes; returns ``(bytes or None, seconds)``."""
        status, body, seconds = self.request("GET", f"/v1/jobs/{job_id}/result")
        if status != 200:
            self.fail(f"result of {job_id} answered {status}")
            return None, seconds
        return body, seconds

    def cold(self, agents: int, seed: int) -> Optional[float]:
        """Submit, poll until done, fetch: the submit-to-bytes latency."""
        started = time.perf_counter()
        job_id, _ = self.submit(agents, seed, expect=202)
        if job_id is None:
            return None
        while (state := self.state(job_id)) in ("queued", "running"):
            # About one interpreter switch interval: a faster poll would
            # mostly take the lock away from the job it waits for.
            time.sleep(POLL_S)
        if state != "done":
            self.fail(f"job ({agents}, {seed}) ended {state}")
            return None
        body, _ = self.result(job_id)
        if body is None:
            return None
        self.session.served[(agents, seed)] = body
        return time.perf_counter() - started

    def memo(self, agents: int, seed: int) -> List[float]:
        """A memoized repeat submission plus its result fetch."""
        job_id, submit_s = self.submit(agents, seed, expect=200)
        if job_id is None:
            return []
        body, result_s = self.result(job_id)
        if body is not None and body != self.session.served.get((agents, seed)):
            self.fail(f"memoized bytes of ({agents}, {seed}) differ")
        return [submit_s * 1e3, result_s * 1e3]

    def warm_up(self, seed: int) -> None:
        """A first job, so lazy imports in the server happen before timing."""
        if self.cold(WARM_UP_AGENTS, seed) is not None:
            self.memo(WARM_UP_AGENTS, seed)

    def round(self, seeds: List[int]) -> None:
        """One cold / memo / busy round; ``seeds`` has COLD_JOBS + 1 entries."""
        session = self.session
        cold_seeds, busy_seed = seeds[:COLD_JOBS], seeds[COLD_JOBS]
        for seed in cold_seeds:
            seconds = self.cold(COLD_AGENTS, seed)
            if seconds is not None:
                session.cold_ms.append(seconds * 1e3)
        cold_seeds = [s for s in cold_seeds if (COLD_AGENTS, s) in session.served]
        if not cold_seeds:
            return
        for index in range(MEMO_REPEATS):
            session.memo_ms.extend(self.memo(COLD_AGENTS, cold_seeds[index % len(cold_seeds)]))
        busy_id, _ = self.submit(BUSY_AGENTS, busy_seed, expect=202)
        if busy_id is None:
            return
        index = 0
        while (state := self.state(busy_id)) in ("queued", "running"):
            session.busy_memo_ms.extend(self.memo(COLD_AGENTS, cold_seeds[index % len(cold_seeds)]))
            index += 1
        if state != "done":
            self.fail(f"busy job ({BUSY_AGENTS}, {busy_seed}) ended {state}")
            return
        body, _ = self.result(busy_id)
        if body is not None:
            session.served[(BUSY_AGENTS, busy_seed)] = body


def run_session(
    port: int, seed: int, seconds: float, rounds: Optional[int] = None
) -> Session:
    """Warm up, then run rounds for ``seconds`` (or exactly ``rounds``)."""
    session = Session()
    client = Client(port, session)
    per_round = COLD_JOBS + 1
    started = time.perf_counter()
    client.warm_up(pass_seed(seed, 0))
    measure_from = time.perf_counter()
    while True:
        if rounds is not None and session.rounds >= rounds:
            break
        if rounds is None and session.rounds >= 3:
            elapsed = time.perf_counter() - measure_from
            if elapsed * (session.rounds + 1) / session.rounds > seconds:
                break
        first = 1 + session.rounds * per_round
        client.round([pass_seed(seed, first + i) for i in range(per_round)])
        session.rounds += 1
    session.wall_s = time.perf_counter() - started
    return session


def verify_served(session: Session) -> None:
    """Every served result must equal the in-process audit payload's bytes."""
    from repro.analysis.scale import ScaleConfig, run_scale

    for (agents, seed), served in sorted(session.served.items()):
        payload = run_scale(ScaleConfig(n_agents=agents, seed=seed)).audit_payload()
        expected = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        if served != expected:
            session.failed += 1
            session.problems.append(
                f"served audit ({agents}, {seed}) differs from the in-process payload"
            )


def server_argv(spans_out: Optional[Path] = None) -> List[str]:
    """The serve command line; with ``spans_out``, the traced launcher's."""
    args = ["serve", "--port", "0", "--workers", "1", "--no-progress"]
    if spans_out is None:
        return [sys.executable, "-m", "repro.analysis.runner", *args]
    launcher = Path(__file__).with_name("serve_traced.py")
    return [sys.executable, str(launcher), str(spans_out), *args]


def server_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env
