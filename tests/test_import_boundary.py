"""The runtime imports, and runs, on numpy alone, with one simulation engine.

scipy and networkx are test oracles (``tests/oracles.py``), not runtime
dependencies, and the discrete-event simulator is the fast kernel's test
oracle (``tests/des``), not runtime code.  Each entry point also keeps an
import budget: it loads the modules its workload runs and no sibling
experiment, oracle or engine.  Each check runs in a fresh interpreter,
since this test process has long since imported all of them.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent

#: Packages only the test suite may import.
TEST_ONLY = ("scipy", "networkx")

#: The DES's classes; no runtime module may hold one.
DES_NAMES = ("EventEngine", "AlgorandSimulation", "GossipNetwork", "Node")


#: The packages whose public names resolve lazily (PEP 562).
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.populations",
    "repro.scenarios",
    "repro.schemes",
    "repro.sim",
    "repro.stakes",
    "repro.telemetry",
)


def run_python(code: str, cwd: Path, tests: bool = False) -> str:
    """Run ``code`` in a fresh interpreter on the source tree (and, with
    ``tests``, the test tree); its stdout."""
    path = [str(SRC), str(TESTS)] if tests else [str(SRC)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_entry_points_import_neither_package(tmp_path):
    out = run_python(
        f"""
        import json, sys
        import repro.analysis.runner, repro.service.app
        print(json.dumps(sorted(
            name for name in sys.modules if name.split(".")[0] in {TEST_ONLY!r}
        )))
        """,
        tmp_path,
    )
    assert json.loads(out) == []


def test_entry_points_load_no_des_code(tmp_path):
    out = run_python(
        f"""
        import json, sys
        import repro.analysis.runner, repro.service.app, repro.sim
        found = [name for name in sys.modules if name.split(".")[0] == "des"]
        found += [
            f"{{name}}.{{attr}}"
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "repro"
            for attr in {DES_NAMES!r}
            if hasattr(module, attr)
        ]
        print(json.dumps(sorted(found)))
        """,
        tmp_path,
    )
    assert json.loads(out) == []


def test_des_imports_neither_package(tmp_path):
    out = run_python(
        f"""
        import json, sys
        import des
        assert des.AlgorandSimulation
        print(json.dumps(sorted(
            name for name in sys.modules if name.split(".")[0] in {TEST_ONLY!r}
        )))
        """,
        tmp_path,
        tests=True,
    )
    assert json.loads(out) == []


def test_runtime_runs_with_both_packages_refused(tmp_path):
    out = run_python(
        f"""
        import random, sys

        class Refuse:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] in {TEST_ONLY!r}:
                    raise ModuleNotFoundError(f"{{name}} is refused")
                return None

        sys.meta_path.insert(0, Refuse())

        import numpy as np
        from repro.analysis.runner import run_experiment
        from repro.core.bounds import paper_aggregates
        from repro.core.costs import RoleCosts
        from repro.core.optimizer import minimize_reward_analytic
        from repro.sim.network import build_random_overlay

        stakes = np.full(200_000, 100.0)
        split = minimize_reward_analytic(
            RoleCosts.paper_defaults(), paper_aggregates(stakes)
        )
        assert split.b_i > 0, split
        overlay = build_random_overlay(range(40), 5, random.Random(3))
        assert len(overlay) == 40
        outcome = run_experiment("scale", scale="small")
        assert outcome.rendered
        print("ran")
        """,
        tmp_path,
    )
    assert out.strip().endswith("ran")


def loaded_after(entry: str, cwd: Path):
    """The ``repro`` modules a fresh interpreter holds after importing ``entry``."""
    out = run_python(
        f"""
        import json, sys
        import {entry}
        print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro"))))
        """,
        cwd,
    )
    return json.loads(out)


def within(name: str, packages) -> bool:
    return any(name == package or name.startswith(package + ".") for package in packages)


def test_the_audit_entry_loads_no_oracle_or_sibling_experiment(tmp_path):
    loaded = loaded_after("repro.analysis.scale", tmp_path)
    assert "repro.schemes.population_audit" in loaded
    assert "repro.sim.fastpath" in loaded  # the committee kernel it runs
    unused = (
        "repro.schemes.audit",
        "repro.analysis.orchestrator",
        "repro.analysis.defection",
        "repro.scenarios",
    )
    assert [name for name in loaded if within(name, unused)] == []


def test_the_fig3_entry_loads_no_scheme_or_population_code(tmp_path):
    loaded = loaded_after("repro.analysis.defection", tmp_path)
    assert "repro.sim.fastpath" in loaded
    unused = ("repro.schemes", "repro.populations")
    assert [name for name in loaded if within(name, unused)] == []


def test_the_dynamics_entry_loads_no_scenario_engine(tmp_path):
    loaded = loaded_after("repro.scenarios.population_dynamics", tmp_path)
    assert "repro.scenarios.trajectory" in loaded  # the records it emits
    assert "repro.core.dynamics" in loaded  # the replicator it steps
    unused = (
        "repro.scenarios.dynamics",
        "repro.scenarios.spec",
        "repro.sim.config",
        "repro.sim.behavior",
    )
    assert [name for name in loaded if within(name, unused)] == []


def test_a_scenario_run_steps_the_core_replicator(tmp_path):
    out = run_python(
        """
        import json, sys
        from repro.scenarios.dynamics import run_scenario
        from repro.scenarios.registry import get_scenario

        spec = get_scenario("adaptive-adversary").with_overrides(n_epochs=2)
        for scheme in ("foundation", "axiomatic_tau"):
            run_scenario(spec, scheme, 3)
        print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro.core"))))
        """,
        tmp_path,
    )
    loaded = json.loads(out)
    assert "repro.core.dynamics" in loaded


#: What the scalar game defines: its reward rules, the game and its Nash checks.
SCALAR_GAME = re.compile(
    r"^\s*(def make_rule\(|class PooledRule\b|class AlgorandGame\b"
    r"|def is_nash_equilibrium\(|def best_response\(|def synchronous_best_responses\()",
    re.MULTILINE,
)

#: The public names ``repro.core`` exported from the scalar game.
SCALAR_GAME_NAMES = (
    "AlgorandGame", "BlockSuccessModel", "Deviation", "FoundationRule", "NashResult",
    "Player", "PlayerRole", "RoleBasedRule", "Strategy", "all_cooperate", "all_defect",
    "best_response", "is_nash_equilibrium", "lemma1_offline_dominated",
    "theorem1_all_defection_ne", "theorem2_all_cooperation_not_ne",
    "theorem3_equilibrium", "theorem3_profile", "with_deviation",
)


def test_no_runtime_module_defines_a_scalar_reward_rule():
    """Pools are the runtime's only declaration of what a scheme pays, and
    the round game runs on them; the scalar game is the suite's oracle."""
    defined = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if SCALAR_GAME.search(path.read_text(encoding="utf-8"))
    ]
    assert defined == []
    for oracle in ("oracles.py", "scalar_game/game.py", "scalar_game/equilibrium.py"):
        assert SCALAR_GAME.search((TESTS / oracle).read_text(encoding="utf-8")), oracle


@pytest.mark.parametrize("module", ["repro.core.game", "repro.core.equilibrium"])
def test_the_scalar_game_is_not_runtime_code(module):
    import repro.core

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)
    assert [name for name in SCALAR_GAME_NAMES if name in repro.core.__all__] == []


def test_no_runtime_module_defines_the_per_node_sortition():
    """The per-node draw, its proof and their verification are DES code."""
    definition = re.compile(
        r"^(def sortition\(|class SortitionProof\b|def vrf_verify\()", re.MULTILINE
    )
    defined = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if definition.search(path.read_text(encoding="utf-8"))
    ]
    assert defined == []
    assert definition.search((TESTS / "des" / "signing.py").read_text(encoding="utf-8"))


def test_runner_version_loads_no_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.analysis.runner", "--version"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split()[-1]  # the version
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in completed.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    assert "repro.analysis.experiments" in imported  # the runner's own imports
    assert [name for name in imported if within(name, ("numpy",))] == []


def test_exported_names_resolve_and_unknown_names_import_nothing(tmp_path):
    out = run_python(
        f"""
        import importlib, json, sys, types
        unresolved, imported = [], []
        for package in {LAZY_PACKAGES!r}:
            module = importlib.import_module(package)
            assert set(module.__all__) <= set(dir(module)), package
            before = set(sys.modules)
            try:
                module.no_such_name
            except AttributeError:
                if set(sys.modules) != before:
                    imported.append(package)
            for name in module.__all__:
                value = getattr(module, name, None)
                if value is None or isinstance(value, types.ModuleType):
                    unresolved.append(f"{{package}}.{{name}}")
        print(json.dumps([unresolved, imported]))
        """,
        tmp_path,
    )
    assert json.loads(out) == [[], []]


def _rebuild_builtins(scheme_params, scenario):
    """A spawn worker's task: rebuild built-ins through the registries alone.

    Returns the scheme and scenario modules loaded before the task, the
    catalogs loaded by importing the registries, and what they rebuilt.
    """
    catalogs = ("repro.schemes.catalog", "repro.scenarios.catalog")
    before = [name for name in sys.modules if within(name, ("repro.schemes", "repro.scenarios"))]
    from repro.scenarios.registry import get_scenario
    from repro.schemes.registry import scheme_from_params

    eager = [name for name in catalogs if name in sys.modules]
    rebuilt = scheme_from_params(scheme_params).to_params()
    return before, eager, rebuilt, get_scenario(scenario).name


def test_a_spawned_worker_rebuilds_builtins_from_the_registries():
    params = {"kind": "axiomatic_tau", "name": "tau-quarter", "params": {"tau": 0.25}}
    context = multiprocessing.get_context("spawn")
    with context.Pool(1) as pool:
        before, eager, rebuilt, scenario = pool.apply(
            _rebuild_builtins, (params, "whale-dominated")
        )
    assert before == []
    assert eager == []  # the registries fill themselves on the first lookup
    assert rebuilt == params
    assert scenario == "whale-dominated"
