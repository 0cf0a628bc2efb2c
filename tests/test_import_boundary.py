"""The runtime imports, and runs, on numpy alone, with one simulation engine.

scipy and networkx are test oracles (``tests/oracles.py``), not runtime
dependencies, and the discrete-event simulator is the fast kernel's test
oracle (``tests/des``), not runtime code.  Each check runs in a fresh
interpreter, since this test process has long since imported all three.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent

#: Packages only the test suite may import.
TEST_ONLY = ("scipy", "networkx")

#: The DES's classes; no runtime module may hold one.
DES_NAMES = ("EventEngine", "AlgorandSimulation", "GossipNetwork", "Node")


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
