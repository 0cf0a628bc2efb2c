"""Golden pins of the fast kernel's full simulation state.

The DES oracle suite compares the fast kernel's records with the
event-driven simulator's, but only on configurations where the two agree
exactly, and never sees the state the kernel carries between rounds.
This suite pins, per configuration, everything a run of
:class:`~repro.sim.fastpath.FastSimulation` leaves behind, recorded
before any rewrite of the round kernel:

- every :class:`~repro.sim.metrics.RoundRecord` field,
- the final ``stakes`` and ``rewards_received`` vectors,
- every node's chain tip (``_tips``), and
- the authoritative ledger, block hash and label per height.

The configurations cover each branch of the kernel's agreement phase:
the paper's Figure 3 defection rates, a faulty/defecting/malicious mix,
equivocating proposers and voters, per-round message drops (per-node
tallies differ, so nodes holding the same proposal disagree later),
a slow network (``delay_scale``) where only some nodes count a quorum
in time, machines that exhaust ``max_binary_steps``, and a reward mechanism that
compounds stakes into the next round's sortition.

A second pin holds the ``repro_fastpath_committee_weight`` histogram of
one fixed run: the kernel observes it once per (role, step) a round
uses, however the sortition behind it is batched.

Regenerate (only when a change is *meant* to move kernel output) with::

    PYTHONPATH=src python tests/sim/test_fastpath_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.analysis.defection import (
    PAPER_DEFECTION_RATES,
    DefectionExperimentConfig,
)
from repro.core.role_based import RoleBasedSharing
from repro.sim import FastSimulation, SimulationConfig
from repro.sim.blocks import Transaction
from repro.telemetry import capture

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "fastpath_records.json"


def _config(**overrides) -> SimulationConfig:
    base = dict(
        n_nodes=60,
        seed=41,
        tau_proposer=8.0,
        tau_step=60.0,
        tau_final=80.0,
        verify_crypto=False,
        backend="fast",
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _transactions(round_index: int) -> List[Transaction]:
    """Two transfers per round: equivocators then fork a distinct block."""
    return [
        Transaction(round_index % 7, 9, amount=1.5, nonce=round_index),
        Transaction(3, round_index % 5 + 10, amount=2.0, nonce=round_index),
    ]


#: A case: (config, rounds, mechanism factory, transaction source).
Case = Tuple[SimulationConfig, int, Optional[Callable[[], object]], Optional[Callable]]

_FIG3 = DefectionExperimentConfig()

CASES: Dict[str, Case] = {
    **{
        f"fig3/rate={rate:.2f}": (_FIG3.simulation_config(rate, 0), 8, None, None)
        for rate in PAPER_DEFECTION_RATES
    },
    "faulty_mix": (
        _config(
            offline_rate=0.15,
            defection_rate=0.10,
            malicious_rate=0.05,
            short_circuit_rounds=False,
        ),
        6,
        None,
        _transactions,
    ),
    "malicious": (_config(seed=43, malicious_rate=0.25), 8, None, _transactions),
    "drops": (
        _config(seed=47, drop_probability=0.6, defection_rate=0.1), 8, None, None
    ),
    "slow_network": (
        _config(seed=47, delay_scale=4.0, defection_rate=0.1), 8, None, None
    ),
    "exhaust": (
        _config(seed=53, n_nodes=50, defection_rate=0.45, max_binary_steps=3),
        6,
        None,
        None,
    ),
    "compounding_rewards": (
        _config(seed=59, defection_rate=0.1),
        10,
        lambda: RoleBasedSharing(alpha=0.2, beta=0.3, reward=400.0),
        _transactions,
    ),
}

#: The fixed run behind the committee-weight histogram pin.
TELEMETRY_CASE = "malicious"


def _hex(value: Optional[int]) -> Optional[str]:
    return None if value is None else format(value, "x")


def _simulate(case: str) -> FastSimulation:
    config, rounds, mechanism, transactions = CASES[case]
    simulation = FastSimulation(
        config,
        mechanism=mechanism() if mechanism else None,
        transaction_source=transactions,
    )
    simulation.run(rounds)
    return simulation


def run_payload(simulation: FastSimulation) -> Dict[str, object]:
    """Every pinned piece of one finished simulation, JSON-ready."""
    records = [
        {
            "round_index": r.round_index,
            "n_online": r.n_online,
            "n_final": r.n_final,
            "n_tentative": r.n_tentative,
            "n_none": r.n_none,
            "n_concluded_empty": r.n_concluded_empty,
            "n_desynced": r.n_desynced,
            "n_caught_up": r.n_caught_up,
            "authoritative_label": r.authoritative_label.value,
            "authoritative_value": _hex(r.authoritative_value),
            "steps_used": r.steps_used,
            "reward_total": r.reward_total,
            "reward_params": dict(r.reward_params),
            "n_leaders": r.n_leaders,
            "n_committee": r.n_committee,
        }
        for r in simulation.metrics.records
    ]
    return {
        "records": records,
        "stakes": list(simulation.stakes),
        "rewards_received": list(simulation.rewards_received),
        "tips": [_hex(tip) for tip in simulation._tips],
        "ledger": [
            [_hex(entry.block.block_hash()), entry.label.value]
            for entry in simulation.authoritative.entries()
        ],
    }


def committee_histogram() -> Dict[str, Dict[str, object]]:
    """Per-role ``repro_fastpath_committee_weight`` samples of one run."""
    with capture() as registry:
        _simulate(TELEMETRY_CASE)
    family = registry.snapshot()["metrics"]["repro_fastpath_committee_weight"]
    return {
        sample["labels"]["role"]: {
            "count": sample["count"],
            "sum": sample["sum"],
            "counts": sample["counts"],
        }
        for sample in family["samples"]
    }


def compute_golden() -> Dict[str, object]:
    """The whole fixture: one payload per case plus the histogram pin."""
    golden: Dict[str, object] = {
        f"runs/{case}": run_payload(_simulate(case)) for case in CASES
    }
    golden["telemetry/committee_weight"] = committee_histogram()
    return golden


@pytest.fixture(scope="module")
def golden() -> Dict[str, object]:
    return json.loads(GOLDEN_PATH.read_text())


class TestFastpathGolden:
    def test_fixture_covers_every_case(self, golden):
        assert sorted(golden) == sorted(
            [f"runs/{case}" for case in CASES] + ["telemetry/committee_weight"]
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_matches_golden(self, case, golden):
        assert run_payload(_simulate(case)) == golden[f"runs/{case}"]

    def test_committee_histogram_matches_golden(self, golden):
        assert committee_histogram() == golden["telemetry/committee_weight"]


class TestCasesReachTheirBranches:
    """Each case still exercises the behaviour it was chosen for."""

    def test_exhaust_runs_every_step(self):
        config = CASES["exhaust"][0]
        records = _simulate("exhaust").metrics.records
        assert any(r.steps_used == config.total_step_count() for r in records)

    @pytest.mark.parametrize("case", ["drops", "slow_network"])
    def test_nodes_disagree_within_a_round(self, case):
        records = _simulate(case).metrics.records
        assert any(
            sum(1 for n in (r.n_final, r.n_tentative, r.n_none) if n) > 1
            for r in records
        )

    def test_equivocators_fork_proposals(self):
        config, rounds, _, transactions = CASES["malicious"]
        simulation = FastSimulation(config, transaction_source=transactions)
        senders = []
        propose = simulation._propose

        def recording_propose(*args):
            proposals = propose(*args)
            senders.append([p.sender for p in proposals])
            return proposals

        simulation._propose = recording_propose
        simulation.run(rounds)
        assert any(len(set(batch)) < len(batch) for batch in senders)

    def test_rewards_compound_into_stakes(self):
        simulation = _simulate("compounding_rewards")
        assert sum(simulation.rewards_received) > 0
        assert simulation.total_stake() > sum(
            FastSimulation(CASES["compounding_rewards"][0]).stakes
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_fastpath_golden.py --write")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
