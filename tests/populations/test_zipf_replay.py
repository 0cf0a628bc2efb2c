"""The zipf family's array replay equals numpy's ``Generator.zipf``.

:func:`repro.populations.generators.zipf_draws` re-runs numpy's
``random_zipf`` rejection loop with array operations.  These tests hold
it to the installed numpy's ``Generator.zipf``: the same values, and the
bit generator left in the same state (so a consumer that keeps drawing
from the rng sees the same stream), plus the libm ``pow`` re-run that
settles trials next to a decision boundary.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.populations import PopulationSpec, generators
from repro.populations.generators import _ZipfLoop, zipf_draws
from repro.scenarios.dynamics import run_scenario
from repro.scenarios.registry import get_scenario

SRC = Path(__file__).resolve().parents[2] / "src"

#: Failures name the numpy release whose ``Generator.zipf`` was the oracle.
ORACLE = f"against numpy {np.__version__}'s Generator.zipf"

BIT_GENERATORS = {
    "PCG64": np.random.PCG64,
    "MT19937": np.random.MT19937,
    "Philox": np.random.Philox,
    "SFC64": np.random.SFC64,
}


def _oracle(rng: np.random.Generator, exponent: float, size: int) -> np.ndarray:
    return rng.zipf(exponent, size).astype(np.float64)


def _state(rng: np.random.Generator):
    """The bit generator's state, arrays as lists so that ``==`` compares it."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


def _twin_generators(bit_generator: str, seed: int, buffered: bool):
    """Two generators in the same state, optionally holding a buffered uint32."""
    pair = []
    for _ in range(2):
        rng = np.random.Generator(BIT_GENERATORS[bit_generator](seed))
        if buffered:
            rng.integers(0, 2**32, dtype=np.uint32)
        pair.append(rng)
    return pair


def _scalar_trial(exponent: float, u01: float, v: float):
    """One trial of numpy's C loop in plain floats and libm ``pow``."""
    am1 = exponent - 1.0
    b = math.pow(2.0, am1)
    umin = math.pow(float(2**63), -am1)
    u = u01 * umin + (1 - u01)
    x = float(math.floor(math.pow(u, -1.0 / am1)))
    if x > 2.0**63 or x < 1.0:
        return x, False
    t = math.pow(1.0 + 1.0 / x, am1)
    return x, v * x * (t - 1.0) / (b - 1.0) <= t / b


@pytest.fixture
def reruns(monkeypatch):
    """The ``(U01, V)`` pairs re-run with libm ``pow``."""
    pairs = []
    evaluate = _ZipfLoop.evaluate

    def recorded(self, u01, v, power=np.power):
        if power is not np.power:
            pairs.extend(zip(u01.tolist(), v.tolist()))
        return evaluate(self, u01, v, power)

    monkeypatch.setattr(_ZipfLoop, "evaluate", recorded)
    return pairs


@given(
    exponent=st.one_of(
        st.floats(1.01, 8.0, allow_nan=False),
        st.sampled_from([1.01, 1.9, 1024.9, 1025.0, 2000.0]),
    ),
    size=st.one_of(
        st.sampled_from([0, 1, 2, 8192, 100_000]),
        st.integers(0, 2000).map(lambda n: 2 * n + 1),
    ),
    seed=st.integers(0, 2**32 - 1),
    bit_generator=st.sampled_from(sorted(BIT_GENERATORS)),
    buffered=st.booleans(),
)
@example(exponent=1.9, size=8192, seed=2021, bit_generator="PCG64", buffered=False)
@example(exponent=1.01, size=100_000, seed=3, bit_generator="PCG64", buffered=True)
@example(exponent=8.0, size=100_000, seed=4, bit_generator="MT19937", buffered=True)
@example(exponent=1024.9, size=8191, seed=5, bit_generator="Philox", buffered=False)
@example(exponent=1025.0, size=8192, seed=6, bit_generator="SFC64", buffered=True)
def test_replay_equals_generator_zipf(exponent, size, seed, bit_generator, buffered):
    expected_rng, replay_rng = _twin_generators(bit_generator, seed, buffered)
    expected = _oracle(expected_rng, exponent, size)
    got = zipf_draws(replay_rng, exponent, size)
    assert got.dtype == np.float64 and got.shape == (size,)
    np.testing.assert_array_equal(got, expected, err_msg=ORACLE)
    assert _state(replay_rng) == _state(expected_rng), ORACLE
    # The next draws, buffered uint32 included, come out the same.
    assert replay_rng.integers(0, 2**32, 3, dtype=np.uint32).tolist() == (
        expected_rng.integers(0, 2**32, 3, dtype=np.uint32).tolist()
    )


@pytest.mark.parametrize("exponent", [1025.0, 4096.0])
def test_large_exponent_shortcut_reads_nothing(exponent):
    rng = np.random.default_rng(5)
    before = _state(rng)
    np.testing.assert_array_equal(zipf_draws(rng, exponent, 9), np.ones(9))
    assert _state(rng) == before


@pytest.mark.parametrize("exponent", [1.01, 1.05])
def test_libm_rerun_runs_and_agrees(exponent, reruns):
    """Near 1, many candidates are >= 2**40: every one is re-run in libm."""
    expected_rng, replay_rng = _twin_generators("PCG64", 2021, False)
    got = zipf_draws(replay_rng, exponent, 8192)
    assert len(reruns) > 1000
    assert got.max() >= 2.0**40
    np.testing.assert_array_equal(
        got, _oracle(expected_rng, exponent, 8192), err_msg=ORACLE
    )
    assert _state(replay_rng) == _state(expected_rng), ORACLE


def test_crafted_boundary_pairs_are_rerun_in_libm(reruns):
    """Pairs sitting on a floor step or on the acceptance threshold.

    At exponent 2 (``am1 = 1``, ``b = 2``), ``U01 = 0.75`` gives ``U =
    0.25`` and a candidate ``pow(U, -1) = 4.0`` exactly on a floor step;
    then ``T = 1.25`` and the acceptance test reads ``V <= 0.625``.
    ``U01 = 0.6`` gives ``pow(0.4, -1) = 2.5``, far from a floor step:
    ``X = 2``, ``T = 1.5`` and the test reads ``V <= 0.75``, so only
    the acceptance guard can flag its pairs.
    """
    loop = _ZipfLoop(2.0)
    pairs = [
        (0.75, 0.625),  # on the floor step and on the threshold: accept
        (0.75, math.nextafter(0.625, 1.0)),  # one ulp above: reject
        (0.75, math.nextafter(0.625, 0.0)),  # one ulp below: accept
        (0.6, 0.75),  # on the acceptance threshold only: accept
        (0.6, math.nextafter(0.75, 1.0)),  # one ulp above it: reject
        (0.6, 0.1),  # far from both boundaries: accept
    ]
    doubles = np.array([value for pair in pairs for value in pair])
    x, accepted = loop.trials(doubles)
    assert reruns == pairs[:5]
    assert accepted.tolist() == [True, False, True, True, False, True]
    assert x[accepted].tolist() == [4.0, 4.0, 2.0, 2.0]
    for index, (u01, v) in enumerate(pairs):
        want_x, want_accepted = _scalar_trial(2.0, u01, v)
        assert accepted[index] == want_accepted
        if want_accepted:
            assert x[index] == want_x


def test_population_block_equals_generator_zipf():
    """One audit-sized seed block: stakes are ``scale * Generator.zipf``."""
    spec = PopulationSpec(
        family="zipf", size=10_000, params={"exponent": 1.9, "scale": 3.0}, seed=2021
    )
    for index in range(spec.n_blocks):
        start, stop = spec.block_bounds(index)
        expected = _oracle(spec.block_rng(index, "stake"), 1.9, stop - start) * 3.0
        np.testing.assert_array_equal(spec.block(index).stake, expected)


def test_shared_rng_scenario_stream_unchanged(monkeypatch):
    """A scenario that keeps drawing from the rng after each zipf call.

    Churn resamples zipf stakes between a ``choice`` and the next epoch's
    drift draws, all on one generator; the trajectory must equal the one
    ``Generator.zipf`` gives.
    """
    spec = get_scenario("heavytail-zipf").with_overrides(
        n_epochs=4, churn_rate=0.25, stake_drift=0.05
    )
    replayed = run_scenario(spec, "role_based", seed=7).to_payload()
    monkeypatch.setattr(generators, "zipf_draws", _oracle)
    expected = run_scenario(spec, "role_based", seed=7).to_payload()
    assert replayed == expected


def test_src_calls_no_generator_zipf():
    """``Generator.zipf`` is the test oracle only; ``src/`` runs the replay."""
    callers = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "zipf"
    ]
    assert callers == []
