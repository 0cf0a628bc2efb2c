"""Property tests: the dense selects equal the ``np.where`` selects they replaced.

The streamed passes select per agent on random masks (synchrony is a
Bernoulli draw, cooperation follows it), where ``np.where`` mispredicts
about every other element.  The kernels use dense forms instead — mask
products, bool algebra and table lookups — that give the same bits for
the finite, non-negative stakes and costs
:class:`~repro.populations.spec.PopulationSpec` validation guarantees.
Each form is held to its ``np.where`` original here, compared under
``==`` on the ``uint64`` view (so ``-0.0`` against ``+0.0``, or one
``nan`` payload against another, would fail):

* ``Agents.current_cost`` / ``switch_cost`` (``a * m + b * ~m``);
* the ``nan_unless_*`` marks (a two-entry table taken by ``coop``);
* the measure pass's class products (``x * mask``) for every pool
  weight kind;
* the theorem-3 target actions (``logical_not(sync)`` as int8);
* the realized profile (``(u < t_sync) & sync | (u < t_non) & ~sync``),
  through the driver's own ``_realize``.

Masks and costs are drawn with hypothesis, with zero role costs,
jittered cost multipliers and thresholds of 0 and 1 among them.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import RoleCosts
from repro.populations import PopulationSpec
from repro.populations.arrays import PopulationArrays
from repro.populations.threads import Lane
from repro.scenarios.population_dynamics import _REALIZE_COLUMN, _realize
from repro.schemes.deviation import ONLINE, Agents, role_costs
from repro.schemes.population_audit import PopulationAuditConfig, _online_actions


def bits(values: np.ndarray) -> np.ndarray:
    """The ``uint64`` view of a float64 array."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


@st.composite
def batches(draw):
    """A batch's cooperation mask, roles and cost columns.

    Role costs may be zero (they keep the ``c_so <= c_K <= c_M <= c_L``
    order); cost multipliers are positive and jittered over several
    decades; cooperation is a random mask.
    """
    n = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cost = st.sampled_from([0.0]) | st.floats(min_value=0.0, max_value=50.0)
    sortition, online, committee, leader = sorted(draw(cost) for _ in range(4))
    costs = RoleCosts(
        leader=leader, committee=committee, online=online, sortition=sortition
    )
    jitter = draw(st.sampled_from([0.0, 0.1, 1.0, 3.0]))
    multiplier = np.exp(rng.normal(-jitter**2 / 2, jitter, n))
    roles = rng.choice(np.array([0, 1, 2, 2, 2, 2], dtype=np.int8), n)
    coop = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    return Agents(
        stake=rng.pareto(1.5, n) + 1.0,
        roles=roles,
        selected_rows=np.flatnonzero(roles != ONLINE),
        coop=coop,
        action=(~coop).astype(np.int8),
        coop_cost=role_costs(costs).take(roles) * multiplier,
        sortition_cost=costs.sortition * multiplier,
    )


@settings(max_examples=80, deadline=None)
@given(agents=batches())
def test_cost_selects_equal_where(agents):
    coop = agents.coop
    assert (
        bits(agents.current_cost)
        == bits(np.where(coop, agents.coop_cost, agents.sortition_cost))
    ).all()
    assert (
        bits(agents.switch_cost)
        == bits(np.where(coop, agents.sortition_cost, agents.coop_cost))
    ).all()


@settings(max_examples=80, deadline=None)
@given(agents=batches())
def test_nan_marks_equal_where(agents):
    coop = agents.coop
    assert (bits(agents.nan_unless_defect) == bits(np.where(coop, np.nan, 0.0))).all()
    assert (bits(agents.nan_unless_coop) == bits(np.where(coop, 0.0, np.nan))).all()


@settings(max_examples=80, deadline=None)
@given(agents=batches(), exponent=st.sampled_from([0.5, 1.0, 2.0]))
def test_class_products_equal_where(agents, exponent):
    """Pool weights of every kind (stake, equal, stake power, cost) and the
    cost columns, split by class the way the measure pass splits them."""
    columns = (
        agents.stake,
        np.ones(agents.n),
        agents.stake**exponent,
        agents.coop_cost,
        agents.sortition_cost,
    )
    for x in columns:
        assert (bits(x * agents.coop) == bits(np.where(agents.coop, x, 0.0))).all()
        assert (bits(x * agents.action) == bits(np.where(~agents.coop, x, 0.0))).all()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_theorem3_actions_equal_where(n, seed):
    sync = np.random.default_rng(seed).random(n) < 0.5
    chunk = PopulationArrays(np.ones(n), np.ones(n), np.zeros(n, dtype=np.int8))
    actions = _online_actions(PopulationAuditConfig(target="theorem3"), chunk, sync)
    assert actions.dtype == np.int8
    assert actions.tobytes() == np.where(sync, 0, 1).astype(np.int8).tobytes()


THRESHOLDS = st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=3 * 8192),
    seed=st.integers(min_value=0, max_value=2**16),
    t_non=THRESHOLDS,
    t_sync=THRESHOLDS,
    epoch=st.integers(min_value=0, max_value=3),
)
def test_realized_profile_equals_where(size, seed, t_non, t_sync, epoch):
    """``_realize`` writes ``u < where(sync, t_sync, t_non)``, selected pinned."""
    population = PopulationSpec("uniform", size, seed=seed)
    rng = np.random.default_rng(seed)
    selected = np.unique(rng.integers(0, size, min(size, 5)))
    sel_action = rng.integers(0, 2, selected.size).astype(np.int8)
    engine = SimpleNamespace(
        spec=SimpleNamespace(population=population),
        structure=SimpleNamespace(selected_index=selected),
        sync=rng.random(size) < 0.5,
        profile=np.full(size, 7, dtype=np.int8),  # stale bytes are overwritten
    )
    chunk = PopulationArrays(np.ones(size), np.ones(size), np.zeros(size, dtype=np.int8))
    _realize(engine, chunk, epoch, (t_non, t_sync), sel_action, Lane())

    uniforms = population.chunk_draws(
        0, size, f"{_REALIZE_COLUMN}.{epoch}", lambda rng, n: rng.random(n)
    )
    expected = (uniforms < np.where(engine.sync, t_sync, t_non)).astype(np.int8)
    expected[selected] = sel_action
    assert engine.profile.tobytes() == expected.tobytes()
