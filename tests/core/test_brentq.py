"""The optimizer's Brent root solve vs ``scipy.optimize.brentq``, bit for bit.

``core.optimizer._brentq`` ports scipy's ``brentq.c`` step for step so the
runtime needs no scipy.  Every root is compared as its ``uint64`` bit
pattern, under the calibration's tolerances and under scipy's defaults,
over three function families: the Algorithm 1 slack the calibration
actually solves, ``K/x - 1`` and a monotone cubic.  The error paths
(same-sign bracket, ``nan``, too few iterations) must raise where scipy
raises, with scipy's exception types.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import optimize

from repro.core import optimizer
from repro.core.bounds import RoleAggregates
from repro.core.costs import RoleCosts
from repro.core.optimizer import _brentq, minimize_reward_analytic

#: The calibration's tolerances and scipy's defaults.
CALIBRATION = (1e-15, 1e-14)
SCIPY_DEFAULTS = (2e-12, 4 * np.finfo(float).eps)
TOLERANCES = pytest.mark.parametrize("xtol, rtol", [CALIBRATION, SCIPY_DEFAULTS])

#: Six cost scales around the paper's micro-Algo costs.
COST_SCALES = (1e-3, 0.1, 1.0, 7.5, 1e3, 1e6)


def bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def outcome(solve, f, a, b, xtol, rtol, maxiter=100):
    """The root's bits, or the type of the error the solve raised."""
    try:
        return bits(solve(f, a, b, xtol, rtol, maxiter))
    except (ValueError, RuntimeError) as error:
        return type(error)


def scipy_solver(f, a, b, xtol, rtol, maxiter=100):
    return optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)


def assert_same_root(f, a, b, xtol, rtol, maxiter=100):
    """The port and scipy agree: the same bits, or the same error."""
    ours = outcome(_brentq, f, a, b, xtol, rtol, maxiter)
    assert ours == outcome(scipy_solver, f, a, b, xtol, rtol, maxiter)
    return ours


@st.composite
def role_aggregates(draw) -> RoleAggregates:
    """Valid aggregates spanning many orders of magnitude."""
    fraction = st.floats(min_value=1e-4, max_value=1.0)
    stake_leaders = draw(st.floats(min_value=1.0, max_value=1e3))
    stake_committee = draw(st.floats(min_value=10.0, max_value=1e5))
    stake_others = draw(st.floats(min_value=1e3, max_value=1e10))
    return RoleAggregates(
        stake_leaders=stake_leaders,
        stake_committee=stake_committee,
        stake_others=stake_others,
        min_leader=stake_leaders * draw(fraction),
        min_committee=stake_committee * draw(fraction),
        min_other=min(stake_others, draw(st.floats(min_value=0.1, max_value=1e3))),
    )


def scaled_costs(scale: float) -> RoleCosts:
    paper = RoleCosts.paper_defaults()
    return RoleCosts(
        leader=paper.leader * scale,
        committee=paper.committee * scale,
        online=paper.online * scale,
        sortition=paper.sortition * scale,
    )


def calibration_solve(costs: RoleCosts, aggregates: RoleAggregates, solver):
    """The split, plus the slack and bracket the calibration hands ``solver``."""
    calls = []

    def spy(f, a, b, xtol, rtol):
        calls.append((f, a, b))
        return solver(f, a, b, xtol, rtol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_brentq", spy)
        split = minimize_reward_analytic(costs, aggregates)
    ((f, a, b),) = calls
    return split, f, a, b


class TestCalibrationSlack:
    @given(aggregates=role_aggregates(), scale=st.sampled_from(COST_SCALES))
    def test_slack_roots_match_scipy(self, aggregates, scale):
        costs = scaled_costs(scale)
        _split, slack, lo, hi = calibration_solve(costs, aggregates, _brentq)
        for xtol, rtol in (CALIBRATION, SCIPY_DEFAULTS):
            assert isinstance(assert_same_root(slack, lo, hi, xtol, rtol), int)

    @given(aggregates=role_aggregates(), scale=st.sampled_from(COST_SCALES))
    def test_split_matches_the_scipy_solve(self, aggregates, scale):
        costs = scaled_costs(scale)
        ours = minimize_reward_analytic(costs, aggregates)
        theirs, *_ = calibration_solve(costs, aggregates, scipy_solver)
        for field in ("alpha", "beta", "b_i"):
            assert bits(getattr(ours, field)) == bits(getattr(theirs, field))

    def test_paper_instance_matches_scipy(self):
        aggregates = RoleAggregates(
            stake_leaders=26.0,
            stake_committee=13_000.0,
            stake_others=20_000_000.0 - 13_026.0,
            min_leader=1.0,
            min_committee=1.0,
            min_other=10.0,
        )
        _split, slack, lo, hi = calibration_solve(
            RoleCosts.paper_defaults(), aggregates, _brentq
        )
        assert isinstance(assert_same_root(slack, lo, hi, *CALIBRATION), int)


class TestOtherFamilies:
    @TOLERANCES
    @given(
        k=st.floats(min_value=1e-6, max_value=1e9),
        below=st.floats(min_value=1e-3, max_value=1.0),
        above=st.floats(min_value=1.0, max_value=1e3),
    )
    def test_reciprocal(self, xtol, rtol, k, below, above):
        assert_same_root(lambda x: k / x - 1.0, k * below, k * above, xtol, rtol)

    @TOLERANCES
    @given(
        root=st.floats(min_value=-1e3, max_value=1e3),
        slope=st.floats(min_value=0.0, max_value=1e3),
        left=st.floats(min_value=1e-3, max_value=1e3),
        right=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_monotone_cubic(self, xtol, rtol, root, slope, left, right):
        def cubic(x):
            return (x - root) ** 3 + slope * (x - root)

        assert_same_root(cubic, root - left, root + right, xtol, rtol)


class TestErrorPaths:
    @TOLERANCES
    def test_same_sign_bracket(self, xtol, rtol):
        for solve in (_brentq, scipy_solver):
            with pytest.raises(ValueError):
                solve(lambda x: x * x + 1.0, -1.0, 1.0, xtol, rtol)

    @TOLERANCES
    @pytest.mark.parametrize(
        "f",
        [
            lambda x: math.nan,
            lambda x: x - 0.5 if x < 0.9 else math.nan,
            lambda x: x**3 - 0.2 if not 0.3 < x < 0.9 else math.nan,
        ],
        ids=["at-a", "at-b", "mid-solve"],
    )
    def test_nan_value(self, xtol, rtol, f):
        for solve in (_brentq, scipy_solver):
            with pytest.raises(ValueError, match="NaN"):
                solve(f, 0.0, 1.0, xtol, rtol)

    @TOLERANCES
    @pytest.mark.parametrize("maxiter", range(1, 16))
    def test_iteration_cap(self, xtol, rtol, maxiter):
        """Below 12 iterations both give up; from 12 on both find the same bits."""
        result = assert_same_root(lambda x: x**3 - 2.0, 0.0, 5.0, xtol, rtol, maxiter)
        assert result is RuntimeError if maxiter < 12 else isinstance(result, int)
