"""Minimizing the per-round reward over the split (Algorithm 1, line 12).

Algorithm 1 asks for the ``(alpha, beta)`` that minimizes ``B_i`` subject
to the three Theorem 3 bounds.  This module offers two solvers:

* :func:`minimize_reward_grid` — the paper's approach: evaluate the bound
  surface on an ``(alpha, beta)`` grid and take the argmin.  This also
  yields the Figure 5 surface.
* :func:`minimize_reward_analytic` — an exact solver.  At the optimum all
  three bounds coincide: for a candidate reward ``B`` the smallest
  feasible slices are

      alpha_min(B) = S_L * (gamma/(S_K + s*_l) + (c_L - c_so)/(B * s*_l)),
      beta_min(B)  = S_M * (gamma/(S_K + s*_m) + (c_M - c_so)/(B * s*_m)),

  with ``gamma = C_K / B`` pinned by the online bound
  (``C_K = (c_K - c_so) * S_K / s*_k``).  The slack function
  ``g(B) = alpha_min + beta_min + gamma`` is strictly decreasing in ``B``,
  so the minimal feasible reward is the unique root of ``g(B) = 1``,
  found with Brent's method.

The root solve is :func:`_brentq`, a step-for-step port of scipy's
``brentq.c`` (same iterates, same stop, same errors), so the runtime needs
numpy only; the test suite holds it to ``scipy.optimize.brentq`` bit for
bit and keeps a Nelder-Mead cross-check of the whole minimization.

The paper's own numbers are consistent with the grid approach: with the
Section V-A parameters the grid argmin lands at ``(alpha, beta) =
(0.02, 0.03)`` with ``B_i ≈ 5.2`` Algos, while the analytic optimum pushes
``alpha, beta`` much lower still (the third bound dominates, exactly as the
paper's discussion of Figure 5 observes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import RoleAggregates, minimum_feasible_reward, reward_bounds
from repro.core.costs import RoleCosts
from repro.errors import InfeasibleRewardError


@dataclass(frozen=True)
class OptimalSplit:
    """The solution of Algorithm 1's minimization."""

    alpha: float
    beta: float
    b_i: float
    method: str

    @property
    def gamma(self) -> float:
        """The residual online-pool share ``1 - alpha - beta``."""
        return 1.0 - self.alpha - self.beta


@dataclass(frozen=True)
class GridSearchResult:
    """Full surface + argmin of a grid sweep (the Figure 5 artifact)."""

    alphas: np.ndarray
    betas: np.ndarray
    surface: np.ndarray  # shape (len(alphas), len(betas)); inf = infeasible
    best: OptimalSplit

    def surface_rows(self) -> Sequence[Tuple[float, float, float]]:
        """Flatten to (alpha, beta, min B_i) rows for CSV export."""
        rows = []
        for i, alpha in enumerate(self.alphas):
            for j, beta in enumerate(self.betas):
                rows.append((float(alpha), float(beta), float(self.surface[i, j])))
        return rows


def default_alpha_grid() -> np.ndarray:
    """The Figure 5 alpha axis: 0.02 to 0.30 in steps of 0.01."""
    return np.round(np.arange(0.02, 0.301, 0.01), 4)


def default_beta_grid() -> np.ndarray:
    """The Figure 5 beta axis: 0.03 to 0.30 in steps of 0.01."""
    return np.round(np.arange(0.03, 0.301, 0.01), 4)


def minimize_reward_grid(
    costs: RoleCosts,
    aggregates: RoleAggregates,
    alphas: Optional[Sequence[float]] = None,
    betas: Optional[Sequence[float]] = None,
) -> GridSearchResult:
    """Sweep the bound surface over an ``(alpha, beta)`` grid (paper Fig. 5)."""
    alpha_axis = np.asarray(alphas if alphas is not None else default_alpha_grid())
    beta_axis = np.asarray(betas if betas is not None else default_beta_grid())
    surface = np.full((len(alpha_axis), len(beta_axis)), math.inf)
    best: Optional[Tuple[float, float, float]] = None
    for i, alpha in enumerate(alpha_axis):
        for j, beta in enumerate(beta_axis):
            if alpha <= 0 or beta <= 0 or alpha + beta >= 1:
                continue
            value = minimum_feasible_reward(costs, aggregates, float(alpha), float(beta))
            surface[i, j] = value
            if math.isfinite(value) and (best is None or value < best[2]):
                best = (float(alpha), float(beta), value)
    if best is None:
        raise InfeasibleRewardError(
            "no grid point satisfies the Lemma 2 feasibility conditions"
        )
    return GridSearchResult(
        alphas=alpha_axis,
        betas=beta_axis,
        surface=surface,
        best=OptimalSplit(alpha=best[0], beta=best[1], b_i=best[2], method="grid"),
    )


def _online_constant(costs: RoleCosts, aggregates: RoleAggregates) -> float:
    """C_K = (c_K - c_so) * S_K / s*_k, the online bound numerator."""
    return (
        (costs.online - costs.sortition)
        * aggregates.stake_others
        / aggregates.min_other
    )


def _alpha_min(
    costs: RoleCosts, aggregates: RoleAggregates, gamma: float, b_i: float
) -> float:
    """Smallest leader slice keeping the leader bound at or below ``b_i``."""
    return aggregates.stake_leaders * (
        gamma / (aggregates.stake_others + aggregates.min_leader)
        + (costs.leader - costs.sortition) / (b_i * aggregates.min_leader)
    )


def _beta_min(
    costs: RoleCosts, aggregates: RoleAggregates, gamma: float, b_i: float
) -> float:
    """Smallest committee slice keeping the committee bound at or below ``b_i``."""
    return aggregates.stake_committee * (
        gamma / (aggregates.stake_others + aggregates.min_committee)
        + (costs.committee - costs.sortition) / (b_i * aggregates.min_committee)
    )


def minimize_reward_analytic(
    costs: RoleCosts,
    aggregates: RoleAggregates,
    gamma_floor: float = 1e-9,
) -> OptimalSplit:
    """Exact minimizer of the Theorem 3 reward bound.

    See the module docstring for the derivation.  ``gamma_floor`` handles
    the degenerate case ``c_K == c_so`` (online nodes need no incentive),
    where the online bound vanishes and gamma shrinks to a token share.
    """
    c_k = _online_constant(costs, aggregates)
    if c_k <= 0:
        return _minimize_without_online_bound(costs, aggregates, gamma_floor)

    def slack(b_i: float) -> float:
        gamma = c_k / b_i
        return _alpha_min(costs, aggregates, gamma, b_i) + _beta_min(
            costs, aggregates, gamma, b_i
        ) + gamma - 1.0

    lo = c_k * (1.0 + 1e-12)
    hi = max(2.0 * c_k, 1e-12)
    for _ in range(200):
        if slack(hi) < 0:
            break
        hi *= 2.0
    else:
        raise InfeasibleRewardError(
            "no finite reward satisfies the Theorem 3 bounds for these aggregates"
        )
    b_star = _brentq(slack, lo, hi, xtol=1e-15, rtol=1e-14)
    gamma = c_k / b_star
    alpha = _alpha_min(costs, aggregates, gamma, b_star)
    beta = _beta_min(costs, aggregates, gamma, b_star)
    return OptimalSplit(alpha=alpha, beta=beta, b_i=b_star, method="analytic")


def _minimize_without_online_bound(
    costs: RoleCosts, aggregates: RoleAggregates, gamma_floor: float
) -> OptimalSplit:
    """Limit case c_K == c_so: split (1 - gamma_floor) to equalize L and M.

    With the online bound gone, ``B_i`` is minimized by vanishing gamma and
    balancing the leader and committee bounds:
    ``(c_L - c_so) S_L / (alpha s*_l) = (c_M - c_so) S_M / (beta s*_m)``.
    """
    weight_l = (costs.leader - costs.sortition) * aggregates.stake_leaders / (
        aggregates.min_leader
    )
    weight_m = (costs.committee - costs.sortition) * aggregates.stake_committee / (
        aggregates.min_committee
    )
    if weight_l <= 0 and weight_m <= 0:
        # All costs degenerate: any token reward works.
        share = (1.0 - gamma_floor) / 2.0
        return OptimalSplit(alpha=share, beta=share, b_i=0.0, method="analytic")
    budget = 1.0 - gamma_floor
    alpha = budget * weight_l / (weight_l + weight_m)
    beta = budget - alpha
    b_i = minimum_feasible_reward(costs, aggregates, alpha, beta)
    return OptimalSplit(alpha=alpha, beta=beta, b_i=b_i, method="analytic")


def _brentq(
    f: Callable[[float], float],
    xa: float,
    xb: float,
    xtol: float,
    rtol: float,
    maxiter: int = 100,
) -> float:
    """A root of ``f`` in the sign-changing bracket ``[xa, xb]`` (Brent).

    Follows scipy's ``brentq.c`` step for step — the same bracket swap,
    inverse-quadratic or secant step, bisection fallback and stop at
    ``|sbis| < (xtol + rtol*|x|)/2`` — so every iterate, and the root, is
    the same double.  As in scipy, a same-sign bracket or a ``nan`` value
    raises ``ValueError`` and ``maxiter`` steps without convergence raise
    ``RuntimeError``.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (
                    -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations")


def verify_split(
    costs: RoleCosts,
    aggregates: RoleAggregates,
    split: OptimalSplit,
    margin: float = 1e-6,
) -> bool:
    """True when ``split.b_i * (1 + margin)`` strictly clears all bounds."""
    bounds = reward_bounds(costs, aggregates, split.alpha, split.beta)
    return split.b_i * (1.0 + margin) > bounds.overall and bounds.feasible
