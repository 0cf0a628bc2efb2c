"""Declarative scenario specifications for strategic participation dynamics.

A :class:`ScenarioSpec` describes one *scenario family*: a stake
population, an initial behaviour mix, a strategy-update rule, and optional
stake churn and adversary ingredients.  Specs are plain frozen dataclasses
of JSON-representable fields, so a scenario can travel through the sweep
orchestrator's content-addressed shard cache unchanged — the same property
the fig3–fig7 campaigns rely on.

The spec layer is purely declarative; :mod:`repro.scenarios.dynamics`
interprets a spec as an iterated game and
:mod:`repro.scenarios.experiment` turns collections of specs into
orchestrated campaigns.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.config import check_backend
from repro.stakes import distributions


class UpdateRule(str, Enum):
    """How the population revises strategies between epochs."""

    BEST_RESPONSE = "best_response"
    REPLICATOR = "replicator"


class AdversaryPolicy(str, Enum):
    """What adversary-controlled players do each epoch."""

    NONE = "none"
    #: Evaluate candidate coalition moves and play the one minimizing the
    #: honest-but-selfish players' total payoff.
    GREEDY_HARM = "greedy_harm"


class DefectionSeeding(str, Enum):
    """Where the initial defectors are drawn from."""

    #: Defection starts in the gamma pool K \\ Y — the paper's narrative:
    #: Lemma 1 / Theorem 2 make the online pool the first profitable place
    #: to shirk, so erosion begins there and spreads (or doesn't).
    ONLINE_POOL = "online_pool"
    #: Defectors drawn uniformly from the whole population, synchrony set
    #: included — probes the cooperative profile's basin of attraction.
    ANYWHERE = "anywhere"


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario family, fully declarative.

    Parameters
    ----------
    name / description:
        Registry identity and a one-line story.
    n_players / n_epochs / steps_per_epoch:
        Strategic population size, iterated-game horizon, and number of
        synchronous revision opportunities per epoch.
    update_rule / revision_rate:
        Best-response (inertial, ``revision_rate`` of players revise per
        step) or replicator dynamics (population-share update).
    initial_cooperation / seed_defection_in:
        Starting behaviour mix and where the initial defectors sit.
    stake_kind & stake parameters:
        ``uniform`` U(low, high), ``normal`` N(mean, std) truncated at 1,
        or ``whale_mix`` — a U(low, high) crowd with ``whale_fraction`` of
        players drawn from N(whale_mean, whale_std).
    population / population_params:
        A stake population *by reference*: the name and parameters of a
        generator family registered in :mod:`repro.populations.generators`
        (``zipf``, ``pareto``, ``lognormal``, ``exchange_snapshot``, ...).
        When set, it overrides ``stake_kind``; only the name and the
        plain-data parameters travel through sweep shards and cache keys —
        the population itself is never materialized into the spec.  Note
        that for ``exchange_snapshot`` the cache key therefore covers the
        snapshot *path string*, not the file's content: regenerating a
        snapshot in place can reuse stale cached shards, so version
        snapshot filenames (or clear the shard cache) when refreshing.
    n_leaders / committee_fraction / synchrony_fraction / committee_quorum:
        Round-game structure: leader count, committee size as a fraction
        of the population, strong-synchrony-set size as a fraction of the
        online pool, and the vote-count quorum.
    churn_rate / stake_drift:
        Per-epoch stake churn: ``churn_rate`` of stakes are resampled from
        the scenario distribution, and every stake takes a mean-preserving
        lognormal step of volatility ``stake_drift``.
    adversary_fraction / adversary_policy:
        Fraction of players controlled by an adaptive adversary and the
        policy it plays (adversary players never best-respond).
    alpha / beta:
        Role-based reward split.  ``None`` (the default) calibrates the
        split per scenario with Algorithm 1's analytic optimizer.
    reward_headroom:
        ``B_i`` is set to ``reward_headroom`` times the Theorem 3 bound of
        the epoch-0 game, for both schemes — an equal-budget comparison.
    replicator_intensity / replicator_mutation:
        Selection intensity and trembling rate of the replicator update.
    simulate_rounds:
        When positive, each epoch additionally runs this many rounds of
        the protocol simulator with the epoch's exact behaviour vector,
        recording the realized finalization fraction.
    sim_backend:
        The engine that realizes those per-epoch rounds; only ``"fast"``,
        the vectorized kernel of :mod:`repro.sim.fastpath`, is accepted.
        It stays a field because campaign shard keys carry it.
    expect_separation:
        Whether the paper's headline separation (naive unravels,
        role-based stabilizes) is expected to show — collapse/adversary
        scenarios legitimately break it, and the convergence checks skip
        them.
    """

    name: str
    description: str
    n_players: int = 48
    n_epochs: int = 16
    steps_per_epoch: int = 2
    update_rule: UpdateRule = UpdateRule.BEST_RESPONSE
    revision_rate: float = 0.5
    initial_cooperation: float = 0.9
    seed_defection_in: DefectionSeeding = DefectionSeeding.ONLINE_POOL
    stake_kind: str = "uniform"
    population: Optional[str] = None
    population_params: Optional[Dict[str, Any]] = None
    stake_low: float = 1.0
    stake_high: float = 50.0
    stake_mean: float = 100.0
    stake_std: float = 10.0
    whale_fraction: float = 0.0
    whale_mean: float = 2000.0
    whale_std: float = 25.0
    n_leaders: int = 3
    committee_fraction: float = 0.3
    synchrony_fraction: float = 0.5
    committee_quorum: float = 0.685
    churn_rate: float = 0.0
    stake_drift: float = 0.0
    adversary_fraction: float = 0.0
    adversary_policy: AdversaryPolicy = AdversaryPolicy.NONE
    alpha: Optional[float] = None
    beta: Optional[float] = None
    reward_headroom: float = 1.5
    replicator_intensity: float = 4.0
    replicator_mutation: float = 0.0
    simulate_rounds: int = 0
    sim_backend: str = "fast"
    expect_separation: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if self.n_players < 8:
            raise ConfigurationError(
                f"scenario needs at least 8 players, got {self.n_players}"
            )
        if self.n_epochs < 1 or self.steps_per_epoch < 1:
            raise ConfigurationError("n_epochs and steps_per_epoch must be >= 1")
        if not 0.0 < self.revision_rate <= 1.0:
            raise ConfigurationError(
                f"revision rate must be in (0, 1], got {self.revision_rate}"
            )
        if not 0.0 <= self.initial_cooperation <= 1.0:
            raise ConfigurationError(
                f"initial cooperation must be in [0, 1], got {self.initial_cooperation}"
            )
        if self.stake_kind not in ("uniform", "normal", "whale_mix"):
            raise ConfigurationError(f"unknown stake kind {self.stake_kind!r}")
        if self.population_params is not None and self.population is None:
            raise ConfigurationError(
                "population_params requires a population family name"
            )
        if self.population is not None:
            # Eager validation: resolving the family binds and validates
            # the parameters, so a bad reference fails at spec
            # construction rather than mid-campaign in a worker process.
            from repro.populations.generators import resolve_sampler

            resolve_sampler(self.population, self.population_params or {})
        for name in ("whale_fraction", "adversary_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 0.5:
                raise ConfigurationError(f"{name} must be in [0, 0.5], got {value}")
        if self.n_leaders < 1:
            raise ConfigurationError("need at least one leader")
        if not 0.0 < self.committee_fraction < 1.0:
            raise ConfigurationError("committee fraction must be in (0, 1)")
        if not 0.0 < self.synchrony_fraction <= 1.0:
            raise ConfigurationError("synchrony fraction must be in (0, 1]")
        if not 0.0 < self.committee_quorum < 1.0:
            raise ConfigurationError(
                f"committee quorum must be in (0, 1), got {self.committee_quorum}"
            )
        if self.n_leaders + self.committee_size() + 2 > self.n_players:
            raise ConfigurationError(
                f"{self.n_players} players cannot host {self.n_leaders} leaders "
                f"and a committee of {self.committee_size()}"
            )
        if not 0.0 <= self.churn_rate <= 1.0 or self.stake_drift < 0:
            raise ConfigurationError("invalid churn parameters")
        if (self.alpha is None) != (self.beta is None):
            raise ConfigurationError("alpha and beta must be set (or left None) together")
        if self.reward_headroom <= 1.0:
            raise ConfigurationError(
                f"reward headroom must exceed 1 (strictly above the bound), "
                f"got {self.reward_headroom}"
            )
        if self.simulate_rounds < 0:
            raise ConfigurationError("simulate_rounds must be >= 0")
        check_backend("sim_backend", self.sim_backend)
        if self.adversary_fraction > 0 and self.adversary_policy is AdversaryPolicy.NONE:
            raise ConfigurationError(
                "adversary_fraction > 0 requires an adversary policy"
            )

    # -- derived structure ---------------------------------------------------

    def committee_size(self) -> int:
        """Committee size implied by ``committee_fraction`` (minimum 2)."""
        return max(2, round(self.committee_fraction * self.n_players))

    def synchrony_size(self, n_online: int) -> int:
        """Strong-synchrony set size for ``n_online`` online players."""
        return max(1, math.ceil(self.synchrony_fraction * n_online))

    def n_adversaries(self) -> int:
        """Number of adversary-controlled players implied by the fraction."""
        return round(self.adversary_fraction * self.n_players)

    # -- stake population ----------------------------------------------------

    def stake_distribution(self) -> distributions.StakeDistribution:
        """The scenario's stake generator, built on the stakes catalog.

        A ``population`` reference resolves through the
        :mod:`repro.populations.generators` registry and takes precedence
        over ``stake_kind``.
        """
        if self.population is not None:
            from repro.populations.generators import get_family

            family = get_family(self.population)
            params = self.population_params or {}
            rendered = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
            return distributions.StakeDistribution(
                name=f"{self.population}({rendered})",
                sampler=family.sampler(params),
                description=family.description,
            )
        if self.stake_kind == "uniform":
            return distributions.uniform(self.stake_low, self.stake_high)
        if self.stake_kind == "normal":
            return distributions.truncated_normal(self.stake_mean, self.stake_std)
        base = distributions.uniform(self.stake_low, self.stake_high)
        whale = distributions.truncated_normal(self.whale_mean, self.whale_std)

        def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
            n_whales = round(self.whale_fraction * size)
            stakes = base.sampler(rng, size)
            if n_whales:
                positions = rng.choice(size, n_whales, replace=False)
                stakes[positions] = whale.sampler(rng, n_whales)
            return stakes

        return distributions.StakeDistribution(
            name=f"whale_mix({self.whale_fraction:g})",
            sampler=sampler,
            description=(
                f"{base.name} crowd with {self.whale_fraction:.0%} of players "
                f"holding {whale.name} whale stakes"
            ),
        )

    def sample_stakes(self, rng: np.random.Generator) -> np.ndarray:
        """Draw the scenario's stake vector (clamped strictly positive)."""
        stakes = np.asarray(
            self.stake_distribution().sampler(rng, self.n_players), dtype=float
        )
        return np.maximum(stakes, 1e-9)

    # -- convenience ---------------------------------------------------------

    def with_overrides(self, **overrides: object) -> "ScenarioSpec":
        """Copy of this spec with fields replaced (re-validated)."""
        return replace(self, **overrides)

    # -- sweep-parameter form ------------------------------------------------

    def to_params(self) -> Dict[str, Any]:
        """The spec as plain JSON data — the form shards carry it in.

        Sweeping the *contents* (not just the name) gives two guarantees:
        the orchestrator's content-addressed cache key covers every spec
        field, so editing or re-registering a scenario can never reuse a
        stale cached trajectory; and worker processes reconstruct the spec
        from the parameters alone, so user-registered scenarios work under
        any ``multiprocessing`` start method (spawn included).
        """
        params = asdict(self)
        for key, value in params.items():
            if isinstance(value, Enum):
                params[key] = value.value
        return params

    @staticmethod
    def from_params(params: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_params` output (re-validated)."""
        fields = dict(params)
        fields["update_rule"] = UpdateRule(fields["update_rule"])
        fields["adversary_policy"] = AdversaryPolicy(fields["adversary_policy"])
        fields["seed_defection_in"] = DefectionSeeding(fields["seed_defection_in"])
        return ScenarioSpec(**fields)
