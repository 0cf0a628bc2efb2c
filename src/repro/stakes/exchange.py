"""The synthetic Algorand exchange (paper Section V-B).

Emulates the live transaction behaviour observed on algoexplorer.io the way
the paper describes it:

    "In each round, we choose randomly 1000 nodes, in which nodes with
    higher stakes would be selected more often.  Note that a node can be
    chosen more than one time in each round.  Then we generate a series of
    random transactions for selected nodes with a uniform distribution
    between -4 to 4.  Negative values represent sending Algos while
    positive values represent receiving Algos."

The simulator applies those stake deltas round by round (guarding a
positive minimum stake) and can also materialize them as
:class:`~repro.sim.blocks.Transaction` objects so the protocol
simulator's blocks carry realistic payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.blocks import Transaction


@dataclass(frozen=True)
class ExchangeRound:
    """Summary of one round of exchange churn."""

    round_index: int
    n_picks: int
    gross_volume: float
    net_drift: float
    min_stake: float
    max_stake: float
    total_stake: float


class ExchangeSimulator:
    """Stake churn driven by stake-weighted random transactions.

    Parameters
    ----------
    stakes:
        Initial stake vector (one entry per node).
    picks_per_round:
        Number of (with-replacement) stake-weighted node selections per
        round; the paper uses 1000.
    delta_low / delta_high:
        Bounds of the per-pick uniform stake delta; the paper uses (-4, 4).
    min_stake:
        Stakes never drop below this (a node cannot send Algos it does not
        have); deltas are clamped accordingly.  Defaults to 1 Algo, the
        stake unit the paper's populations bottom out at.
    seed:
        Reproducibility seed.
    """

    def __init__(
        self,
        stakes: Sequence[float],
        picks_per_round: int = 1000,
        delta_low: float = -4.0,
        delta_high: float = 4.0,
        min_stake: float = 1.0,
        seed: int = 0,
    ) -> None:
        stakes = np.asarray(stakes, dtype=float).copy()
        if stakes.ndim != 1 or stakes.size == 0:
            raise ConfigurationError("stakes must be a non-empty 1-D vector")
        if np.any(stakes <= 0):
            raise ConfigurationError("all initial stakes must be positive")
        if picks_per_round <= 0:
            raise ConfigurationError(
                f"picks_per_round must be positive, got {picks_per_round}"
            )
        if delta_low >= delta_high:
            raise ConfigurationError(
                f"need delta_low < delta_high, got [{delta_low}, {delta_high}]"
            )
        if min_stake <= 0:
            raise ConfigurationError(f"min_stake must be positive, got {min_stake}")
        self._stakes = stakes
        self.picks_per_round = picks_per_round
        self.delta_low = delta_low
        self.delta_high = delta_high
        self.min_stake = min_stake
        self._rng = np.random.default_rng(seed)
        self.round_index = 0
        self.history: List[ExchangeRound] = []

    # -- state access -----------------------------------------------------------

    @property
    def stakes(self) -> np.ndarray:
        """Current stake vector (copy)."""
        return self._stakes.copy()

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the exchange population."""
        return int(self._stakes.size)

    def stake_of(self, node_index: int) -> float:
        """Current stake of one node."""
        return float(self._stakes[node_index])

    def total_stake(self) -> float:
        """Total stake across the population."""
        return float(self._stakes.sum())

    # -- churn ---------------------------------------------------------------------

    def _pick_nodes(self) -> np.ndarray:
        probabilities = self._stakes / self._stakes.sum()
        return self._rng.choice(
            self.n_nodes, size=self.picks_per_round, replace=True, p=probabilities
        )

    def step(self) -> ExchangeRound:
        """Apply one round of churn; returns the round summary."""
        self.round_index += 1
        picks = self._pick_nodes()
        deltas = self._rng.uniform(self.delta_low, self.delta_high, self.picks_per_round)
        gross = 0.0
        net = 0.0
        for node, delta in zip(picks, deltas):
            # A node cannot send below the minimum stake: clamp the delta.
            applied = max(delta, self.min_stake - self._stakes[node])
            self._stakes[node] += applied
            gross += abs(applied)
            net += applied
        record = ExchangeRound(
            round_index=self.round_index,
            n_picks=self.picks_per_round,
            gross_volume=gross,
            net_drift=net,
            min_stake=float(self._stakes.min()),
            max_stake=float(self._stakes.max()),
            total_stake=float(self._stakes.sum()),
        )
        self.history.append(record)
        return record

    def run(self, n_rounds: int) -> List[ExchangeRound]:
        """Apply ``n_rounds`` of churn."""
        if n_rounds < 0:
            raise ConfigurationError(f"n_rounds must be >= 0, got {n_rounds}")
        return [self.step() for _ in range(n_rounds)]

    # -- simulator integration ------------------------------------------------------

    def transactions_for_round(
        self, round_index: int, n_transactions: Optional[int] = None
    ) -> List[Transaction]:
        """Materialize churn as paired transactions for the protocol simulator.

        Each transaction moves a positive amount between two distinct
        stake-weighted picks, giving blocks realistic payloads without
        double-applying churn (the caller chooses whether to also
        :meth:`step` the stake vector).
        """
        count = n_transactions if n_transactions is not None else self.picks_per_round // 2
        if count < 0:
            raise ConfigurationError(f"n_transactions must be >= 0, got {count}")
        senders = self._pick_nodes()[:count]
        receivers = self._pick_nodes()[:count]
        amounts = np.abs(self._rng.uniform(self.delta_low, self.delta_high, count))
        transactions: List[Transaction] = []
        for nonce, (sender, receiver, amount) in enumerate(
            zip(senders, receivers, amounts)
        ):
            if sender == receiver or amount <= 0:
                continue
            transactions.append(
                Transaction(
                    from_account=int(sender),
                    to_account=int(receiver),
                    amount=float(amount),
                    nonce=round_index * 1_000_000 + nonce,
                )
            )
        return transactions

    def as_stake_mapping(self) -> Dict[int, float]:
        """Current stakes keyed by node index (for RoleSnapshot building)."""
        return {index: float(stake) for index, stake in enumerate(self._stakes)}
