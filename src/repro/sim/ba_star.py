"""The BA* Byzantine agreement protocol: Reduction and BinaryBA* phases.

This module implements the per-node consensus state machine from Gilad et
al. (SOSP'17), which the paper summarizes in Section II-B3 and Figure 1:

* **Reduction** (2 steps) reduces consensus to a choice between one block
  hash and the empty option: committee members first vote for the
  highest-priority proposal they saw, then re-vote for whichever hash
  crossed the threshold (or the empty option on timeout).
* **BinaryBA*** (up to ``max_binary_steps``) decides between the reduction
  output and the empty option.  Steps cycle through three kinds: a
  block-biased step, an empty-biased step, and a common-coin step that
  defeats adversarial scheduling.  A node that concludes keeps voting its
  value for the next three steps (helping stragglers) and, when it concludes
  in the very first binary step, casts a FINAL-committee vote — the origin
  of final (vs tentative) consensus.

The state machine is pure: it consumes the node's per-step vote tallies and
emits the votes the node should cast, without touching the network.  The
fast kernel (:mod:`repro.sim.fastpath`) runs one machine per cohort of
nodes in the same state; the test suite's per-message oracle
(``tests/des``) runs one per node.

Step indexing convention used across the simulator:

* step 1: Reduction step 1, step 2: Reduction step 2,
* step ``2 + k``: BinaryBA* step ``k`` (``k`` starting at 1),
* :data:`FINAL_STEP`: the distinguished final-vote committee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Mapping, Optional, Tuple

from repro.errors import SimulationError

#: Sentinel hash value for the empty (default) block option in BA* voting.
EMPTY_HASH = -1

#: Sentinel step index for the FINAL-vote committee.
FINAL_STEP = 10_000

#: First global step index belonging to BinaryBA*.
FIRST_BINARY_STEP = 3


def resolve_quorum(
    weights: Mapping[int, int],
    tau: float,
    threshold: float,
) -> Optional[int]:
    """Pure threshold rule of CountVotes: winning value or ``None`` (timeout).

    ``weights`` maps each candidate value to its accumulated sub-user
    weight.  A value wins when its weight exceeds ``threshold * tau``
    (paper Section II-B3).  If several values cross the threshold —
    possible only with substantial adversarial weight — the heaviest wins,
    with the numerically smallest hash as the deterministic tie-break.

    This is the single quorum rule: the fast kernel reduces its numpy
    tally arrays to this mapping shape, and the test suite's per-message
    oracle (``tests/des``) tallies its vote messages into the same shape,
    so the decision logic cannot drift between the two.
    """
    needed = threshold * tau
    winners = [
        (weight, value) for value, weight in weights.items() if weight > needed
    ]
    if not winners:
        return None
    winners.sort(key=lambda pair: (-pair[0], pair[1]))
    return winners[0][1]


class Phase(str, Enum):
    """Lifecycle of the consensus state machine within one round."""

    REDUCTION_ONE = "reduction_one"
    REDUCTION_TWO = "reduction_two"
    BINARY = "binary"
    DONE = "done"
    FAILED = "failed"


class StepKind(str, Enum):
    """The three alternating BinaryBA* step kinds."""

    BLOCK_BIASED = "block_biased"
    EMPTY_BIASED = "empty_biased"
    COMMON_COIN = "common_coin"


def binary_step_kind(binary_step: int) -> StepKind:
    """Kind of the ``binary_step``-th BinaryBA* step (1-based)."""
    if binary_step < 1:
        raise SimulationError(f"binary step must be >= 1, got {binary_step}")
    return (
        StepKind.BLOCK_BIASED,
        StepKind.EMPTY_BIASED,
        StepKind.COMMON_COIN,
    )[(binary_step - 1) % 3]


@dataclass
class StepDirective:
    """What the node should do after processing one step deadline.

    Attributes
    ----------
    vote:
        ``(step_index, value)`` the node should vote in the next window, or
        ``None`` when there is nothing further to vote (concluded/failed).
    helper_votes:
        Extra ``(step_index, value)`` votes cast on conclusion for the three
        following steps, so stragglers can still count a quorum.
    final_vote:
        Value to vote in the FINAL committee, set only when the machine
        concluded with a block in the first BinaryBA* step.
    concluded:
        True once the machine reached a conclusion this transition.
    """

    vote: Optional[Tuple[int, int]] = None
    helper_votes: List[Tuple[int, int]] = field(default_factory=list)
    final_vote: Optional[int] = None
    concluded: bool = False


class ConsensusStateMachine:
    """Pure BA* state machine for a single node and a single round.

    Parameters
    ----------
    max_binary_steps:
        BinaryBA* step budget; the machine FAILS (no consensus) beyond it.
    coin:
        The common coin: ``coin(binary_step) -> 0 or 1``, shared by all
        nodes (an ideal common coin derived from the round seed).
    """

    def __init__(self, max_binary_steps: int, coin: Callable[[int], int]) -> None:
        if max_binary_steps < 3:
            raise SimulationError("max_binary_steps must be >= 3")
        self._max_binary_steps = max_binary_steps
        self._coin = coin
        self.phase = Phase.REDUCTION_ONE
        self.current_value: int = EMPTY_HASH
        self.binary_input: int = EMPTY_HASH
        self.binary_step = 0
        self.concluded_value: Optional[int] = None
        self.concluded_binary_step: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self, best_proposal_hash: Optional[int]) -> Tuple[int, int]:
        """Begin the round; returns the Reduction-step-1 vote ``(step, value)``.

        ``best_proposal_hash`` is the hash of the highest-priority proposal
        the node received during the proposal window, or ``None`` if it saw
        none (it then votes for the empty option).
        """
        if self.phase is not Phase.REDUCTION_ONE:
            raise SimulationError(f"cannot start machine in phase {self.phase}")
        value = EMPTY_HASH if best_proposal_hash is None else best_proposal_hash
        self.current_value = value
        return (1, value)

    def on_step_result(self, step_index: int, counted: Optional[int]) -> StepDirective:
        """Advance the machine with the node's tally for ``step_index``.

        ``counted`` is the winning value of the node's own CountVotes for
        that step, or ``None`` on timeout (no value crossed the threshold
        before the deadline).
        """
        if self.phase in (Phase.DONE, Phase.FAILED):
            return StepDirective()
        if step_index == 1:
            return self._after_reduction_one(counted)
        if step_index == 2:
            return self._after_reduction_two(counted)
        expected = FIRST_BINARY_STEP + self.binary_step - 1
        if step_index != expected:
            raise SimulationError(
                f"state machine expected result of step {expected}, got {step_index}"
            )
        return self._after_binary_step(counted)

    # -- reduction ------------------------------------------------------------

    def _after_reduction_one(self, counted: Optional[int]) -> StepDirective:
        if self.phase is not Phase.REDUCTION_ONE:
            raise SimulationError(f"unexpected reduction-1 result in phase {self.phase}")
        # Paper Section II-B3: vote for the hash that crossed the threshold,
        # or for the empty option if none did.
        value = EMPTY_HASH if counted is None else counted
        self.current_value = value
        self.phase = Phase.REDUCTION_TWO
        return StepDirective(vote=(2, value))

    def _after_reduction_two(self, counted: Optional[int]) -> StepDirective:
        if self.phase is not Phase.REDUCTION_TWO:
            raise SimulationError(f"unexpected reduction-2 result in phase {self.phase}")
        output = EMPTY_HASH if counted is None else counted
        self.binary_input = output
        self.current_value = output
        self.phase = Phase.BINARY
        self.binary_step = 1
        return StepDirective(vote=(FIRST_BINARY_STEP, output))

    # -- binary BA* -------------------------------------------------------------

    def _after_binary_step(self, counted: Optional[int]) -> StepDirective:
        step = self.binary_step
        kind = binary_step_kind(step)
        global_step = FIRST_BINARY_STEP + step - 1

        if kind is StepKind.BLOCK_BIASED:
            if counted is None:
                self.current_value = self.binary_input
            elif counted != EMPTY_HASH:
                return self._conclude(counted, global_step, final_eligible=step == 1)
            else:
                self.current_value = EMPTY_HASH
        elif kind is StepKind.EMPTY_BIASED:
            if counted is None:
                self.current_value = EMPTY_HASH
            elif counted == EMPTY_HASH:
                return self._conclude(EMPTY_HASH, global_step, final_eligible=False)
            else:
                self.current_value = counted
        else:  # COMMON_COIN
            if counted is None:
                flip = self._coin(step)
                self.current_value = self.binary_input if flip == 0 else EMPTY_HASH
            else:
                self.current_value = counted

        self.binary_step += 1
        if self.binary_step > self._max_binary_steps:
            self.phase = Phase.FAILED
            return StepDirective()
        return StepDirective(vote=(global_step + 1, self.current_value))

    def _conclude(self, value: int, global_step: int, final_eligible: bool) -> StepDirective:
        self.phase = Phase.DONE
        self.concluded_value = value
        self.concluded_binary_step = self.binary_step
        helper_votes = [
            (global_step + offset, value)
            for offset in (1, 2, 3)
            if self.binary_step + offset <= self._max_binary_steps
        ]
        final_vote = value if (final_eligible and value != EMPTY_HASH) else None
        return StepDirective(
            helper_votes=helper_votes,
            final_vote=final_vote,
            concluded=True,
        )

    # -- introspection -----------------------------------------------------------

    @property
    def concluded(self) -> bool:
        """Whether the machine reached a conclusion for this round."""
        return self.phase is Phase.DONE

    @property
    def failed(self) -> bool:
        """Whether the machine exhausted its steps without concluding."""
        return self.phase is Phase.FAILED


def make_common_coin(seed: int, round_index: int) -> Callable[[int], int]:
    """An ideal common coin for one round, derived from the public seed.

    Real Algorand computes the coin from the lowest bit of the minimum
    committee-member VRF hash; an ideal coin keeps the same interface and
    distribution while being common to all nodes by construction.
    """
    from repro.sim import crypto

    def coin(binary_step: int) -> int:
        return crypto.sha256_int("coin", seed, round_index, binary_step) % 2

    return coin
