"""Gossip message types: Transaction, Vote, BlockProposal, Credential.

These mirror the four message types of the Algorand communication protocol
(paper Section II-B2).  Every message carries a unique ``message_id`` used by
the gossip layer for duplicate suppression, and voting/proposal messages
carry the sortition proof that establishes the sender's role.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.sim.ba_star import EMPTY_HASH
from repro.sim.crypto import Signature
from repro.sim.sortition import SortitionProof

_MESSAGE_COUNTER = itertools.count()


def _next_message_id() -> int:
    return next(_MESSAGE_COUNTER)


@dataclass(frozen=True)
class Message:
    """Base class for all gossip messages."""

    sender: int
    message_id: int = field(default_factory=_next_message_id, compare=False)

    #: Short lowercase tag used for per-kind accounting and filtering.
    #: Computed once per class (the gossip layer reads it on every
    #: delivery, so a per-call ``type(self).__name__.lower()`` shows up in
    #: profiles at simulation scale).
    kind: ClassVar[str] = "message"

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls.kind = cls.__name__.lower()


@dataclass(frozen=True)
class TransactionMessage(Message):
    """Transfer of Algos between two accounts, signed by the sender.

    ``amount`` is in Algos.  The simulator validates the signature and the
    sender balance exactly as the paper's transaction-verification task
    (cost ``c_ve``) describes.
    """

    from_account: int = 0
    to_account: int = 0
    amount: float = 0.0
    nonce: int = 0
    signature: Optional[Signature] = None


@dataclass(frozen=True)
class BlockProposalMessage(Message):
    """A proposed block, its signed hash, and the proposer's sortition proof.

    ``block`` carries the full payload; receivers that only saw the
    credential know the priority but cannot extract the block content.
    """

    block_hash: int = 0
    block_round: int = 0
    block: Optional[object] = None
    proof: Optional[SortitionProof] = None
    signature: Optional[Signature] = None

    @property
    def priority(self) -> float:
        """Proposal priority (lower is better); infinity if proof missing."""
        if self.proof is None or self.proof.priority is None:
            return float("inf")
        return self.proof.priority


@dataclass(frozen=True)
class CredentialMessage(Message):
    """A leader's standalone sortition proof, gossiped ahead of the block.

    Peers use credentials to learn the best priority in flight and drop
    relays of lower-priority proposals, preventing proposal floods
    (paper Section II-B2).
    """

    block_round: int = 0
    proof: Optional[SortitionProof] = None

    @property
    def priority(self) -> float:
        """Proposal priority (lower is better); infinity if proof missing."""
        if self.proof is None or self.proof.priority is None:
            return float("inf")
        return self.proof.priority


@dataclass(frozen=True)
class VoteMessage(Message):
    """A committee member's signed vote for one BA* step.

    Attributes
    ----------
    round_index / step:
        The consensus step the vote belongs to.  ``step`` uses the protocol
        module's step-numbering (reduction steps, BinaryBA* steps, FINAL).
    value:
        The block hash voted for, or :data:`EMPTY_HASH`.
    proof:
        Sortition proof establishing committee membership; its ``weight``
        is the number of sub-user votes this message carries.
    """

    round_index: int = 0
    step: int = 0
    value: int = EMPTY_HASH
    proof: Optional[SortitionProof] = None
    signature: Optional[Signature] = None

    @property
    def weight(self) -> int:
        """Sub-user vote weight carried by this message."""
        if self.proof is None:
            return 0
        return self.proof.weight
