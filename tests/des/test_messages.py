"""Unit tests for gossip message types."""

from __future__ import annotations

from repro.sim.ba_star import EMPTY_HASH
from repro.sim.crypto import VrfOutput
from repro.sim.sortition import Role, SortitionProof

from des.messages import (
    BlockProposalMessage,
    CredentialMessage,
    Message,
    TransactionMessage,
    VoteMessage,
)


def _proof(weight=2, priority=0.25):
    return SortitionProof(
        public_key=1,
        role=Role.STEP,
        round_index=1,
        step=1,
        vrf=VrfOutput(value=0.3, proof=9),
        weight=weight,
        priority=priority,
        stake=10,
        total_stake=100,
        expected_size=10,
    )


class TestMessageIds:
    def test_ids_are_unique(self):
        ids = {Message(sender=0).message_id for _ in range(100)}
        assert len(ids) == 100

    def test_kind_tags(self):
        assert TransactionMessage(sender=0).kind == "transactionmessage"
        assert VoteMessage(sender=0).kind == "votemessage"
        assert BlockProposalMessage(sender=0).kind == "blockproposalmessage"
        assert CredentialMessage(sender=0).kind == "credentialmessage"


class TestVoteMessage:
    def test_weight_comes_from_proof(self):
        vote = VoteMessage(sender=1, step=1, value=5, proof=_proof(weight=3))
        assert vote.weight == 3

    def test_weight_without_proof_is_zero(self):
        assert VoteMessage(sender=1, step=1, value=5).weight == 0

    def test_empty_hash_sentinel_is_default(self):
        assert VoteMessage(sender=1).value == EMPTY_HASH


class TestProposalPriority:
    def test_priority_from_proof(self):
        message = BlockProposalMessage(sender=1, proof=_proof(priority=0.125))
        assert message.priority == 0.125

    def test_missing_proof_means_worst_priority(self):
        assert BlockProposalMessage(sender=1).priority == float("inf")

    def test_credential_priority(self):
        assert CredentialMessage(sender=1, proof=_proof(priority=0.5)).priority == 0.5
        assert CredentialMessage(sender=1).priority == float("inf")
