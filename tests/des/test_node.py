"""Unit tests for the Node: intake, duties, behaviour gating, finalization."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.behavior import Behavior
from repro.sim.blocks import Block, ConsensusLabel, Ledger, Transaction
from repro.sim.ba_star import EMPTY_HASH, FINAL_STEP
from repro.sim.config import SimulationConfig
from repro.sim.crypto import KeyPair
from repro.sim.fastpath import RoundContext
from repro.sim.sortition import Role

from des.messages import BlockProposalMessage, TransactionMessage, VoteMessage
from des.node import Node
from des.signing import sortition


def _config(**overrides) -> SimulationConfig:
    defaults = dict(n_nodes=10, seed=3, verify_crypto=False)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _ctx(round_index=1, total_stake=1000.0) -> RoundContext:
    return RoundContext(
        round_index=round_index,
        sortition_seed=42,
        total_stake=total_stake,
        tau_proposer=900.0,  # effectively always selected (whales)
        tau_step=900.0,
        tau_final=900.0,
        t_step=0.685,
        t_final=0.74,
        max_binary_steps=11,
        coin_seed=42,
    )


def _node(node_id=0, stake=100.0, behavior=Behavior.HONEST, **config_overrides) -> Node:
    return Node(
        node_id=node_id,
        keypair=KeyPair.generate(("node", node_id)),
        stake=stake,
        behavior=behavior,
        config=_config(**config_overrides),
    )


def _other_vote(ctx, sender_id: int, step: int, value: int, stake=100.0) -> VoteMessage:
    keypair = KeyPair.generate(("node", sender_id))
    role = Role.FINAL if step == FINAL_STEP else Role.STEP
    expected = ctx.tau_final if step == FINAL_STEP else ctx.tau_step
    proof = sortition(keypair, ctx.sortition_seed, ctx.round_index, role,
                      stake, ctx.total_stake, expected, step=step)
    assert proof.selected, "test setup requires a selected voter"
    return VoteMessage(sender=sender_id, round_index=ctx.round_index,
                       step=step, value=value, proof=proof)


def _proposal_from(ctx, sender_id: int, previous_hash: int, stake=100.0):
    keypair = KeyPair.generate(("node", sender_id))
    proof = sortition(keypair, ctx.sortition_seed, ctx.round_index,
                      Role.PROPOSER, stake, ctx.total_stake, ctx.tau_proposer)
    assert proof.selected
    block = Block(round_index=ctx.round_index, previous_hash=previous_hash,
                  seed=7, transactions=(), proposer=sender_id)
    return block, BlockProposalMessage(
        sender=sender_id, block_hash=block.block_hash(),
        block_round=ctx.round_index, block=block, proof=proof)


class TestBeginRound:
    def test_cooperating_whale_proposes(self):
        node = _node()
        messages = node.begin_round(_ctx())
        kinds = [m.kind for m in messages]
        assert "credentialmessage" in kinds
        assert "blockproposalmessage" in kinds
        assert node.performed_leader

    def test_defector_never_proposes_but_runs_sortition(self):
        node = _node(behavior=Behavior.SELFISH_DEFECT)
        messages = node.begin_round(_ctx())
        assert messages == []
        assert node.counters.sortitions_run == 1  # pays c_so
        assert not node.performed_leader

    def test_faulty_node_does_nothing(self):
        node = _node(behavior=Behavior.FAULTY)
        assert node.begin_round(_ctx()) == []
        assert node.counters.sortitions_run == 0

    def test_malicious_leader_equivocates_two_blocks(self):
        node = _node(behavior=Behavior.MALICIOUS)
        txns = [Transaction(1, 2, 3.0, 0), Transaction(2, 3, 1.0, 1)]
        messages = node.begin_round(_ctx(), txns)
        proposals = [m for m in messages if isinstance(m, BlockProposalMessage)]
        assert len(proposals) == 2
        assert proposals[0].block_hash != proposals[1].block_hash

    def test_invalid_transactions_filtered_from_payload(self):
        node = _node()
        txns = [
            Transaction(1, 2, 5.0, 0),   # valid
            Transaction(1, 1, 5.0, 1),   # self-transfer: invalid
            Transaction(1, 2, -1.0, 2),  # negative: invalid
        ]
        messages = node.begin_round(_ctx(), txns)
        proposal = next(m for m in messages if isinstance(m, BlockProposalMessage))
        assert len(proposal.block.transactions) == 1

    def test_unselected_node_does_not_propose(self):
        node = _node(stake=1.0)
        ctx = RoundContext(
            round_index=1, sortition_seed=42, total_stake=10**9,
            tau_proposer=1.0, tau_step=1.0, tau_final=1.0,
            t_step=0.685, t_final=0.74, max_binary_steps=11, coin_seed=42,
        )
        assert node.begin_round(ctx) == []

    def test_non_positive_stake_rejected(self):
        with pytest.raises(SimulationError):
            _node(stake=0.0)


class TestMessageIntake:
    def test_transaction_enters_mempool(self):
        node = _node()
        node.begin_round(_ctx())
        relay = node.on_receive(
            TransactionMessage(sender=1, from_account=1, to_account=2, amount=5.0), 0.0
        )
        assert relay
        assert len(node.mempool) == 1

    def test_invalid_transaction_rejected_by_cooperator(self):
        node = _node()
        node.begin_round(_ctx())
        relay = node.on_receive(
            TransactionMessage(sender=1, from_account=1, to_account=2, amount=-5.0), 0.0
        )
        assert not relay

    def test_proposal_stored_and_relayed(self):
        node = _node(node_id=0)
        ctx = _ctx()
        node.begin_round(ctx)
        _, proposal = _proposal_from(ctx, 1, node.ledger.tip().block_hash())
        assert node.on_receive(proposal, 0.0)
        assert node.best_proposal() is not None

    def test_stale_round_proposal_ignored(self):
        node = _node(node_id=0)
        node.begin_round(_ctx(round_index=2))
        stale_ctx = _ctx(round_index=1)
        _, proposal = _proposal_from(stale_ctx, 1, 0)
        assert not node.on_receive(proposal, 0.0)
        assert node.best_proposal() is None

    def test_vote_stored_per_step_and_sender(self):
        node = _node(node_id=0)
        ctx = _ctx()
        node.begin_round(ctx)
        vote = _other_vote(ctx, 1, step=1, value=5)
        assert node.on_receive(vote, 0.0)
        duplicate = _other_vote(ctx, 1, step=1, value=6)
        assert not node.on_receive(duplicate, 0.0)  # equivocation guard

    def test_stale_round_vote_ignored(self):
        node = _node(node_id=0)
        node.begin_round(_ctx(round_index=3))
        vote = _other_vote(_ctx(round_index=1), 1, step=1, value=5)
        assert not node.on_receive(vote, 0.0)

    def test_unselected_proof_rejected(self):
        node = _node(node_id=0)
        ctx = _ctx()
        node.begin_round(ctx)
        vote = _other_vote(ctx, 1, step=1, value=5)
        from dataclasses import replace

        hollow = replace(vote, proof=replace(vote.proof, weight=0, priority=None))
        assert not node.on_receive(hollow, 0.0)

    def test_crypto_verification_rejects_forged_weight(self):
        ctx = _ctx()
        node = _node(node_id=0, verify_crypto=True)
        node.key_registry = {i: KeyPair.generate(("node", i)) for i in range(3)}
        node.begin_round(ctx)
        vote = _other_vote(ctx, 1, step=1, value=5)
        from dataclasses import replace

        forged = replace(vote, proof=replace(vote.proof, weight=vote.proof.weight + 5))
        assert not node.on_receive(forged, 0.0)
        assert node.on_receive(vote, 0.0)  # the honest original passes


class TestConsensusFlow:
    def _drive_round(self, node: Node, ctx: RoundContext, voters=range(1, 10)):
        """Feed the node a fully healthy round driven by external votes."""
        _, proposal = _proposal_from(ctx, 99, node.ledger.tip().block_hash())
        node.on_receive(proposal, 0.0)
        block_hash = proposal.block_hash
        node.start_reduction()
        for step in (1, 2, 3):
            for voter in voters:
                node.on_receive(_other_vote(ctx, voter, step=step, value=block_hash), 0.0)
            node.handle_step_deadline(step)
        for voter in voters:
            node.on_receive(_other_vote(ctx, voter, step=FINAL_STEP, value=block_hash), 0.0)
        return block_hash

    def test_healthy_round_reaches_final(self):
        node = _node(node_id=0)
        ctx = _ctx()
        node.begin_round(ctx)
        block_hash = self._drive_round(node, ctx)
        assert node.machine_conclusion() == block_hash
        outcome = node.finalize_round()
        assert outcome.label is ConsensusLabel.FINAL
        assert node.ledger.height == 1

    def test_round_without_final_votes_is_tentative(self):
        node = _node(node_id=0)
        ctx = _ctx()
        node.begin_round(ctx)
        _, proposal = _proposal_from(ctx, 99, node.ledger.tip().block_hash())
        node.on_receive(proposal, 0.0)
        node.start_reduction()
        for step in (1, 2, 3):
            for voter in range(1, 10):
                node.on_receive(
                    _other_vote(ctx, voter, step=step, value=proposal.block_hash), 0.0
                )
            node.handle_step_deadline(step)
        outcome = node.finalize_round()
        assert outcome.label is ConsensusLabel.TENTATIVE

    def test_missing_block_content_yields_none(self):
        node = _node(node_id=0)
        ctx = _ctx()
        node.begin_round(ctx)
        ghost_hash = 123456789
        node.start_reduction()
        for step in (1, 2, 3):
            for voter in range(1, 10):
                node.on_receive(_other_vote(ctx, voter, step=step, value=ghost_hash), 0.0)
            node.handle_step_deadline(step)
        outcome = node.finalize_round()
        assert outcome.label is ConsensusLabel.NONE

    def test_all_timeouts_yield_none(self):
        node = _node(node_id=0)
        ctx = _ctx()
        node.begin_round(ctx)
        node.start_reduction()
        for step in range(1, ctx.max_binary_steps + 3):
            node.handle_step_deadline(step)
        outcome = node.finalize_round()
        assert outcome.label is ConsensusLabel.NONE

    def test_empty_conclusion_appends_tentative_empty_block(self):
        node = _node(node_id=0)
        ctx = _ctx()
        node.begin_round(ctx)
        node.start_reduction()
        # Committee votes empty through reduction and the first two binary steps.
        for step in (1, 2, 3, 4):
            for voter in range(1, 10):
                node.on_receive(_other_vote(ctx, voter, step=step, value=EMPTY_HASH), 0.0)
            node.handle_step_deadline(step)
        outcome = node.finalize_round()
        assert outcome.label is ConsensusLabel.TENTATIVE
        assert outcome.concluded_empty
        assert node.ledger.tip().is_empty

    def test_desynced_node_catches_up_via_authoritative_chain(self):
        ctx = _ctx()
        # Build an authoritative chain one block ahead.
        authoritative = Ledger()
        leader = _node(node_id=50)
        block_1 = Block(1, authoritative.tip().block_hash(), seed=1, proposer=50)
        authoritative.append(block_1, ConsensusLabel.FINAL)

        node = _node(node_id=0)  # still at genesis: missed round 1
        ctx2 = _ctx(round_index=2)
        node.begin_round(ctx2)
        _, proposal = _proposal_from(ctx2, 99, block_1.block_hash())
        node.on_receive(proposal, 0.0)
        node.start_reduction()
        for step in (1, 2, 3):
            for voter in range(1, 10):
                node.on_receive(
                    _other_vote(ctx2, voter, step=step, value=proposal.block_hash), 0.0
                )
            node.handle_step_deadline(step)
        for voter in range(1, 10):
            node.on_receive(
                _other_vote(ctx2, voter, step=FINAL_STEP, value=proposal.block_hash), 0.0
            )
        block_2 = proposal.block
        authoritative.append(block_2, ConsensusLabel.FINAL)
        outcome = node.finalize_round(authoritative.entries())
        assert outcome.label is ConsensusLabel.FINAL
        assert outcome.caught_up
        assert node.ledger.tip().block_hash() == block_2.block_hash()

    def test_desynced_without_authority_is_none(self):
        node = _node(node_id=0)
        ctx = _ctx(round_index=2)
        node.begin_round(ctx)
        _, proposal = _proposal_from(ctx, 99, previous_hash=987654)  # unknown parent
        node.on_receive(proposal, 0.0)
        node.start_reduction()
        for step in (1, 2, 3):
            for voter in range(1, 10):
                node.on_receive(
                    _other_vote(ctx, voter, step=step, value=proposal.block_hash), 0.0
                )
            node.handle_step_deadline(step)
        outcome = node.finalize_round()  # tentative + unknown parent
        assert outcome.label is ConsensusLabel.NONE
        assert outcome.desynced


class TestBehaviorGating:
    def test_defector_casts_no_votes(self):
        node = _node(behavior=Behavior.SELFISH_DEFECT)
        ctx = _ctx()
        node.begin_round(ctx)
        assert node.start_reduction() == []
        assert node.counters.votes_cast == 0

    def test_cooperator_casts_votes(self):
        node = _node()
        ctx = _ctx()
        node.begin_round(ctx)
        _, proposal = _proposal_from(ctx, 99, node.ledger.tip().block_hash())
        node.on_receive(proposal, 0.0)
        votes = node.start_reduction()
        assert votes and votes[0].value == proposal.block_hash
        assert node.counters.votes_cast == 1

    def test_defector_still_extracts_outcome_passively(self):
        node = _node(behavior=Behavior.SELFISH_DEFECT, node_id=0)
        ctx = _ctx()
        node.begin_round(ctx)
        _, proposal = _proposal_from(ctx, 99, node.ledger.tip().block_hash())
        node.on_receive(proposal, 0.0)
        node.start_reduction()
        for step in (1, 2, 3):
            for voter in range(1, 10):
                node.on_receive(
                    _other_vote(ctx, voter, step=step, value=proposal.block_hash), 0.0
                )
            node.handle_step_deadline(step)
        for voter in range(1, 10):
            node.on_receive(
                _other_vote(ctx, voter, step=FINAL_STEP, value=proposal.block_hash), 0.0
            )
        outcome = node.finalize_round()
        assert outcome.label is ConsensusLabel.FINAL
        assert node.counters.votes_cast == 0  # never contributed

    def test_role_classification(self):
        leader = _node(node_id=0)
        ctx = _ctx()
        leader.begin_round(ctx)
        assert leader.performed_leader
        assert not leader.performed_committee

    def test_requires_active_round(self):
        node = _node()
        with pytest.raises(SimulationError):
            node.start_reduction()
