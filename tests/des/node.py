"""The DES node: per-round state, message handling, and consensus duties.

A :class:`Node` owns a ledger replica, a mempool, task counters (for the
cost model), and — during a round — the BA* state machine plus stores of the
proposals and votes it has received.  All protocol *decisions* live here;
all *communication* is delegated to the protocol driver, which broadcasts
the messages a node returns.  This keeps nodes pure enough to unit-test
without a network.

Behaviour gating (paper Section III-C): every task method first consults the
node's :class:`~repro.sim.behavior.Behavior`.  A defective node runs
sortition (cost ``c_so``) and passively stores what it receives, but
produces no messages; a faulty node is offline entirely; a malicious node
produces validly-signed but equivocating traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.costs import TaskCosts
from repro.errors import ConfigurationError, LedgerError, SimulationError
from repro.sim import crypto
from repro.sim.ba_star import (
    EMPTY_HASH,
    FINAL_STEP,
    ConsensusStateMachine,
    StepDirective,
    make_common_coin,
    resolve_quorum,
)
from repro.sim.behavior import Behavior
from repro.sim.blocks import Block, ConsensusLabel, Ledger, LedgerEntry, Transaction, make_empty_block
from repro.sim.config import SimulationConfig
from repro.sim.fastpath import RoundContext
from repro.sim.sortition import Role

from des.messages import (
    BlockProposalMessage,
    CredentialMessage,
    Message,
    TransactionMessage,
    VoteMessage,
)
from des.signing import SortitionProof, sign, sortition, verify_sortition


class ReplicaLedger(Ledger):
    """A node's ledger replica, which can catch up to the authoritative chain."""

    def sync_to(self, entries: List[LedgerEntry]) -> int:
        """Adopt a (longer, authoritative) chain via the catch-up protocol.

        Finds the longest common prefix by block hash, verifies that every
        local block past the prefix is TENTATIVE (final blocks must never be
        replaced — the Algorand safety guarantee), then truncates and adopts
        the remote suffix.  Returns the number of blocks adopted.

        Raises
        ------
        LedgerError
            If a local FINAL block conflicts with the remote chain, which
            would be a safety violation.
        """
        if not entries or entries[0].block.block_hash() != self.genesis.block_hash():
            raise LedgerError("cannot sync to a chain with a different genesis")
        common = 0
        limit = min(len(self._entries), len(entries))
        while (
            common < limit
            and self._entries[common].block.block_hash()
            == entries[common].block.block_hash()
        ):
            common += 1
        for entry in self._entries[common:]:
            if entry.label is ConsensusLabel.FINAL:
                raise LedgerError(
                    f"sync would replace FINAL block at round "
                    f"{entry.block.round_index}: safety violation"
                )
        adopted = entries[common:]
        self._entries = self._entries[:common] + [
            LedgerEntry(entry.block, entry.label) for entry in adopted
        ]
        self._by_hash = {
            entry.block.block_hash(): index for index, entry in enumerate(self._entries)
        }
        return len(adopted)


def count_votes(
    votes: Iterable[VoteMessage],
    tau: float,
    threshold: float,
) -> Optional[int]:
    """Tally committee votes; return the winning value or ``None`` (timeout).

    Votes are assumed already deduplicated per sender (the node's vote
    store keeps first-votes only); the threshold decision is the fast
    kernel's :func:`repro.sim.ba_star.resolve_quorum`.
    """
    weights: Dict[int, int] = {}
    for vote in votes:
        if vote.weight <= 0:
            continue
        weights[vote.value] = weights.get(vote.value, 0) + vote.weight
    return resolve_quorum(weights, tau, threshold)


@dataclass
class TaskCounters:
    """Per-node counts of cost-bearing protocol tasks (paper Table II)."""

    transactions_verified: int = 0  # c_ve
    seeds_generated: int = 0  # c_se
    sortitions_run: int = 0  # c_so
    proofs_verified: int = 0  # c_vs
    blocks_proposed: int = 0  # c_bl
    messages_relayed: int = 0  # c_go
    block_selections: int = 0  # c_bs
    votes_cast: int = 0  # c_vo
    vote_counts: int = 0  # c_vc

    def snapshot(self) -> Dict[str, int]:
        """The counters as a plain dict (for metrics and assertions)."""
        return dict(self.__dict__)


def price_counters(costs: TaskCosts, counters: Mapping[str, int]) -> float:
    """Total cost of a node's :meth:`TaskCounters.snapshot`, in Algos.

    Ties the analytic cost model (paper Table II) to the workload the
    DES measures.
    """
    price_per_counter = {
        "transactions_verified": costs.verification,
        "seeds_generated": costs.seed_generation,
        "sortitions_run": costs.sortition,
        "proofs_verified": costs.proof_verification,
        "blocks_proposed": costs.block_proposal,
        "messages_relayed": costs.gossip,
        "block_selections": costs.block_selection,
        "votes_cast": costs.vote,
        "vote_counts": costs.vote_counting,
    }
    unknown = set(counters) - set(price_per_counter)
    if unknown:
        raise ConfigurationError(f"unknown task counters: {sorted(unknown)}")
    return sum(price_per_counter[name] * count for name, count in counters.items())


@dataclass
class RoundOutcome:
    """What one node extracted from one round (paper Figure 3 categories)."""

    node_id: int
    label: ConsensusLabel
    value: Optional[int] = None
    concluded_empty: bool = False
    desynced: bool = False
    caught_up: bool = False


class Node:
    """One Algorand participant."""

    def __init__(
        self,
        node_id: int,
        keypair: crypto.KeyPair,
        stake: float,
        behavior: Behavior,
        config: SimulationConfig,
        rng: Optional[random.Random] = None,
        genesis_seed: int = 0,
    ) -> None:
        if stake <= 0:
            raise SimulationError(f"node stake must be positive, got {stake}")
        self.node_id = node_id
        self.keypair = keypair
        self.stake = float(stake)
        self.behavior = behavior
        self.config = config
        self.ledger = ReplicaLedger(genesis_seed=genesis_seed)
        self.mempool: Dict[int, Transaction] = {}
        self.counters = TaskCounters()
        self.rewards_received = 0.0
        #: Shared public-key directory (set by the protocol driver); needed
        #: because the simulated signature scheme verifies by recomputation.
        self.key_registry: Dict[int, crypto.KeyPair] = {}
        self._rng = rng or random.Random(node_id)
        # Gossip-participant protocol.  Behaviour is fixed at construction,
        # so these are plain attributes: the network reads them once per
        # delivery (millions of times per run) and property indirection
        # through the Behavior enum was measurable in profiles.
        self.relays_gossip = behavior.relays
        self.is_online = behavior.is_online
        self._reset_round_state()

    # -- round lifecycle ---------------------------------------------------------

    def _reset_round_state(self) -> None:
        self._ctx: Optional[RoundContext] = None
        self._proposals: Dict[int, BlockProposalMessage] = {}
        self._blocks: Dict[int, Block] = {}
        self._votes: Dict[int, Dict[int, VoteMessage]] = {}
        self._machine: Optional[ConsensusStateMachine] = None
        self._proposed = False
        self._voted_any = False
        self._selected_block = False

    def begin_round(
        self,
        ctx: RoundContext,
        pending_transactions: Optional[List[Transaction]] = None,
    ) -> List[Message]:
        """Start a round: run proposer sortition and maybe propose a block.

        Returns the messages to broadcast (credential + proposal for
        cooperating leaders; two equivocating proposals for malicious ones).
        Every online node runs sortition — the paper's defective nodes keep
        paying ``c_so`` to stay eligible.
        """
        self._reset_round_state()
        self._ctx = ctx
        if not self.behavior.is_online:
            return []

        proof = self._run_sortition(Role.PROPOSER, step=0)
        if not proof.selected or not self.behavior.proposes:
            return []

        transactions = self._validated_payload(pending_transactions or [])
        block = self._build_block(ctx, transactions)
        messages = self._proposal_messages(ctx, block, proof)
        if self.behavior.equivocates:
            rogue = self._build_block(ctx, transactions, salt=1)
            messages.extend(self._proposal_messages(ctx, rogue, proof))
        self._proposed = True
        self.counters.blocks_proposed += 1
        return messages

    def _validated_payload(self, pending: List[Transaction]) -> Tuple[Transaction, ...]:
        """Verify pending transactions before assembling them (cost c_ve)."""
        valid: List[Transaction] = []
        for txn in pending:
            self.counters.transactions_verified += 1
            if txn.amount <= 0 or txn.from_account == txn.to_account:
                continue
            valid.append(txn)
        return tuple(valid)

    def _build_block(
        self, ctx: RoundContext, transactions: Tuple[Transaction, ...], salt: int = 0
    ) -> Block:
        tip = self.ledger.tip()
        payload = transactions
        if salt:
            # An equivocating proposer drops a transaction to fork content.
            payload = transactions[1:] if transactions else ()
        block = Block(
            round_index=ctx.round_index,
            previous_hash=tip.block_hash(),
            seed=crypto.next_round_seed(ctx.sortition_seed, ctx.round_index),
            transactions=payload,
            proposer=self.node_id,
        )
        return block

    def _proposal_messages(
        self, ctx: RoundContext, block: Block, proof: SortitionProof
    ) -> List[Message]:
        block_hash = block.block_hash()
        signature = sign(self.keypair, "proposal", block_hash)
        credential = CredentialMessage(
            sender=self.node_id, block_round=ctx.round_index, proof=proof
        )
        proposal = BlockProposalMessage(
            sender=self.node_id,
            block_hash=block_hash,
            block_round=ctx.round_index,
            block=block,
            proof=proof,
            signature=signature,
        )
        return [credential, proposal]

    # -- message intake ------------------------------------------------------------

    def on_receive(self, message: Message, now: float) -> bool:
        """Store an incoming message; return True if it should be relayed.

        Verification work (``c_ve``, ``c_vs``) happens here for cooperating
        nodes when ``config.verify_crypto`` is on.  Defective nodes store
        passively (they stay online and can read the chain) but skip the
        verification work.
        """
        if not self.is_online:
            return False
        # Votes dominate gossip traffic by an order of magnitude, so they
        # are dispatched first (the checks are mutually exclusive).
        if isinstance(message, VoteMessage):
            return self._on_vote(message)
        if isinstance(message, CredentialMessage):
            return self._on_credential(message)
        if isinstance(message, BlockProposalMessage):
            return self._on_proposal(message)
        if isinstance(message, TransactionMessage):
            return self._on_transaction(message)
        return True

    def _verify_proof(self, proof: Optional[SortitionProof], sender: int) -> bool:
        """Verify a sortition proof against the round seed (cost ``c_vs``).

        Returns True when verification is disabled, the node does not
        cooperate (defectors skip the work), or the proof checks out.
        """
        if proof is None:
            return False
        if not self.config.verify_crypto or not self.behavior.cooperates:
            return True
        sender_key = self.key_registry.get(sender)
        if sender_key is None or self._ctx is None:
            return True
        self.counters.proofs_verified += 1
        return verify_sortition(proof, sender_key, self._ctx.sortition_seed)

    def _on_transaction(self, message: TransactionMessage) -> bool:
        if self.behavior.cooperates:
            self.counters.transactions_verified += 1
            if message.amount <= 0:
                return False
        txn = Transaction(
            from_account=message.from_account,
            to_account=message.to_account,
            amount=message.amount,
            nonce=message.nonce,
        )
        self.mempool[txn.digest()] = txn
        return True

    def _on_credential(self, message: CredentialMessage) -> bool:
        # Priority bookkeeping happens in the gossip layer; nodes just relay.
        return True

    def _on_proposal(self, message: BlockProposalMessage) -> bool:
        if self._ctx is None or message.block_round != self._ctx.round_index:
            return False  # stale traffic from an earlier round
        if message.proof is None or not message.proof.selected:
            return False
        if message.block is None or not isinstance(message.block, Block):
            return False
        if not self._verify_proof(message.proof, message.sender):
            return False
        current = self._proposals.get(message.block_hash)
        if current is None:
            self._proposals[message.block_hash] = message
            self._blocks[message.block_hash] = message.block
        return True

    def _on_vote(self, message: VoteMessage) -> bool:
        if self._ctx is None or message.round_index != self._ctx.round_index:
            return False  # stale traffic from an earlier round
        if message.proof is None or not message.proof.selected:
            return False
        if not self._verify_proof(message.proof, message.sender):
            return False
        per_step = self._votes.setdefault(message.step, {})
        if message.sender in per_step:
            # Equivocation guard: only a sender's first vote per step counts.
            return False
        per_step[message.sender] = message
        return True

    # -- consensus duties ------------------------------------------------------------

    def best_proposal(self) -> Optional[BlockProposalMessage]:
        """The highest-priority (lowest hash priority) proposal received."""
        if not self._proposals:
            return None
        return min(self._proposals.values(), key=lambda m: (m.priority, m.block_hash))

    def start_reduction(self) -> List[VoteMessage]:
        """At the end of the proposal window: pick a block, vote Reduction-1.

        The block-selection work is the paper's ``c_bs`` cost, borne by
        committee members of the first reduction step.
        """
        ctx = self._require_ctx()
        self._machine = ConsensusStateMachine(
            ctx.max_binary_steps, make_common_coin(ctx.coin_seed, ctx.round_index)
        )
        best = self.best_proposal()
        if best is not None and self.behavior.cooperates:
            self._selected_block = True
            self.counters.block_selections += 1
        step, value = self._machine.start(best.block_hash if best else None)
        return self._cast_vote(step, value)

    def handle_step_deadline(self, step_index: int) -> List[VoteMessage]:
        """Process the deadline of voting step ``step_index``.

        Tallies the votes received for the step, advances the BA* machine,
        and returns the votes to broadcast for subsequent steps.
        """
        if self._machine is None:
            return []
        if self._machine.concluded or self._machine.failed:
            return []
        counted = self._count_step(step_index)
        directive = self._machine.on_step_result(step_index, counted)
        return self._execute_directive(directive)

    def _count_step(self, step_index: int) -> Optional[int]:
        ctx = self._require_ctx()
        if self.behavior.counts_votes:
            self.counters.vote_counts += 1
        votes = self._votes.get(step_index, {}).values()
        return count_votes(votes, ctx.tau_step, ctx.t_step)

    def _execute_directive(self, directive: StepDirective) -> List[VoteMessage]:
        messages: List[VoteMessage] = []
        if directive.vote is not None:
            step, value = directive.vote
            messages.extend(self._cast_vote(step, value))
        for step, value in directive.helper_votes:
            messages.extend(self._cast_vote(step, value))
        if directive.final_vote is not None:
            messages.extend(self._cast_vote(FINAL_STEP, directive.final_vote, final=True))
        return messages

    def _cast_vote(self, step: int, value: int, final: bool = False) -> List[VoteMessage]:
        ctx = self._require_ctx()
        if not self.behavior.votes:
            return []
        role = Role.FINAL if final else Role.STEP
        proof = self._run_sortition(role, step=step)
        if not proof.selected:
            return []
        if self.behavior.equivocates:
            value = self._equivocated_value(value)
        signature = sign(self.keypair, "vote", ctx.round_index, step, value)
        self.counters.votes_cast += 1
        self._voted_any = True
        vote = VoteMessage(
            sender=self.node_id,
            round_index=ctx.round_index,
            step=step,
            value=value,
            proof=proof,
            signature=signature,
        )
        return [vote]

    def _equivocated_value(self, honest_value: int) -> int:
        options = [EMPTY_HASH, honest_value, *self._proposals.keys()]
        return self._rng.choice(options)

    def _run_sortition(self, role: Role, step: int) -> SortitionProof:
        ctx = self._require_ctx()
        expected = {
            Role.PROPOSER: ctx.tau_proposer,
            Role.STEP: ctx.tau_step,
            Role.FINAL: ctx.tau_final,
        }[role]
        self.counters.sortitions_run += 1
        return sortition(
            keypair=self.keypair,
            seed=ctx.sortition_seed,
            round_index=ctx.round_index,
            role=role,
            stake=self.stake,
            total_stake=ctx.total_stake,
            expected_size=expected,
            step=step,
        )

    # -- finalization ------------------------------------------------------------------

    def machine_conclusion(self) -> Optional[int]:
        """The value this node's BA* run concluded with, if any."""
        if self._machine is None or not self._machine.concluded:
            return None
        return self._machine.concluded_value

    def finalize_round(
        self, authoritative_entries: Optional[List[LedgerEntry]] = None
    ) -> RoundOutcome:
        """Classify the round outcome for this node and update its ledger.

        Implements the extraction logic behind paper Figure 3: FINAL needs a
        concluded value, the block content, and a FINAL-committee quorum;
        TENTATIVE is a conclusion without the final quorum; anything less is
        NONE ("cannot follow the ledger"), with catch-up via the
        authoritative chain when finality is observed.
        """
        ctx = self._require_ctx()
        if not self.behavior.is_online:
            return RoundOutcome(self.node_id, ConsensusLabel.NONE)
        value = self.machine_conclusion()
        if value is None:
            return RoundOutcome(self.node_id, ConsensusLabel.NONE)

        if value == EMPTY_HASH:
            empty = make_empty_block(
                ctx.round_index,
                self.ledger.tip().block_hash(),
                crypto.next_round_seed(ctx.sortition_seed, ctx.round_index),
            )
            self.ledger.append(empty, ConsensusLabel.TENTATIVE)
            return RoundOutcome(
                self.node_id, ConsensusLabel.TENTATIVE, value=value, concluded_empty=True
            )

        block = self._blocks.get(value)
        if block is None:
            return RoundOutcome(self.node_id, ConsensusLabel.NONE, value=value)

        final_votes = self._votes.get(FINAL_STEP, {}).values()
        final_value = count_votes(final_votes, ctx.tau_final, ctx.t_final)
        has_finality = final_value == value
        parent_matches = block.previous_hash == self.ledger.tip().block_hash()

        if has_finality:
            if parent_matches:
                self.ledger.append(block, ConsensusLabel.FINAL)
                return RoundOutcome(self.node_id, ConsensusLabel.FINAL, value=value)
            if authoritative_entries is not None:
                self.ledger.sync_to(authoritative_entries)
                return RoundOutcome(
                    self.node_id, ConsensusLabel.FINAL, value=value, caught_up=True
                )
            return RoundOutcome(
                self.node_id, ConsensusLabel.NONE, value=value, desynced=True
            )

        if parent_matches:
            self.ledger.append(block, ConsensusLabel.TENTATIVE)
            return RoundOutcome(self.node_id, ConsensusLabel.TENTATIVE, value=value)
        return RoundOutcome(self.node_id, ConsensusLabel.NONE, value=value, desynced=True)

    # -- role classification (for reward mechanisms) --------------------------------------

    @property
    def performed_leader(self) -> bool:
        """Whether this node actually proposed a block this round."""
        return self._proposed

    @property
    def performed_committee(self) -> bool:
        """Whether this node cast at least one committee vote this round."""
        return self._voted_any and not self._proposed

    def _require_ctx(self) -> RoundContext:
        if self._ctx is None:
            raise SimulationError(f"node {self.node_id} has no active round")
        return self._ctx
