"""Blocks, transactions and the per-node ledger view.

An Algorand block is either a set of transactions or the empty (default)
block; every block carries the round seed and the hash of the block it
extends (paper Section II-B2).  Consensus labels each appended block FINAL
or TENTATIVE (paper Section II-B3): tentative blocks are finalized
retroactively once a later block reaches final consensus on the same chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.errors import LedgerError
from repro.sim import crypto


class ConsensusLabel(str, Enum):
    """Outcome of one round of BA* for one node's view of the chain."""

    FINAL = "final"
    TENTATIVE = "tentative"
    NONE = "none"


@dataclass(frozen=True)
class Transaction:
    """A validated currency transfer included in a block."""

    from_account: int
    to_account: int
    amount: float
    nonce: int

    def digest(self) -> int:
        """Content hash identifying the transaction."""
        return crypto.sha256_int("txn", self.from_account, self.to_account, self.amount, self.nonce)


@dataclass(frozen=True)
class Block:
    """One block of the Algorand chain.

    ``proposer`` is ``None`` for the empty block, which exists independently
    of any leader (it is the default consensus fallback).
    """

    round_index: int
    previous_hash: int
    seed: int
    transactions: Tuple[Transaction, ...] = ()
    proposer: Optional[int] = None

    @property
    def is_empty(self) -> bool:
        """True for the default empty block (no proposer, no transactions)."""
        return self.proposer is None and not self.transactions

    def block_hash(self) -> int:
        """Content hash binding round, parent, seed, payload and proposer."""
        return crypto.sha256_int(
            "block",
            self.round_index,
            self.previous_hash,
            self.seed,
            tuple(t.digest() for t in self.transactions),
            self.proposer,
        )


def make_empty_block(round_index: int, previous_hash: int, seed: int) -> Block:
    """The default empty block for a round (consensus fallback value)."""
    return Block(round_index=round_index, previous_hash=previous_hash, seed=seed)


@dataclass
class LedgerEntry:
    """A block appended to a node's chain together with its consensus label."""

    block: Block
    label: ConsensusLabel


class Ledger:
    """One node's view of the blockchain.

    Tracks the chain of appended blocks, the label (final/tentative) of each,
    and implements retroactive finalization: when a FINAL block is appended,
    every earlier TENTATIVE ancestor becomes final too, because final
    consensus on a block certifies its whole prefix (paper Section II-B3 and
    the re-synchronization effect visible in Figure 3 around rounds 17-20).
    """

    def __init__(self, genesis_seed: int = 0) -> None:
        genesis = Block(round_index=0, previous_hash=0, seed=genesis_seed)
        self._entries: List[LedgerEntry] = [LedgerEntry(genesis, ConsensusLabel.FINAL)]
        self._by_hash: Dict[int, int] = {genesis.block_hash(): 0}

    @property
    def height(self) -> int:
        """Number of blocks appended after genesis."""
        return len(self._entries) - 1

    @property
    def genesis(self) -> Block:
        """The genesis block."""
        return self._entries[0].block

    def tip(self) -> Block:
        """The most recently appended block."""
        return self._entries[-1].block

    def tip_label(self) -> ConsensusLabel:
        """Consensus label of the most recently appended block."""
        return self._entries[-1].label

    def entries(self) -> List[LedgerEntry]:
        """All entries, genesis first (returns a copy)."""
        return list(self._entries)

    def append(self, block: Block, label: ConsensusLabel) -> None:
        """Append ``block`` with ``label``, enforcing chain integrity."""
        if label is ConsensusLabel.NONE:
            raise LedgerError("cannot append a block with label NONE")
        tip = self.tip()
        if block.previous_hash != tip.block_hash():
            raise LedgerError(
                f"block for round {block.round_index} extends {block.previous_hash}, "
                f"but the tip hash is {tip.block_hash()}"
            )
        if block.round_index <= tip.round_index and self.height > 0:
            raise LedgerError(
                f"block round {block.round_index} does not advance past tip round "
                f"{tip.round_index}"
            )
        self._entries.append(LedgerEntry(block, label))
        self._by_hash[block.block_hash()] = len(self._entries) - 1
        if label is ConsensusLabel.FINAL:
            self._finalize_prefix()

    def _finalize_prefix(self) -> None:
        """Upgrade every tentative ancestor of the (final) tip to final."""
        for entry in self._entries[:-1]:
            if entry.label is ConsensusLabel.TENTATIVE:
                entry.label = ConsensusLabel.FINAL

    def contains(self, block_hash: int) -> bool:
        """Whether a block with this hash is on the chain."""
        return block_hash in self._by_hash

    def get(self, block_hash: int) -> Block:
        """The block with this hash; raises ``LedgerError`` if unknown."""
        index = self._by_hash.get(block_hash)
        if index is None:
            raise LedgerError(f"unknown block hash {block_hash}")
        return self._entries[index].block

    def label_of(self, block_hash: int) -> ConsensusLabel:
        """Consensus label of the block with this hash."""
        index = self._by_hash.get(block_hash)
        if index is None:
            raise LedgerError(f"unknown block hash {block_hash}")
        return self._entries[index].label

    def final_height(self) -> int:
        """Number of appended blocks whose label is FINAL."""
        return sum(
            1 for entry in self._entries[1:] if entry.label is ConsensusLabel.FINAL
        )

    def tentative_height(self) -> int:
        """Number of appended blocks still labelled TENTATIVE."""
        return sum(
            1 for entry in self._entries[1:] if entry.label is ConsensusLabel.TENTATIVE
        )
