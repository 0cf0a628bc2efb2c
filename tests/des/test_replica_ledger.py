"""The DES replica ledger's catch-up to the authoritative chain."""

from __future__ import annotations

import pytest

from repro.errors import LedgerError
from repro.sim.blocks import Block, ConsensusLabel, Ledger, Transaction, make_empty_block

from des.node import ReplicaLedger


def _block_on(ledger: Ledger, round_index: int, proposer: int = 1) -> Block:
    return Block(
        round_index=round_index,
        previous_hash=ledger.tip().block_hash(),
        seed=round_index * 17,
        transactions=(Transaction(1, 2, 3.0, nonce=round_index),),
        proposer=proposer,
    )


class TestSyncTo:
    def _authoritative(self, rounds, label=ConsensusLabel.FINAL) -> Ledger:
        ledger = Ledger()
        for r in rounds:
            ledger.append(_block_on(ledger, r), label)
        return ledger

    def test_sync_adopts_missing_suffix(self):
        authoritative = self._authoritative([1, 2, 3])
        replica = ReplicaLedger()
        adopted = replica.sync_to(authoritative.entries())
        assert adopted == 3
        assert replica.tip().block_hash() == authoritative.tip().block_hash()

    def test_sync_replaces_conflicting_tentative_suffix(self):
        authoritative = self._authoritative([1])
        replica = ReplicaLedger()
        # The replica concluded an empty block for round 1 (tentative fork).
        empty = make_empty_block(1, replica.tip().block_hash(), seed=0)
        replica.append(empty, ConsensusLabel.TENTATIVE)
        replica.sync_to(authoritative.entries())
        assert replica.tip().block_hash() == authoritative.tip().block_hash()
        assert replica.tentative_height() == 0

    def test_sync_never_replaces_final_blocks(self):
        authoritative = self._authoritative([1])
        replica = ReplicaLedger()
        fork = Block(1, replica.tip().block_hash(), seed=99, proposer=7)
        replica.append(fork, ConsensusLabel.FINAL)
        with pytest.raises(LedgerError):
            replica.sync_to(authoritative.entries())

    def test_sync_requires_shared_genesis(self):
        replica = ReplicaLedger()
        alien = Ledger(genesis_seed=12345)
        with pytest.raises(LedgerError):
            replica.sync_to(alien.entries())

    def test_sync_is_idempotent(self):
        authoritative = self._authoritative([1, 2])
        replica = ReplicaLedger()
        replica.sync_to(authoritative.entries())
        assert replica.sync_to(authoritative.entries()) == 0
