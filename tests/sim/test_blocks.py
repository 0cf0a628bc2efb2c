"""Unit tests for blocks, transactions, and the ledger."""

from __future__ import annotations

import pytest

from repro.errors import LedgerError
from repro.sim.blocks import (
    Block,
    ConsensusLabel,
    Ledger,
    LedgerEntry,
    Transaction,
    make_empty_block,
)


def _block_on(ledger: Ledger, round_index: int, proposer: int = 1) -> Block:
    return Block(
        round_index=round_index,
        previous_hash=ledger.tip().block_hash(),
        seed=round_index * 17,
        transactions=(Transaction(1, 2, 3.0, nonce=round_index),),
        proposer=proposer,
    )


class TestBlock:
    def test_hash_is_content_sensitive(self):
        a = Block(1, 0, 5, (Transaction(1, 2, 3.0, 0),), proposer=1)
        b = Block(1, 0, 5, (Transaction(1, 2, 4.0, 0),), proposer=1)
        assert a.block_hash() != b.block_hash()

    def test_hash_is_deterministic(self):
        a = Block(1, 0, 5, (), proposer=1)
        assert a.block_hash() == Block(1, 0, 5, (), proposer=1).block_hash()

    def test_empty_block_flag(self):
        assert make_empty_block(3, 0, 1).is_empty
        assert not Block(1, 0, 5, (), proposer=1).is_empty

    def test_transaction_digest_distinguishes_nonce(self):
        assert Transaction(1, 2, 3.0, 0).digest() != Transaction(1, 2, 3.0, 1).digest()


class TestLedgerAppend:
    def test_starts_with_final_genesis(self):
        ledger = Ledger()
        assert ledger.height == 0
        assert ledger.tip_label() is ConsensusLabel.FINAL

    def test_append_final_block(self):
        ledger = Ledger()
        ledger.append(_block_on(ledger, 1), ConsensusLabel.FINAL)
        assert ledger.height == 1
        assert ledger.final_height() == 1

    def test_append_rejects_wrong_parent(self):
        ledger = Ledger()
        orphan = Block(1, previous_hash=12345, seed=1, proposer=1)
        with pytest.raises(LedgerError):
            ledger.append(orphan, ConsensusLabel.FINAL)

    def test_append_rejects_label_none(self):
        ledger = Ledger()
        with pytest.raises(LedgerError):
            ledger.append(_block_on(ledger, 1), ConsensusLabel.NONE)

    def test_append_rejects_non_advancing_round(self):
        ledger = Ledger()
        ledger.append(_block_on(ledger, 5), ConsensusLabel.FINAL)
        stale = _block_on(ledger, 5)
        with pytest.raises(LedgerError):
            ledger.append(stale, ConsensusLabel.FINAL)

    def test_rounds_may_skip(self):
        """Failed rounds produce no block; the next block may jump rounds."""
        ledger = Ledger()
        ledger.append(_block_on(ledger, 1), ConsensusLabel.FINAL)
        ledger.append(_block_on(ledger, 4), ConsensusLabel.FINAL)
        assert ledger.height == 2

    def test_lookup_by_hash(self):
        ledger = Ledger()
        block = _block_on(ledger, 1)
        ledger.append(block, ConsensusLabel.TENTATIVE)
        assert ledger.contains(block.block_hash())
        assert ledger.get(block.block_hash()) == block
        assert ledger.label_of(block.block_hash()) is ConsensusLabel.TENTATIVE

    def test_lookup_unknown_hash_raises(self):
        ledger = Ledger()
        with pytest.raises(LedgerError):
            ledger.get(999)
        with pytest.raises(LedgerError):
            ledger.label_of(999)


class TestRetroactiveFinalization:
    def test_final_block_finalizes_tentative_prefix(self):
        ledger = Ledger()
        ledger.append(_block_on(ledger, 1), ConsensusLabel.TENTATIVE)
        ledger.append(_block_on(ledger, 2), ConsensusLabel.TENTATIVE)
        assert ledger.tentative_height() == 2
        ledger.append(_block_on(ledger, 3), ConsensusLabel.FINAL)
        assert ledger.tentative_height() == 0
        assert ledger.final_height() == 3

    def test_tentative_append_does_not_finalize(self):
        ledger = Ledger()
        ledger.append(_block_on(ledger, 1), ConsensusLabel.TENTATIVE)
        ledger.append(_block_on(ledger, 2), ConsensusLabel.TENTATIVE)
        assert ledger.final_height() == 0


class TestLedgerEntries:
    def test_entries_returns_copy(self):
        ledger = Ledger()
        entries = ledger.entries()
        entries.append(LedgerEntry(make_empty_block(1, 0, 0), ConsensusLabel.TENTATIVE))
        assert ledger.height == 0
