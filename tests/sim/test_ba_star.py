"""Unit tests for the BA* consensus state machine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.ba_star import (
    EMPTY_HASH,
    FINAL_STEP,
    FIRST_BINARY_STEP,
    ConsensusStateMachine,
    Phase,
    StepKind,
    binary_step_kind,
    make_common_coin,
)

BLOCK = 777


def _machine(max_steps: int = 11, coin=lambda step: 0) -> ConsensusStateMachine:
    return ConsensusStateMachine(max_steps, coin)


class TestStepKinds:
    def test_cycle(self):
        kinds = [binary_step_kind(k) for k in range(1, 7)]
        assert kinds == [
            StepKind.BLOCK_BIASED,
            StepKind.EMPTY_BIASED,
            StepKind.COMMON_COIN,
            StepKind.BLOCK_BIASED,
            StepKind.EMPTY_BIASED,
            StepKind.COMMON_COIN,
        ]

    def test_invalid_step_raises(self):
        with pytest.raises(SimulationError):
            binary_step_kind(0)


class TestReduction:
    def test_start_votes_for_best_proposal(self):
        machine = _machine()
        step, value = machine.start(BLOCK)
        assert (step, value) == (1, BLOCK)

    def test_start_without_proposals_votes_empty(self):
        machine = _machine()
        assert machine.start(None) == (1, EMPTY_HASH)

    def test_double_start_raises(self):
        machine = _machine()
        machine.start(BLOCK)
        machine.on_step_result(1, BLOCK)
        with pytest.raises(SimulationError):
            machine.start(BLOCK)

    def test_reduction_one_passes_winner_to_step_two(self):
        machine = _machine()
        machine.start(BLOCK)
        directive = machine.on_step_result(1, BLOCK)
        assert directive.vote == (2, BLOCK)
        assert machine.phase is Phase.REDUCTION_TWO

    def test_reduction_one_timeout_votes_empty(self):
        machine = _machine()
        machine.start(BLOCK)
        directive = machine.on_step_result(1, None)
        assert directive.vote == (2, EMPTY_HASH)

    def test_reduction_two_feeds_binary(self):
        machine = _machine()
        machine.start(BLOCK)
        machine.on_step_result(1, BLOCK)
        directive = machine.on_step_result(2, BLOCK)
        assert directive.vote == (FIRST_BINARY_STEP, BLOCK)
        assert machine.phase is Phase.BINARY
        assert machine.binary_input == BLOCK

    def test_reduction_two_timeout_feeds_empty(self):
        machine = _machine()
        machine.start(BLOCK)
        machine.on_step_result(1, BLOCK)
        directive = machine.on_step_result(2, None)
        assert directive.vote == (FIRST_BINARY_STEP, EMPTY_HASH)

    def test_out_of_order_step_raises(self):
        machine = _machine()
        machine.start(BLOCK)
        with pytest.raises(SimulationError):
            machine.on_step_result(2, BLOCK)


def _run_to_binary(machine: ConsensusStateMachine, value=BLOCK):
    machine.start(value)
    machine.on_step_result(1, value)
    machine.on_step_result(2, value)


class TestBinaryCommonCase:
    def test_concludes_first_step_with_final_vote(self):
        machine = _machine()
        _run_to_binary(machine)
        directive = machine.on_step_result(FIRST_BINARY_STEP, BLOCK)
        assert directive.concluded
        assert machine.concluded_value == BLOCK
        assert directive.final_vote == BLOCK
        assert [step for step, _ in directive.helper_votes] == [
            FIRST_BINARY_STEP + 1,
            FIRST_BINARY_STEP + 2,
            FIRST_BINARY_STEP + 3,
        ]
        assert all(value == BLOCK for _, value in directive.helper_votes)

    def test_no_further_votes_after_conclusion(self):
        machine = _machine()
        _run_to_binary(machine)
        machine.on_step_result(FIRST_BINARY_STEP, BLOCK)
        directive = machine.on_step_result(FIRST_BINARY_STEP + 1, BLOCK)
        assert directive.vote is None and not directive.concluded


class TestBinaryPaths:
    def test_block_biased_timeout_falls_back_to_input(self):
        machine = _machine()
        _run_to_binary(machine)
        directive = machine.on_step_result(FIRST_BINARY_STEP, None)
        assert directive.vote == (FIRST_BINARY_STEP + 1, BLOCK)
        assert not machine.concluded

    def test_block_biased_empty_result_moves_to_empty_vote(self):
        machine = _machine()
        _run_to_binary(machine)
        directive = machine.on_step_result(FIRST_BINARY_STEP, EMPTY_HASH)
        assert directive.vote == (FIRST_BINARY_STEP + 1, EMPTY_HASH)

    def test_empty_biased_concludes_on_empty(self):
        machine = _machine()
        _run_to_binary(machine)
        machine.on_step_result(FIRST_BINARY_STEP, EMPTY_HASH)
        directive = machine.on_step_result(FIRST_BINARY_STEP + 1, EMPTY_HASH)
        assert directive.concluded
        assert machine.concluded_value == EMPTY_HASH
        assert directive.final_vote is None  # empty conclusions are never final

    def test_empty_biased_timeout_votes_empty(self):
        machine = _machine()
        _run_to_binary(machine)
        machine.on_step_result(FIRST_BINARY_STEP, None)
        directive = machine.on_step_result(FIRST_BINARY_STEP + 1, None)
        assert directive.vote == (FIRST_BINARY_STEP + 2, EMPTY_HASH)

    def test_empty_biased_block_result_carries_forward(self):
        machine = _machine()
        _run_to_binary(machine)
        machine.on_step_result(FIRST_BINARY_STEP, None)
        directive = machine.on_step_result(FIRST_BINARY_STEP + 1, BLOCK)
        assert directive.vote == (FIRST_BINARY_STEP + 2, BLOCK)

    def test_coin_timeout_zero_picks_block(self):
        machine = _machine(coin=lambda step: 0)
        _run_to_binary(machine)
        machine.on_step_result(FIRST_BINARY_STEP, None)
        machine.on_step_result(FIRST_BINARY_STEP + 1, None)
        directive = machine.on_step_result(FIRST_BINARY_STEP + 2, None)
        assert directive.vote == (FIRST_BINARY_STEP + 3, BLOCK)

    def test_coin_timeout_one_picks_empty(self):
        machine = _machine(coin=lambda step: 1)
        _run_to_binary(machine)
        machine.on_step_result(FIRST_BINARY_STEP, None)
        machine.on_step_result(FIRST_BINARY_STEP + 1, None)
        directive = machine.on_step_result(FIRST_BINARY_STEP + 2, None)
        assert directive.vote == (FIRST_BINARY_STEP + 3, EMPTY_HASH)

    def test_coin_step_result_carries_value(self):
        machine = _machine()
        _run_to_binary(machine)
        machine.on_step_result(FIRST_BINARY_STEP, None)
        machine.on_step_result(FIRST_BINARY_STEP + 1, None)
        directive = machine.on_step_result(FIRST_BINARY_STEP + 2, BLOCK)
        assert directive.vote == (FIRST_BINARY_STEP + 3, BLOCK)

    def test_conclusion_on_later_block_biased_step_is_not_final(self):
        machine = _machine()
        _run_to_binary(machine)
        machine.on_step_result(FIRST_BINARY_STEP, None)      # kind 1 timeout
        machine.on_step_result(FIRST_BINARY_STEP + 1, None)  # kind 2 timeout
        machine.on_step_result(FIRST_BINARY_STEP + 2, None)  # coin
        directive = machine.on_step_result(FIRST_BINARY_STEP + 3, BLOCK)
        assert directive.concluded
        assert directive.final_vote is None  # only step-1 conclusions are final


class TestExhaustion:
    def test_machine_fails_after_max_steps(self):
        machine = _machine(max_steps=3)
        _run_to_binary(machine)
        machine.on_step_result(FIRST_BINARY_STEP, None)
        machine.on_step_result(FIRST_BINARY_STEP + 1, None)
        directive = machine.on_step_result(FIRST_BINARY_STEP + 2, None)
        assert machine.failed
        assert directive.vote is None
        assert machine.concluded_value is None

    def test_helper_votes_truncated_near_budget(self):
        machine = _machine(max_steps=4)
        _run_to_binary(machine)
        machine.on_step_result(FIRST_BINARY_STEP, None)
        machine.on_step_result(FIRST_BINARY_STEP + 1, None)
        machine.on_step_result(FIRST_BINARY_STEP + 2, None)
        directive = machine.on_step_result(FIRST_BINARY_STEP + 3, BLOCK)
        assert directive.concluded
        assert directive.helper_votes == []  # no steps remain to help

    def test_min_binary_steps_enforced(self):
        with pytest.raises(SimulationError):
            ConsensusStateMachine(2, lambda step: 0)


class TestCommonCoin:
    def test_coin_is_binary(self):
        coin = make_common_coin(seed=5, round_index=2)
        assert all(coin(step) in (0, 1) for step in range(1, 30))

    def test_coin_is_deterministic_and_shared(self):
        a = make_common_coin(5, 2)
        b = make_common_coin(5, 2)
        assert [a(s) for s in range(1, 20)] == [b(s) for s in range(1, 20)]

    def test_coin_varies_with_round(self):
        a = [make_common_coin(5, 2)(s) for s in range(1, 30)]
        b = [make_common_coin(5, 3)(s) for s in range(1, 30)]
        assert a != b

    def test_final_step_constant_is_out_of_band(self):
        assert FINAL_STEP > 100
