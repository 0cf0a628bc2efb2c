"""Unit tests for the columnar population arrays and chunk-stable sums."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.populations import (
    SEED_BLOCK,
    PopulationArrays,
    blockwise_row_sums,
    blockwise_sum,
    resolve_dtype,
)
from repro.populations.arrays import add_blocks, block_row_sums, block_sums


def _population(n: int = 10, dtype=np.float64) -> PopulationArrays:
    return PopulationArrays(
        stake=np.linspace(1.0, 5.0, n).astype(dtype),
        cost=np.ones(n, dtype=dtype),
        behavior=np.zeros(n, dtype=np.int8),
    )


class TestPopulationArrays:
    def test_columns_validated(self):
        with pytest.raises(ConfigurationError):
            PopulationArrays(
                stake=np.array([1.0, -2.0]),
                cost=np.ones(2),
                behavior=np.zeros(2, dtype=np.int8),
            )
        with pytest.raises(ConfigurationError):
            PopulationArrays(
                stake=np.array([1.0, np.nan]),
                cost=np.ones(2),
                behavior=np.zeros(2, dtype=np.int8),
            )
        with pytest.raises(ConfigurationError):
            PopulationArrays(
                stake=np.ones(3), cost=np.ones(2), behavior=np.zeros(3, dtype=np.int8)
            )
        with pytest.raises(ConfigurationError):
            PopulationArrays(
                stake=np.ones(2),
                cost=np.ones(2),
                behavior=np.array([0, 7], dtype=np.int8),
            )

    def test_integer_stakes_rejected(self):
        with pytest.raises(ConfigurationError):
            PopulationArrays(
                stake=np.ones(2, dtype=np.int64),
                cost=np.ones(2),
                behavior=np.zeros(2, dtype=np.int8),
            )

    def test_memory_footprint_is_columnar(self):
        pop = _population(1000)
        # 8 + 8 + 1 bytes per agent: three columns, no per-agent objects.
        assert pop.nbytes == 1000 * 17

    def test_float32_halves_stake_memory(self):
        full = _population(1000)
        half = _population(1000, dtype=np.float32)
        assert half.stake.nbytes == full.stake.nbytes // 2
        assert half.dtype == "float32"

    def test_stake64_is_view_for_float64(self):
        pop = _population(8)
        assert pop.stake64() is pop.stake
        pop32 = _population(8, dtype=np.float32)
        assert pop32.stake64().dtype == np.float64

    def test_concat_requires_contiguity(self):
        a = _population(4)
        b = _population(4)
        b.offset = 4
        merged = PopulationArrays.concat([a, b])
        assert merged.n_agents == 8
        c = _population(4)
        c.offset = 9
        with pytest.raises(ConfigurationError):
            PopulationArrays.concat([a, c])

    def test_summary_fields(self):
        pop = _population(10)
        summary = pop.summary()
        assert summary["n"] == 10
        assert summary["min"] == 1.0 and summary["max"] == 5.0
        assert summary["cooperation"] == 1.0

    def test_resolve_dtype(self):
        assert resolve_dtype("float32") == np.float32
        with pytest.raises(ConfigurationError):
            resolve_dtype("float16")


class TestBlockwiseSums:
    def test_matches_fsum_on_block_boundaries(self):
        rng = np.random.default_rng(0)
        values = rng.random(2 * SEED_BLOCK + 17)
        import math

        assert blockwise_sum(values) == pytest.approx(math.fsum(values), rel=1e-12)

    def test_resumable_across_chunks(self):
        rng = np.random.default_rng(1)
        values = rng.random(3 * SEED_BLOCK)
        whole = blockwise_sum(values)
        running = 0.0
        for start in range(0, values.size, SEED_BLOCK):
            running = blockwise_sum(values[start : start + SEED_BLOCK], start=running)
        assert running == whole  # bitwise: the same addition sequence

    def test_row_sums_resumable(self):
        rng = np.random.default_rng(2)
        matrix = rng.random((3, 2 * SEED_BLOCK))
        whole = blockwise_row_sums(matrix)
        running = None
        for start in range(0, matrix.shape[1], SEED_BLOCK):
            running = blockwise_row_sums(
                matrix[:, start : start + SEED_BLOCK], start=running
            )
        assert np.array_equal(running, whole)


def _loop_sum(values: np.ndarray) -> float:
    """Reference: the seed-block loop written out, one float add per block."""
    total = 0.0
    for begin in range(0, len(values), SEED_BLOCK):
        total = total + float(
            np.sum(values[begin : begin + SEED_BLOCK], dtype=np.float64)
        )
    return total


def _loop_row_sums(matrix: np.ndarray) -> np.ndarray:
    """Reference: the row-wise seed-block loop written out."""
    totals = np.zeros(matrix.shape[0], dtype=np.float64)
    for begin in range(0, matrix.shape[1], SEED_BLOCK):
        totals = totals + matrix[:, begin : begin + SEED_BLOCK].sum(
            axis=1, dtype=np.float64
        )
    return totals


def _loop_block_sums(values: np.ndarray) -> np.ndarray:
    """Reference: per-block sums as a Python loop over the seed blocks."""
    return np.array(
        [
            np.sum(values[begin : begin + SEED_BLOCK], dtype=np.float64)
            for begin in range(0, len(values), SEED_BLOCK)
        ],
        dtype=np.float64,
    )


def _loop_block_row_sums(matrix: np.ndarray) -> np.ndarray:
    """Reference: per-block row sums as a Python loop, shape ``(blocks, rows)``."""
    sums = [
        matrix[:, begin : begin + SEED_BLOCK].sum(axis=1, dtype=np.float64)
        for begin in range(0, matrix.shape[1], SEED_BLOCK)
    ]
    return np.array(sums, dtype=np.float64).reshape(len(sums), matrix.shape[0])


@st.composite
def _block_matrix(draw):
    """A ``(rows, n)`` float64 or float32 matrix of any length.

    Lengths fall below one block, on exact block multiples or leave an
    odd tail; values mix signs and many decades, so a changed order of
    the float additions shows in the last bits.
    """
    blocks = draw(st.integers(min_value=0, max_value=4))
    tail = draw(
        st.sampled_from([0, 1, 2, SEED_BLOCK - 1])
        | st.integers(min_value=0, max_value=SEED_BLOCK - 1)
    )
    rows = draw(st.integers(min_value=1, max_value=4))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = blocks * SEED_BLOCK + tail
    values = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (rows, n))
    return values.astype(dtype)


@settings(max_examples=60, deadline=None)
@given(matrix=_block_matrix())
def test_block_reductions_match_the_per_block_loop(matrix):
    """The reshaped reductions give the per-block loop's bits at any length
    and dtype, and row ``p`` of :func:`block_row_sums` is
    :func:`block_sums` of row ``p`` (the streamed measure pass sums one
    pool row at a time)."""
    by_row = block_row_sums(matrix)
    expected = _loop_block_row_sums(matrix)
    assert by_row.shape == expected.shape
    assert by_row.tobytes() == expected.tobytes()
    for p, row in enumerate(matrix):
        sums = block_sums(row)
        assert sums.dtype == np.float64
        assert sums.tobytes() == _loop_block_sums(row).tobytes()
        assert by_row[:, p].tobytes() == sums.tobytes()


@st.composite
def _cut_population(draw):
    """``(values, block-aligned cut points)`` spanning a few seed blocks.

    Values mix signs and sixteen decades, so any change in the order of
    the float additions shows in the last bits.
    """
    blocks = draw(st.integers(min_value=1, max_value=6))
    size = (blocks - 1) * SEED_BLOCK + draw(st.integers(min_value=1, max_value=SEED_BLOCK))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = rng.standard_normal(size) * 10.0 ** rng.uniform(-8.0, 8.0, size)
    inner = draw(st.sets(st.integers(min_value=1, max_value=blocks - 1))) if blocks > 1 else set()
    cuts = [0] + [block * SEED_BLOCK for block in sorted(inner)] + [size]
    return values, cuts


@settings(max_examples=30, deadline=None)
@given(case=_cut_population())
def test_block_partials_of_cut_pieces_replay_the_blockwise_sum(case):
    """Folding each block-aligned piece's partials in order gives the bits
    of the whole-array reduction, and of the written-out loop."""
    values, cuts = case
    running = 0.0
    for start, stop in zip(cuts, cuts[1:]):
        running = add_blocks(running, block_sums(values[start:stop]))
    assert float(running) == blockwise_sum(values) == _loop_sum(values)


@settings(max_examples=30, deadline=None)
@given(case=_cut_population(), rows=st.integers(min_value=1, max_value=4))
def test_block_row_partials_of_cut_pieces_replay_the_row_sums(case, rows):
    """The ``(P, n)`` form: per-block row sums of the pieces, folded in
    order, equal :func:`blockwise_row_sums` bit for bit."""
    values, cuts = case
    matrix = np.stack([np.roll(values, shift) * (1 + shift) for shift in range(rows)])
    running = np.zeros(rows, dtype=np.float64)
    for start, stop in zip(cuts, cuts[1:]):
        partials = block_row_sums(matrix[:, start:stop])
        assert partials.shape == (-(-(stop - start) // SEED_BLOCK), rows)
        running = add_blocks(running, partials)
    whole = blockwise_row_sums(matrix)
    assert running.tobytes() == whole.tobytes() == _loop_row_sums(matrix).tobytes()
