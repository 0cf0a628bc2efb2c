"""Columnar struct-of-arrays agent populations and the chunk-stable math.

A :class:`PopulationArrays` holds one population (or one *chunk* of a
streamed population) as three parallel numpy columns instead of per-agent
Python objects:

* ``stake`` — the agent's stake in Algos (``float64`` by default, with an
  opt-in ``float32`` storage mode for halved memory),
* ``cost`` — a per-agent multiplier on the role cooperation costs
  (heterogeneous infrastructure: an agent with ``cost = 2.0`` pays twice
  the paper's Section V-A cost to perform any role), and
* ``behavior`` — an ``int8`` strategy code (:data:`BEHAVIOR_COOPERATE`,
  :data:`BEHAVIOR_DEFECT`, :data:`BEHAVIOR_OFFLINE`).

Per-agent Python objects cost ~1 KB each (dataclass + dict + boxed
floats), capping the old layers near 10^4 agents; the columnar layout is
~17 bytes/agent, so 10^7 agents fit in ~170 MB — and consumers that use
:meth:`~repro.populations.spec.PopulationSpec.iter_chunks` never hold more
than one chunk at a time.

The module also defines the **seed-block discipline** shared by every
streaming consumer: populations are generated and reduced in fixed blocks
of :data:`SEED_BLOCK` agents, so any result computed through
:func:`blockwise_sum` / :func:`blockwise_row_sums` is bit-identical no
matter how the stream was chunked (chunks always span whole blocks).  A
reduction split across slices returns per-block partials
(:func:`block_sums` / :func:`block_row_sums`) that the caller replays in
block order (:func:`add_blocks`), with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.populations import DEFAULT_CHUNK_AGENTS, SEED_BLOCK  # noqa: F401 (re-exported)
from repro.stakes.distributions import MAX_POPULATION

#: Populations are capped at int32 indexing range — the same limit (and
#: the same constant) as :data:`repro.stakes.distributions.MAX_POPULATION`;
#: beyond it, per-agent index arithmetic silently breaks.
MAX_AGENTS = MAX_POPULATION

#: Supported stake/cost storage dtypes, keyed by their spec names.
DTYPES: Mapping[str, np.dtype] = {
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
}

#: Behavior codes carried by the ``behavior`` column.
BEHAVIOR_COOPERATE = 0
BEHAVIOR_DEFECT = 1
BEHAVIOR_OFFLINE = 2


def resolve_dtype(name: str) -> np.dtype:
    """Map a spec dtype name (``"float64"``/``"float32"``) to a numpy dtype."""
    try:
        return DTYPES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown population dtype {name!r}; choose from {sorted(DTYPES)}"
        ) from None


@dataclass
class PopulationArrays:
    """One population (or population chunk) in struct-of-arrays form.

    Attributes
    ----------
    stake / cost / behavior:
        Parallel 1-D columns, one entry per agent (see module docstring).
    offset:
        Global index of this chunk's first agent within the full
        population — 0 for a whole population, a multiple of
        :data:`SEED_BLOCK` for streamed chunks.  Lets consumers report
        per-agent findings (deviation witnesses, committee members) in
        global coordinates without materializing the population.
    """

    stake: np.ndarray
    cost: np.ndarray
    behavior: np.ndarray
    offset: int = 0

    def __post_init__(self) -> None:
        self.stake = np.asarray(self.stake)
        self.cost = np.asarray(self.cost)
        self.behavior = np.asarray(self.behavior, dtype=np.int8)
        if self.stake.ndim != 1 or self.stake.size == 0:
            raise ConfigurationError("stake column must be a non-empty 1-D array")
        if (
            self.stake.shape != self.cost.shape
            or self.cost.shape != self.behavior.shape
        ):
            raise ConfigurationError(
                f"population columns disagree in shape: stake {self.stake.shape}, "
                f"cost {self.cost.shape}, behavior {self.behavior.shape}"
            )
        if self.stake.dtype not in (np.float64, np.float32):
            raise ConfigurationError(
                f"stake column must be float32/float64, got {self.stake.dtype}"
            )
        if not np.all(np.isfinite(self.stake)) or float(self.stake.min()) <= 0.0:
            raise ConfigurationError("stakes must be positive and finite")
        if not np.all(np.isfinite(self.cost)) or float(self.cost.min()) <= 0.0:
            raise ConfigurationError("cost multipliers must be positive and finite")
        if self.behavior.min() < BEHAVIOR_COOPERATE or self.behavior.max() > BEHAVIOR_OFFLINE:
            raise ConfigurationError(
                "behavior codes must be 0 (cooperate), 1 (defect) or 2 (offline)"
            )
        if self.offset < 0:
            raise ConfigurationError(f"offset must be >= 0, got {self.offset}")

    # -- shape ---------------------------------------------------------------

    @property
    def n_agents(self) -> int:
        """Number of agents in this chunk."""
        return int(self.stake.size)

    @property
    def dtype(self) -> str:
        """Spec-style dtype name of the stake/cost columns."""
        return str(self.stake.dtype)

    @property
    def nbytes(self) -> int:
        """Total memory held by the three columns, in bytes."""
        return int(self.stake.nbytes + self.cost.nbytes + self.behavior.nbytes)

    # -- derived views -------------------------------------------------------

    def stake64(self) -> np.ndarray:
        """The stake column widened to float64 (all audit math runs in 64-bit).

        A no-op view for float64 populations; a copy for float32 ones.
        Widening once per chunk keeps the float32 mode a *storage* choice:
        the arithmetic downstream is always performed at full precision on
        the cast-rounded inputs.
        """
        if self.stake.dtype == np.float64:
            return self.stake
        return self.stake.astype(np.float64)

    def cost64(self) -> np.ndarray:
        """The cost column widened to float64 (see :meth:`stake64`)."""
        if self.cost.dtype == np.float64:
            return self.cost
        return self.cost.astype(np.float64)

    def cooperation_share(self) -> float:
        """Fraction of agents whose behavior code is cooperate."""
        return float(np.mean(self.behavior == BEHAVIOR_COOPERATE))

    def summary(self) -> Dict[str, float]:
        """Summary statistics (mirrors :func:`repro.stakes.summarize`)."""
        stake = self.stake64()
        total = blockwise_sum(stake)
        return {
            "n": float(self.n_agents),
            "total": total,
            "mean": total / self.n_agents,
            "min": float(stake.min()),
            "max": float(stake.max()),
            "cooperation": self.cooperation_share(),
            "mean_cost": blockwise_sum(self.cost64()) / self.n_agents,
        }

    # -- assembly ------------------------------------------------------------

    @classmethod
    def _trusted(
        cls,
        stake: np.ndarray,
        cost: np.ndarray,
        behavior: np.ndarray,
        offset: int,
    ) -> "PopulationArrays":
        """Construct without re-running column validation.

        For internal assembly of columns that are *already* validated
        (concatenations of checked chunks, generator output the spec has
        vetted) — per-element validation is O(n) and shows up on the
        streaming hot path when repeated per pass.
        """
        instance = cls.__new__(cls)
        instance.stake = stake
        instance.cost = cost
        instance.behavior = behavior
        instance.offset = offset
        return instance

    def rows(self, start: int, stop: int) -> "PopulationArrays":
        """Agents ``[start, stop)`` of this chunk as a view chunk.

        The columns are views, and ``offset`` moves by ``start``, so a
        block-aligned ``start`` yields a block-aligned chunk.
        """
        return PopulationArrays._trusted(
            stake=self.stake[start:stop],
            cost=self.cost[start:stop],
            behavior=self.behavior[start:stop],
            offset=self.offset + start,
        )

    @classmethod
    def concat(cls, chunks: Sequence["PopulationArrays"]) -> "PopulationArrays":
        """Stitch consecutive chunks back into one contiguous population.

        Chunks must be contiguous (each chunk's ``offset`` continues the
        previous one), which is what every streaming iterator produces.
        The inputs were validated at construction, so the concatenation
        is assembled without a redundant full-column re-scan.
        """
        if not chunks:
            raise ConfigurationError("cannot concatenate an empty chunk list")
        expected = chunks[0].offset
        for chunk in chunks:
            if chunk.offset != expected:
                raise ConfigurationError(
                    f"chunks are not contiguous: expected offset {expected}, "
                    f"got {chunk.offset}"
                )
            expected += chunk.n_agents
        return cls._trusted(
            stake=np.concatenate([chunk.stake for chunk in chunks]),
            cost=np.concatenate([chunk.cost for chunk in chunks]),
            behavior=np.concatenate([chunk.behavior for chunk in chunks]),
            offset=chunks[0].offset,
        )


# -- chunk-stable reductions -------------------------------------------------


def block_sums(values: np.ndarray) -> np.ndarray:
    """Per-block sums of a 1-D array: one float64 per :data:`SEED_BLOCK` segment.

    The partial-sum form of :func:`blockwise_sum`.  A reduction split
    across threads or slices (each spanning whole blocks) returns these
    partials, and the caller replays them in block order with
    :func:`add_blocks`: the same float additions, so the same bits.
    The whole blocks are summed as the rows of one ``(blocks,
    SEED_BLOCK)`` view and the tail block on its own: each row is the
    one contiguous reduction ``np.sum`` makes of that block alone.
    """
    full = len(values) // SEED_BLOCK * SEED_BLOCK
    sums = values[:full].reshape(-1, SEED_BLOCK).sum(axis=-1, dtype=np.float64)
    if full == len(values):
        return sums
    return np.append(sums, np.sum(values[full:], dtype=np.float64))


def block_row_sums(matrix: np.ndarray) -> np.ndarray:
    """Per-block row sums of a ``(rows, agents)`` matrix, shape ``(blocks, rows)``.

    Row ``b`` of the result sums block ``b``'s columns of every row: the
    partial-sum form of :func:`blockwise_row_sums`.  Column ``p`` equals
    :func:`block_sums` of ``matrix[p]``, bit for bit.
    """
    rows, n = matrix.shape
    full = n // SEED_BLOCK * SEED_BLOCK
    sums = matrix[:, :full].reshape(rows, -1, SEED_BLOCK).sum(axis=-1, dtype=np.float64)
    if full != n:
        tail = matrix[:, full:].sum(axis=1, dtype=np.float64)
        sums = np.concatenate([sums, tail[:, None]], axis=1)
    return np.ascontiguousarray(sums.T)


def add_blocks(start, partials: np.ndarray):
    """Add per-block partials to a running total, one block at a time, in order.

    ``start`` is a float (with :func:`block_sums` partials) or a
    ``(rows,)`` vector (with :func:`block_row_sums` partials); the
    result has the same form.  Left-to-right addition in block order is
    the one summation order every chunk-stable reduction uses.
    """
    total = start
    for partial in partials:
        total = total + partial
    return total


def blockwise_sum(values: np.ndarray, start: float = 0.0) -> float:
    """Sum a 1-D array in fixed :data:`SEED_BLOCK` segments, in order.

    Floating-point addition is not associative, so a naive ``np.sum`` over
    a whole population and a sum of per-chunk partial sums differ in the
    last bits — which would make streamed results depend on the chunk
    size.  Fixing the reduction granularity at the seed block (chunks
    always span whole blocks) removes that dependence: both the monolithic
    and every chunked path perform the *identical* sequence of additions.

    ``start`` carries the running total across chunks; pass the previous
    chunk's return value to continue a streaming reduction.
    """
    return float(add_blocks(float(start), block_sums(values)))


def blockwise_row_sums(
    matrix: np.ndarray, start: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row-wise :func:`blockwise_sum` for a ``(rows, agents)`` matrix.

    Used for per-pool weight totals: ``rows`` is the (small) pool axis and
    ``agents`` the chunk axis.  Returns a fresh float64 vector; pass the
    previous chunk's result as ``start`` to continue a streaming total.
    """
    totals = (
        np.zeros(matrix.shape[0], dtype=np.float64)
        if start is None
        else np.asarray(start, dtype=np.float64).copy()
    )
    return add_blocks(totals, block_row_sums(matrix))
