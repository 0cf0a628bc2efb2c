"""Population specifications: declarative, streamable, chunk-stable.

A :class:`PopulationSpec` names a population *by reference* — generator
family, parameters, size, dtype and seed — instead of materializing it.
The spec is plain JSON data, so it travels through sweep shards and
content-addressed cache keys exactly like every other experiment
parameter (the same discipline as
:meth:`repro.scenarios.spec.ScenarioSpec.to_params`).

Agents are synthesized lazily in fixed blocks of
:data:`~repro.populations.arrays.SEED_BLOCK` agents.  Block ``b`` of a
spec draws every column from its own substream seeded by SHA-256 of
``(spec seed, spec identity, block index, column name)`` — the same
:func:`repro.sim.rng.derive_seed` discipline as the sweep orchestrator's
shards.  Because blocks are generated independently and chunks always
span whole blocks, **the stream is bit-identical no matter which
``chunk_agents`` a consumer asks for** — materializing the whole
population and concatenating any chunking of it produce the same arrays,
which the property suite (``tests/properties/test_chunk_equivalence.py``)
asserts.

Consumers that stream the same population several times in one call
(the audit's structure and gain passes, the dynamics driver's two passes
per epoch) take a re-iterable source from :meth:`PopulationSpec.chunks`
instead: populations whose columns fit in :data:`RESIDENT_BYTES` are
synthesized once and held read-only for as long as the caller keeps the
source, and larger ones are re-synthesized per pass exactly as
:meth:`PopulationSpec.iter_chunks` does.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro.errors import ConfigurationError
from repro.populations.arrays import (
    BEHAVIOR_DEFECT,
    DEFAULT_CHUNK_AGENTS,
    DTYPES,
    MAX_AGENTS,
    SEED_BLOCK,
    PopulationArrays,
    blockwise_sum,
    resolve_dtype,
)
from repro.populations.generators import resolve_sampler
from repro.sim.rng import derive_seed
from repro.telemetry.runtime import get_registry

#: Column budget, in bytes, below which :meth:`PopulationSpec.chunks`
#: synthesizes a population once and holds it resident (stake + cost at
#: the spec's dtype plus one behavior byte per agent).  8 MiB keeps
#: float64 populations of up to ~490k agents resident; larger ones stream.
RESIDENT_BYTES = 8 << 20


def _agent_count(label: str, value: Any) -> int:
    """An integral agent count as a plain ``int`` (numpy integers included).

    Bools and floats are refused: ``True`` is not a population of one,
    and ``20000.0`` would only fail later, mid-stream, inside ``range``.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(
            f"{label} must be an integer, got {value!r} ({type(value).__name__})"
        )
    return int(value)


def _read_only(chunk: PopulationArrays) -> PopulationArrays:
    """Freeze a chunk's columns so a consumer cannot corrupt a later pass."""
    for column in (chunk.stake, chunk.cost, chunk.behavior):
        column.flags.writeable = False
    return chunk


class _StreamedChunks:
    """A re-iterable chunk source that re-synthesizes on every iteration."""

    def __init__(self, spec: "PopulationSpec", chunk_agents: Optional[int]) -> None:
        self._spec = spec
        self._chunk_agents = chunk_agents

    def __iter__(self) -> Iterator[PopulationArrays]:
        return self._spec.iter_chunks(self._chunk_agents)


def _canonical(value: Any) -> str:
    """Canonical (sorted, compact) JSON used for spec identities."""
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"population parameters must be JSON-serializable plain data: {exc}"
        ) from exc


@dataclass(frozen=True)
class PopulationSpec:
    """One population, by reference: family + params + size + dtype + seed.

    Parameters
    ----------
    family / params:
        A generator family registered in
        :mod:`repro.populations.generators` and its parameter overrides.
    size:
        Number of agents, up to :data:`~repro.populations.arrays.MAX_AGENTS`
        (int32 indexing range).
    cooperation:
        Fraction of agents whose ``behavior`` column is cooperate; the
        rest are defect.  Drawn per agent from the block's ``behavior``
        substream.
    cost_jitter:
        Log-space sigma of a mean-one lognormal per-agent cost multiplier
        (0 disables jitter: every agent pays exactly the role costs).
    dtype:
        Storage dtype of the stake/cost columns: ``"float64"`` (default)
        or ``"float32"`` (half the memory; draws are still taken in
        float64 and cast per block, so the float32 stream is exactly the
        rounded float64 stream).
    seed:
        Root of the spec's per-block seed tree.
    """

    family: str
    size: int
    params: Mapping[str, Any] = field(default_factory=dict)
    cooperation: float = 1.0
    cost_jitter: float = 0.0
    dtype: str = "float64"
    seed: int = 0

    def __post_init__(self) -> None:
        # A read-only private copy: the identity is cached on first use.
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        # Normalized to int so numpy-integer callers share cache keys
        # (and JSON identities) with plain-int ones.
        object.__setattr__(self, "size", _agent_count("population size", self.size))
        if self.size < 1:
            raise ConfigurationError(f"population size must be >= 1, got {self.size}")
        if self.size > MAX_AGENTS:
            raise ConfigurationError(
                f"population size {self.size} exceeds the int32 indexing limit "
                f"({MAX_AGENTS}); shard the population across specs instead"
            )
        if not (math.isfinite(self.cooperation) and 0.0 <= self.cooperation <= 1.0):
            raise ConfigurationError(
                f"cooperation must be in [0, 1], got {self.cooperation}"
            )
        if not (math.isfinite(self.cost_jitter) and self.cost_jitter >= 0.0):
            raise ConfigurationError(
                f"cost_jitter must be finite and >= 0, got {self.cost_jitter}"
            )
        resolve_dtype(self.dtype)
        # Eager validation: a bad family name or parameter set fails at
        # construction, not at the first chunk of a long streaming run.
        resolve_sampler(self.family, self.params)

    # -- identity ------------------------------------------------------------

    @cached_property
    def _identity(self) -> str:
        """The draw-determining fields, canonically encoded (dtype excluded).

        Encoded once per spec: every (block, column) stream's seed label
        starts with it.  The dtype is storage, not randomness: a float32
        spec draws the same float64 stream and casts, so it shares the
        seed tree with its float64 twin.
        """
        return _canonical(
            {
                "family": self.family,
                "size": self.size,
                "params": dict(self.params),
                "cooperation": self.cooperation,
                "cost_jitter": self.cost_jitter,
            }
        )

    def __hash__(self) -> int:
        # Equal specs hash equal: ``1 == 1.0`` in a parameter value, so
        # only the parameter names enter the hash.
        fields = (self.family, self.size, self.cooperation, self.cost_jitter)
        return hash((*fields, tuple(sorted(self.params)), self.dtype, self.seed))

    def __reduce__(self):
        return (PopulationSpec.from_params, (self.to_params(),))

    def cache_key(self) -> str:
        """Content hash identifying this spec (dtype included) in caches."""
        payload = _canonical(
            {"identity": self._identity, "dtype": self.dtype, "seed": self.seed}
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Compact human-readable rendering for tables and logs."""
        params = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({params})[n={self.size},{self.dtype}]"

    # -- serialized form -----------------------------------------------------

    def to_params(self) -> Dict[str, Any]:
        """The spec as plain JSON data — the form shards carry it in."""
        return {
            "family": self.family,
            "size": self.size,
            "params": dict(self.params),
            "cooperation": self.cooperation,
            "cost_jitter": self.cost_jitter,
            "dtype": self.dtype,
            "seed": self.seed,
        }

    @staticmethod
    def from_params(params: Mapping[str, Any]) -> "PopulationSpec":
        """Rebuild a spec from :meth:`to_params` output (re-validated)."""
        return PopulationSpec(**dict(params))

    def with_overrides(self, **overrides: object) -> "PopulationSpec":
        """Copy of this spec with fields replaced (re-validated)."""
        return replace(self, **overrides)

    # -- block structure -----------------------------------------------------

    @property
    def n_blocks(self) -> int:
        """Number of seed blocks covering the population."""
        return -(-self.size // SEED_BLOCK)

    def block_bounds(self, block_index: int) -> Tuple[int, int]:
        """Global ``[start, stop)`` agent range of one seed block."""
        if not 0 <= block_index < self.n_blocks:
            raise ConfigurationError(
                f"block index {block_index} out of range [0, {self.n_blocks})"
            )
        start = block_index * SEED_BLOCK
        return start, min(start + SEED_BLOCK, self.size)

    def block_rng(self, block_index: int, column: str) -> np.random.Generator:
        """The dedicated random stream of one ``(block, column)`` cell.

        Columns are free-form labels: the spec itself uses ``"stake"``,
        ``"cost"`` and ``"behavior"``; streaming consumers (the population
        audit, the committee sampler) derive their own columns from the
        same tree so their draws are chunk-stable too and never perturb
        the population's.
        """
        label = f"population:{self._identity}:block:{block_index}:{column}"
        return np.random.default_rng(derive_seed(self.seed, label))

    def chunk_draws(
        self,
        offset: int,
        n_agents: int,
        column: str,
        draw: Callable[[np.random.Generator, int], np.ndarray],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-block draws for an arbitrary consumer column over a chunk.

        ``draw(rng, size)`` is invoked once per seed block covering
        ``[offset, offset + n_agents)`` with that block's dedicated
        stream, so the concatenated result is independent of how the
        caller chunked the population.  ``offset`` must be block-aligned
        (which every chunk produced by :meth:`iter_chunks` is).  With
        ``out`` (an ``(n_agents,)`` array) each block's draws are written
        into it in place of a concatenation, and ``out`` is returned.
        """
        if offset % SEED_BLOCK != 0:
            raise ConfigurationError(
                f"chunk offset {offset} is not aligned to the seed block "
                f"({SEED_BLOCK} agents)"
            )
        if offset + n_agents > self.size:
            raise ConfigurationError(
                f"chunk [{offset}, {offset + n_agents}) exceeds the population "
                f"size {self.size}"
            )
        parts = []
        position = offset
        while position < offset + n_agents:
            block_index = position // SEED_BLOCK
            _start, stop = self.block_bounds(block_index)
            length = min(stop, offset + n_agents) - position
            part = np.asarray(draw(self.block_rng(block_index, column), length))
            if out is None:
                parts.append(part)
            else:
                out[position - offset : position - offset + length] = part
            position += length
        if out is not None:
            return out
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    # -- synthesis -----------------------------------------------------------

    def block(self, block_index: int) -> PopulationArrays:
        """Synthesize one seed block's agents."""
        get_registry().counter(
            "repro_population_blocks_synthesized_total",
            "Population seed blocks synthesized (re-synthesis included)",
        ).inc()
        start, stop = self.block_bounds(block_index)
        n = stop - start
        sampler = resolve_sampler(self.family, self.params)
        stake = np.asarray(sampler(self.block_rng(block_index, "stake"), n))
        if stake.shape != (n,):
            raise ConfigurationError(
                f"family {self.family!r} sampler returned shape {stake.shape}, "
                f"expected ({n},)"
            )
        stake = stake.astype(np.float64, copy=False)
        if not np.all(np.isfinite(stake)) or (stake.size and float(stake.min()) <= 0):
            raise ConfigurationError(
                f"family {self.family!r} produced non-positive or non-finite stakes"
            )
        if self.cost_jitter > 0.0:
            # Mean-one lognormal: E[exp(N(-s^2/2, s^2))] = 1.
            cost = self.block_rng(block_index, "cost").lognormal(
                -0.5 * self.cost_jitter**2, self.cost_jitter, n
            )
        else:
            cost = np.ones(n, dtype=np.float64)
        if self.cooperation >= 1.0:
            behavior = np.zeros(n, dtype=np.int8)
        else:
            defects = (
                self.block_rng(block_index, "behavior").random(n) >= self.cooperation
            )
            behavior = np.where(defects, BEHAVIOR_DEFECT, 0).astype(np.int8)
        # The family-contextual checks above are the validation for this
        # block; cost/behavior are synthesized internally.  The trusted
        # constructor skips a redundant full-column re-scan per block.
        target = DTYPES[self.dtype]
        return PopulationArrays._trusted(
            stake=stake.astype(target, copy=False),
            cost=cost.astype(target, copy=False),
            behavior=behavior,
            offset=start,
        )

    def chunk_blocks(self, chunk_agents: Optional[int] = None) -> int:
        """Seed blocks per chunk for a requested ``chunk_agents``.

        ``chunk_agents`` is rounded **up** to a whole number of seed
        blocks (the minimum streamable unit); ``None`` selects the
        default chunk (:data:`~repro.populations.arrays.DEFAULT_CHUNK_AGENTS`).
        """
        if chunk_agents is None:
            chunk_agents = DEFAULT_CHUNK_AGENTS
        chunk_agents = _agent_count("chunk_agents", chunk_agents)
        if chunk_agents < 1:
            raise ConfigurationError(
                f"chunk_agents must be >= 1, got {chunk_agents}"
            )
        return -(-chunk_agents // SEED_BLOCK)

    def iter_chunks(
        self, chunk_agents: Optional[int] = None
    ) -> Iterator[PopulationArrays]:
        """Stream the population in O(chunk) memory.

        Yields :class:`PopulationArrays` chunks whose concatenation is
        exactly :meth:`materialize` — bit-identical for every
        ``chunk_agents`` — with ``offset`` carrying global agent indices.
        """
        per_chunk = self.chunk_blocks(chunk_agents)
        for first in range(0, self.n_blocks, per_chunk):
            blocks = [
                self.block(index)
                for index in range(first, min(first + per_chunk, self.n_blocks))
            ]
            yield blocks[0] if len(blocks) == 1 else PopulationArrays.concat(blocks)

    def chunks(self, chunk_agents: Optional[int] = None) -> Iterable[PopulationArrays]:
        """A re-iterable chunk source for consumers that stream several passes.

        Yields the same chunks as :meth:`iter_chunks` on every iteration.
        When the columns fit in :data:`RESIDENT_BYTES`
        (``size * (2 * itemsize + 1)`` bytes), the population is
        synthesized once, its columns are made read-only, and the chunks
        come back as a tuple; above the budget, each iteration calls
        :meth:`iter_chunks` again and memory stays O(chunk).  Nothing is
        cached on the spec: the resident copy lives exactly as long as
        the caller holds the returned source.
        """
        self.chunk_blocks(chunk_agents)  # validate now: iter_chunks is lazy
        itemsize = DTYPES[self.dtype].itemsize
        if self.size * (2 * itemsize + 1) <= RESIDENT_BYTES:
            return tuple(_read_only(chunk) for chunk in self.iter_chunks(chunk_agents))
        return _StreamedChunks(self, chunk_agents)

    def materialize(self) -> PopulationArrays:
        """Synthesize the whole population as one in-memory chunk.

        Convenience for sizes that fit; streaming consumers should prefer
        :meth:`iter_chunks`.  (10^7 float64 agents are ~170 MB; the int32
        size cap bounds the worst case.)
        """
        return PopulationArrays.concat(list(self.iter_chunks(self.size)))

    # -- streaming reductions ------------------------------------------------

    def streaming_summary(
        self, chunk_agents: Optional[int] = None
    ) -> Dict[str, float]:
        """Population summary statistics computed in O(chunk) memory.

        The total (and mean) use the block-stable reduction, so the
        numbers are independent of ``chunk_agents`` and match
        ``materialize().summary()`` exactly.
        """
        total = 0.0
        minimum = math.inf
        maximum = -math.inf
        cooperators = 0
        cost_total = 0.0
        for chunk in self.iter_chunks(chunk_agents):
            stake = chunk.stake64()
            total = blockwise_sum(stake, start=total)
            cost_total = blockwise_sum(chunk.cost64(), start=cost_total)
            minimum = min(minimum, float(stake.min()))
            maximum = max(maximum, float(stake.max()))
            cooperators += int(np.count_nonzero(chunk.behavior == 0))
        return {
            "n": float(self.size),
            "total": total,
            "mean": total / self.size,
            "min": minimum,
            "max": maximum,
            "cooperation": cooperators / self.size,
            "mean_cost": cost_total / self.size,
        }
