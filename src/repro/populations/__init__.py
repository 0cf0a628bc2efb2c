"""Streaming million-agent populations: columnar arrays + chunked specs.

The scaling layer between :mod:`repro.stakes` (the paper's named stake
distributions) and every per-agent consumer (scheme audits, tournaments,
scenarios, the fast simulation kernel).  Three pieces:

* :class:`PopulationArrays` — struct-of-arrays agent state (stake / cost /
  behavior columns, float64 or opt-in float32),
* :class:`PopulationSpec` — a population *by reference* (generator family
  + params + size + dtype + seed) with per-seed-block synthesis and a
  chunked streaming iterator, so any consumer runs in O(chunk) memory and
  gets bit-identical data at every chunk size, and
* the generator catalog in :mod:`repro.populations.generators` —
  heavy-tailed families (Zipf, Pareto, lognormal), the paper's
  uniform/normal bridges, and the empirical ``exchange_snapshot`` loader.

See ``docs/scaling.md`` for the memory model and chunk-size guidance.
"""

from repro.populations.arrays import (
    BEHAVIOR_COOPERATE,
    BEHAVIOR_DEFECT,
    BEHAVIOR_OFFLINE,
    DEFAULT_CHUNK_AGENTS,
    MAX_AGENTS,
    SEED_BLOCK,
    PopulationArrays,
    blockwise_row_sums,
    blockwise_sum,
    resolve_dtype,
)
from repro.populations.generators import (
    PopulationFamily,
    PopulationSampler,
    family_names,
    get_family,
    load_snapshot,
    population_family,
    resolve_sampler,
    snapshot_from_exchange,
    write_snapshot,
)
from repro.populations.spec import RESIDENT_BYTES, PopulationSpec

__all__ = [
    "BEHAVIOR_COOPERATE",
    "BEHAVIOR_DEFECT",
    "BEHAVIOR_OFFLINE",
    "DEFAULT_CHUNK_AGENTS",
    "MAX_AGENTS",
    "RESIDENT_BYTES",
    "SEED_BLOCK",
    "PopulationArrays",
    "PopulationFamily",
    "PopulationSampler",
    "PopulationSpec",
    "blockwise_row_sums",
    "blockwise_sum",
    "family_names",
    "get_family",
    "load_snapshot",
    "population_family",
    "resolve_dtype",
    "resolve_sampler",
    "snapshot_from_exchange",
    "write_snapshot",
]
