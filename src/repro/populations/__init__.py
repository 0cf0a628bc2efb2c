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

from repro._lazy import lazy_exports

#: Agents per seed block — the atomic unit of generation and reduction.
#: Every chunk spans a whole number of blocks, each block draws from its
#: own SHA-256-derived random stream, and all streaming reductions
#: accumulate per block, which is what makes results independent of the
#: requested chunk size.
SEED_BLOCK = 8192

#: Default ``chunk_agents`` used by streaming iterators (16 seed blocks).
#: Both constants live here, not in numpy-backed ``arrays``, so the
#: experiment specs can default to them without loading numpy.
DEFAULT_CHUNK_AGENTS = 16 * SEED_BLOCK

__getattr__, __dir__, _LAZY = lazy_exports(__name__, {
    "arrays": (
        "BEHAVIOR_COOPERATE",
        "BEHAVIOR_DEFECT",
        "BEHAVIOR_OFFLINE",
        "MAX_AGENTS",
        "PopulationArrays",
        "blockwise_row_sums",
        "blockwise_sum",
        "resolve_dtype",
    ),
    "generators": (
        "PopulationFamily",
        "PopulationSampler",
        "family_names",
        "get_family",
        "load_snapshot",
        "population_family",
        "resolve_sampler",
        "snapshot_from_exchange",
        "write_snapshot",
    ),
    "spec": ("RESIDENT_BYTES", "PopulationSpec"),
})

__all__ = ["DEFAULT_CHUNK_AGENTS", "SEED_BLOCK", *_LAZY]
