"""Pluggable reward schemes, their registry, and the IC audit engine.

The layer the paper's two mechanisms and any number of alternatives plug
into:

* :mod:`repro.schemes.base` — the :class:`RewardScheme` protocol and the
  declarative pool algebra every scheme is expressed in.
* :mod:`repro.schemes.registry` — decorator registration and by-name
  discovery (:func:`get_scheme`, :func:`scheme_names`).
* :mod:`repro.schemes.catalog` — the five built-ins: ``foundation`` and
  ``role_based`` adapters over the paper's mechanisms, plus ``irs``,
  ``axiomatic_tau`` and ``hybrid``.
* :mod:`repro.schemes.audit` — the vectorized epsilon-IC audit engine
  with its scalar game oracle.
* :mod:`repro.schemes.population_audit` — the chunked audit path:
  epsilon-IC verdicts over streamed 10^6–10^7-agent
  :class:`~repro.populations.spec.PopulationSpec` populations in
  O(chunk) memory, bit-identical at every chunk size.
* :mod:`repro.schemes.tournament` — cross-scheme tournaments over the
  scenario families (imported lazily: it depends on
  :mod:`repro.scenarios`, which itself resolves schemes from this
  package's registry).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("PoolSpec", "RewardScheme", "SchemeSplit", "WeightKind"),
    "catalog": (
        "AxiomaticTauScheme", "FoundationScheme", "HybridScheme", "IRSScheme",
        "RoleBasedScheme",
    ),
    "registry": (
        "get_scheme",
        "register_scheme",
        "resolve_scheme",
        "scheme",
        "scheme_from_params",
        "scheme_names",
    ),
    "audit": (
        "AuditConfig", "AuditReport", "CellAudit", "PooledRule", "audit_scheme",
        "audit_schemes",
    ),
    "deviation": ("DeviationWitness",),
    "population_audit": (
        "PopulationAuditConfig",
        "PopulationAuditGridResult",
        "PopulationAuditReport",
        "audit_population",
        "audit_population_grid",
        "audit_populations",
    ),
})
