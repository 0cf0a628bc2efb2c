"""Stake populations and the synthetic exchange (paper Section V-B)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "distributions": (
        "MAX_POPULATION",
        "StakeDistribution",
        "figure7c_distributions",
        "paper_distributions",
        "summarize",
        "truncated_normal",
        "truncated_uniform",
        "uniform",
    ),
    "exchange": ("ExchangeRound", "ExchangeSimulator"),
})
