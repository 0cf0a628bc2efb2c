"""Lazy package exports (PEP 562): a public name imports its module on first use.

Each sub-package ``__init__`` declares its public names by defining
module instead of importing them, so importing ``repro.analysis.scale``
loads the modules the audit runs and not every sibling the package
re-exports::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "spec": ("PopulationSpec", "RESIDENT_BYTES"),
    })

The first ``package.PopulationSpec`` imports ``package.spec`` and caches
the value in the package namespace, so later lookups are plain attribute
reads.  Submodules stay importable as before.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose public
    names ``exports`` lists by defining submodule."""
    owners: Dict[str, str] = {
        name: f"{package}.{module}" for module, names in exports.items() for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module = owners[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__, list(owners)
