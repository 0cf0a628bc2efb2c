"""The reward-scheme registry: decorator-registered, discoverable by name.

Two maps are maintained:

* **kind -> class** — every scheme *family*, registered with the
  :func:`scheme` class decorator.  This is the deserialization table:
  sweep shards carry ``scheme.to_params()`` mappings, and worker
  processes rebuild instances through :func:`scheme_from_params` without
  ever consulting the instance registry (so user-defined schemes survive
  spawn-based multiprocessing pools exactly like user-defined scenarios).
* **name -> instance** — every *configured* scheme available to the
  scenario driver, the audit engine and the tournament.  The decorator
  auto-registers each family's default instance; :func:`register_scheme`
  adds further configured variants (two tau exponents, a differently
  weighted hybrid, ...) under distinct names.

The built-in families (:mod:`repro.schemes.catalog`) register on the
first use of either map, so importing this module costs no scheme code
and a spawned worker that never imported the catalog still finds them.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Dict, List, Mapping, Type, Union

from repro.errors import SchemeError
from repro.schemes.base import RewardScheme

_SCHEME_CLASSES: Dict[str, Type[RewardScheme]] = {}
_SCHEMES: Dict[str, RewardScheme] = {}

#: What the lookup helpers accept wherever "a scheme" is expected.
SchemeLike = Union[str, Mapping[str, Any], RewardScheme]


def _with_builtins() -> None:
    """Register the built-in schemes ahead of anything else.

    A no-op once the catalog is imported; the import lock makes a
    concurrent first lookup wait for it, and the catalog's own
    registrations re-enter harmlessly.
    """
    import_module("repro.schemes.catalog")


def scheme(cls: Type[RewardScheme]) -> Type[RewardScheme]:
    """Class decorator: register a scheme family and its default instance."""
    _with_builtins()
    if not issubclass(cls, RewardScheme):
        raise SchemeError(f"{cls!r} is not a RewardScheme subclass")
    if not cls.kind:
        raise SchemeError(f"{cls.__name__} must set a non-empty 'kind'")
    if cls.kind in _SCHEME_CLASSES:
        raise SchemeError(f"scheme kind {cls.kind!r} is already registered")
    _SCHEME_CLASSES[cls.kind] = cls
    register_scheme(cls())
    return cls


def register_scheme(instance: RewardScheme, overwrite: bool = False) -> RewardScheme:
    """Add a configured scheme instance to the registry (name-keyed)."""
    _with_builtins()
    if not isinstance(instance, RewardScheme):
        raise SchemeError(f"{instance!r} is not a RewardScheme")
    if instance.name in _SCHEMES and not overwrite:
        raise SchemeError(f"scheme {instance.name!r} is already registered")
    _SCHEMES[instance.name] = instance
    return instance


def get_scheme(name: str) -> RewardScheme:
    """Look a configured scheme up by name."""
    _with_builtins()
    try:
        return _SCHEMES[name]
    except KeyError:
        raise SchemeError(
            f"unknown scheme {name!r}; choose from {scheme_names()}"
        ) from None


def scheme_names() -> List[str]:
    """All registered scheme names, in registration order."""
    _with_builtins()
    return list(_SCHEMES)


def scheme_from_params(params: Mapping[str, Any]) -> RewardScheme:
    """Rebuild a scheme instance from :meth:`RewardScheme.to_params` output."""
    _with_builtins()
    try:
        kind = params["kind"]
    except KeyError:
        raise SchemeError(f"scheme params {params!r} lack a 'kind'") from None
    try:
        cls = _SCHEME_CLASSES[kind]
    except KeyError:
        raise SchemeError(
            f"unknown scheme kind {kind!r}; registered kinds: "
            f"{sorted(_SCHEME_CLASSES)}"
        ) from None
    return cls.from_param_dict(
        params.get("params", {}), name=str(params.get("name", ""))
    )


def resolve_scheme(value: SchemeLike) -> RewardScheme:
    """Coerce a name, a ``to_params`` mapping, or an instance to an instance."""
    if isinstance(value, RewardScheme):
        return value
    if isinstance(value, str):
        return get_scheme(value)
    if isinstance(value, Mapping):
        return scheme_from_params(value)
    raise SchemeError(f"cannot interpret {value!r} as a reward scheme")
