"""String-keyed registry and factory for execution engines.

Adding a new accelerator model to the repo is a one-file change: implement
an :class:`~repro.backends.SpMVEngine` subclass and call :func:`register`.
Every consumer — the evaluation tables, the application solvers, the serving
pool, the CLI — discovers engines through :func:`available` / :func:`create`
and never needs to know the concrete class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple, Union

from .base import SpMVEngine

__all__ = [
    "available",
    "create",
    "describe",
    "register",
    "registration",
    "resolve",
    "unregister",
]


@dataclass(frozen=True)
class EngineRegistration:
    """One registry row: the factory plus its descriptive metadata."""

    name: str
    factory: Callable[..., SpMVEngine]
    description: str = ""
    aliases: Tuple[str, ...] = ()


_REGISTRY: Dict[str, EngineRegistration] = {}
_ALIASES: Dict[str, str] = {}


def _normalise(name: str) -> str:
    return name.strip().lower()


def register(
    name: str,
    factory: Callable[..., SpMVEngine],
    description: str = "",
    aliases: Tuple[str, ...] = (),
    overwrite: bool = False,
) -> None:
    """Register an engine factory under a canonical name (plus aliases).

    Parameters
    ----------
    name:
        Canonical registry key, matched case-insensitively ("serpens-a16").
    factory:
        Zero-argument-callable (keyword overrides allowed) returning a fresh
        engine instance.
    description:
        One-line summary shown by ``serpens-repro backends``.
    aliases:
        Additional names resolving to the same factory.
    overwrite:
        Allow replacing an existing registration (off by default so typos
        fail loudly).
    """
    key = _normalise(name)
    if not key:
        raise ValueError("engine name must be non-empty")
    if not overwrite and (key in _REGISTRY or key in _ALIASES):
        raise ValueError(f"engine {name!r} is already registered")
    entry = EngineRegistration(
        name=key,
        factory=factory,
        description=description,
        aliases=tuple(_normalise(a) for a in aliases),
    )
    for alias in entry.aliases:
        taken = alias in _REGISTRY or _ALIASES.get(alias, key) != key
        if not overwrite and taken:
            raise ValueError(f"alias {alias!r} collides with a registered engine")
    # Overwriting must reconcile the alias table: drop the replaced entry's
    # own aliases, and — when the new canonical name was previously an alias
    # of another engine — detach it so lookups reach the new registration
    # (aliases resolve before canonical names).
    replaced = _REGISTRY.get(key)
    if replaced is not None:
        for alias in replaced.aliases:
            if _ALIASES.get(alias) == key:
                del _ALIASES[alias]
    if key in _ALIASES:
        del _ALIASES[key]
    _REGISTRY[key] = entry
    for alias in entry.aliases:
        _ALIASES[alias] = key


def unregister(name: str) -> None:
    """Remove an engine (and its aliases) from the registry."""
    key = _ALIASES.get(_normalise(name), _normalise(name))
    entry = _REGISTRY.pop(key, None)
    if entry is None:
        raise KeyError(f"unknown engine {name!r}")
    for alias in entry.aliases:
        # Only drop aliases this entry still owns; an alias stolen by a
        # later overwrite=True registration belongs to the new owner.
        if _ALIASES.get(alias) == key:
            del _ALIASES[alias]


def _lookup(name: str) -> EngineRegistration:
    key = _normalise(name)
    key = _ALIASES.get(key, key)
    entry = _REGISTRY.get(key)
    if entry is None:
        known = ", ".join(available())
        raise KeyError(f"unknown engine {name!r}; registered engines: {known}")
    return entry


def registration(name: str) -> EngineRegistration:
    """The registry row behind a name or alias."""
    return _lookup(name)


def create(name: str, **kwargs) -> SpMVEngine:
    """Instantiate a fresh engine by registry name (or alias)."""
    return _lookup(name).factory(**kwargs)


def available() -> Tuple[str, ...]:
    """Canonical names of every registered engine, sorted."""
    return tuple(sorted(_REGISTRY))


def describe() -> Tuple[EngineRegistration, ...]:
    """Every registration, sorted by canonical name (for the CLI table)."""
    return tuple(_REGISTRY[name] for name in available())


def resolve(engine: Union[str, SpMVEngine]) -> SpMVEngine:
    """Turn a registry name, engine instance, or Serpens config into an engine.

    Accepting a :class:`~repro.serpens.SerpensConfig` directly gives the
    pool, the Session and the application hooks one common spec vocabulary.
    Execution and build modes are chosen where an engine is constructed
    (``create(name, mode=...)``, ``SerpensEngine(config, mode=...)``); an
    instance passes through unchanged.
    """
    if isinstance(engine, SpMVEngine):
        return engine
    if isinstance(engine, str):
        return create(engine)
    # Imported lazily: registry must stay importable before engines.py (which
    # imports this module) has finished loading.
    from ..serpens import SerpensConfig

    if isinstance(engine, SerpensConfig):
        from .engines import SerpensEngine

        return SerpensEngine(engine)
    raise TypeError(
        "expected an engine name, an SpMVEngine, or a SerpensConfig, "
        f"got {type(engine).__name__}"
    )
