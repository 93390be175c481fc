"""The committed analyzer configuration (``analysis/layers.toml``).

The layer DAG, the hot-path package list, and the engine-name vocabulary are
*data*, not code: they live in a TOML file committed at the repository root
so a reviewer can see the architecture contract change in the same diff that
changes the architecture.

The file has three tables::

    [analysis]
    root = "repro"                      # the package the DAG talks about

    [numerics]
    hot_paths = ["serpens", "preprocess", "baselines"]

    [layers.<package>]
    allow = ["formats", ...]            # eager (module-level) imports allowed
    lazy  = ["obs", ...]                # allowed only inside a function body

Any dependency not listed is forbidden; a package with no ``[layers.*]``
table at all is an undeclared layer and every import from it is a finding.
The file is read by :func:`repro.tomlsubset.load_toml` (:mod:`tomllib` on
Python 3.11+, a built-in subset parser below), so the analyzer has zero
third-party dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..tomlsubset import load_toml

__all__ = ["AnalysisConfig", "LayerSpec", "find_layers_file", "load_config"]

#: Default location of the layer contract, relative to the repository root.
DEFAULT_LAYERS_PATH = Path("analysis") / "layers.toml"


@dataclass(frozen=True)
class LayerSpec:
    """One package's declared dependencies."""

    name: str
    allow: Tuple[str, ...] = ()
    lazy: Tuple[str, ...] = ()

    def permits(self, target: str, lazy: bool) -> bool:
        if target == self.name or target in self.allow:
            return True
        return lazy and target in self.lazy


@dataclass
class AnalysisConfig:
    """Everything the static rules need, decoded from ``layers.toml``."""

    root_package: str = "repro"
    layers: Dict[str, LayerSpec] = field(default_factory=dict)
    hot_paths: Tuple[str, ...] = ()
    #: Engine-name vocabulary for RPR202; empty means "ask the registry".
    engine_names: Tuple[str, ...] = ()
    path: Optional[Path] = None

    def resolved_engine_names(self) -> Tuple[str, ...]:
        if self.engine_names:
            return self.engine_names
        # Imported lazily: the analyzer must stay importable (and fixture
        # trees analyzable) without constructing any engine.
        from ..backends.names import BUILTIN_ENGINE_NAMES

        return BUILTIN_ENGINE_NAMES


def find_layers_file(start: Optional[Path] = None) -> Optional[Path]:
    """Locate ``analysis/layers.toml`` by walking up from ``start``.

    Defaults to walking up from this package's source directory, which finds
    the committed file for both in-repo and ``pip install -e`` layouts.
    """
    origin = (start or Path(__file__).resolve().parent)
    for directory in (origin, *origin.parents):
        candidate = directory / DEFAULT_LAYERS_PATH
        if candidate.is_file():
            return candidate
    return None


def load_config(path: Optional[Path] = None) -> AnalysisConfig:
    """Load the analyzer configuration, raising when no file can be found."""
    layers_path = Path(path) if path is not None else find_layers_file()
    if layers_path is None or not layers_path.is_file():
        raise FileNotFoundError(
            "no analysis/layers.toml found; pass --layers PATH or commit one "
            "at the repository root"
        )
    document = load_toml(layers_path)
    meta = document.get("analysis", {})
    numerics = document.get("numerics", {})
    rules = document.get("rules", {})
    layer_tables = document.get("layers", {})
    layers = {
        name: LayerSpec(
            name=name,
            allow=tuple(spec.get("allow", ())),
            lazy=tuple(spec.get("lazy", ())),
        )
        for name, spec in layer_tables.items()
    }
    return AnalysisConfig(
        root_package=str(meta.get("root", "repro")),
        layers=layers,
        hot_paths=tuple(numerics.get("hot_paths", ())),
        engine_names=tuple(rules.get("engine_names", ())),
        path=layers_path,
    )
