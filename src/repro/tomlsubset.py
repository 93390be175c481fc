"""TOML loading for the repo's committed configuration files.

Python 3.11+ parses with :mod:`tomllib`.  Older interpreters fall back to a
built-in parser for the subset those files use — dotted and quoted table
headers, string/bool/int/float scalars, and (multi-line) arrays of them —
so the analyzer's ``layers.toml`` and the fault plans load with no
third-party dependency.  This module is a leaf: it imports nothing
first-party, so any layer may use it.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Union

__all__ = ["load_toml", "parse_toml_subset"]

_TABLE = re.compile(r"^\[(?P<name>[^\[\]]+)\]$")
_KEY_VALUE = re.compile(r"^(?P<key>[A-Za-z0-9_\-]+)\s*=\s*(?P<value>.+)$")


def _strip_comment(line: str) -> str:
    """Drop a trailing comment; a '#' inside a quoted string is kept."""
    in_string = False
    for index, char in enumerate(line):
        if char == '"':
            in_string = not in_string
        elif char == "#" and not in_string:
            return line[:index]
    return line


def _parse_value(text: str) -> object:
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated TOML array: {text!r}")
        return [_parse_value(item) for item in text[1:-1].split(",") if item.strip()]
    if len(text) >= 2 and text[0] == '"' == text[-1]:
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    raise ValueError(f"unsupported TOML value: {text!r}")


def parse_toml_subset(text: str) -> Dict[str, object]:
    """Parse the tables/scalars/arrays subset of TOML described above."""
    document: Dict[str, object] = {}
    table: Dict[str, object] = document
    pending = ""
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if pending:
            # Continuation of a multi-line array value.
            line = pending + " " + line
            pending = ""
        if "[" in line.partition("=")[2] and not line.endswith("]"):
            pending = line
            continue
        match = _TABLE.match(line)
        if match is not None:
            table = document
            for part in match.group("name").split("."):
                # Quoted keys like [layers."<root>"] carry no dots here,
                # so stripping quotes after the split is sufficient.
                key = part.strip().strip('"')
                table = table.setdefault(key, {})  # type: ignore[assignment]
            continue
        match = _KEY_VALUE.match(line)
        if match is None:
            raise ValueError(f"unparseable TOML line: {raw!r}")
        table[match.group("key")] = _parse_value(match.group("value"))
    if pending:
        raise ValueError(f"unterminated TOML array: {pending!r}")
    return document


def load_toml(path: Union[str, Path]) -> Dict[str, object]:
    """Parse a TOML file: :mod:`tomllib` when available, else the subset."""
    try:
        import tomllib  # Python 3.11+
    except ImportError:
        return parse_toml_subset(Path(path).read_text())
    with open(path, "rb") as handle:
        return tomllib.load(handle)
