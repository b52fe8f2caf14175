"""Strict key-value text files.

The on-disk format for configs, scene files, and dataset manifests: UTF-8
lines of ``key = value``, ``#`` comments, blank lines allowed. Parsing is
strict by design: duplicate keys, missing required keys, and keys outside
the declared schema are errors, never silently ignored. Floats are written
with repr so they round-trip exactly.

``read_text`` is the package's one reader of text files: these and the
odometry file. A file that is missing, unreadable or not UTF-8 is one
``ConfigError`` that names it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError


def parse_kv_text(text: str, source: str = "<text>") -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}'")
        pairs[key] = value
    return pairs


def format_kv(pairs: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def read_text(path) -> str:
    """The whole of a UTF-8 text file. A file that is missing, unreadable
    or not UTF-8 raises one ``ConfigError`` line that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not valid UTF-8: {e}") from None


def read_kv(path) -> dict[str, str]:
    return parse_kv_text(read_text(path), source=str(path))


def write_kv(path, pairs: dict[str, str]) -> None:
    Path(path).write_text(format_kv(pairs), encoding="utf-8")


def ensure_keys(pairs: dict[str, str], required: set[str], optional: set[str] = frozenset(),
                source: str = "config") -> None:
    missing = required - pairs.keys()
    if missing:
        raise ConfigError(f"{source}: missing required keys: {sorted(missing)}")
    unknown = pairs.keys() - required - optional
    if unknown:
        raise ConfigError(f"{source}: unknown keys: {sorted(unknown)}")


def as_int(pairs: dict[str, str], key: str) -> int:
    try:
        return int(pairs[key])
    except ValueError:
        raise ConfigError(f"key '{key}': expected integer, got {pairs[key]!r}") from None


def as_float(pairs: dict[str, str], key: str) -> float:
    try:
        return float(pairs[key])
    except ValueError:
        raise ConfigError(f"key '{key}': expected float, got {pairs[key]!r}") from None


def as_floats(pairs: dict[str, str], key: str, n: int) -> np.ndarray:
    """Exactly ``n`` space-separated floats."""
    try:
        vals = np.array([float(tok) for tok in pairs[key].split()])
    except ValueError:
        raise ConfigError(f"key '{key}': expected space-separated floats, got {pairs[key]!r}") from None
    if vals.size != n:
        raise ConfigError(f"key '{key}': expected {n} floats, got {vals.size}")
    return vals


def as_str(pairs: dict[str, str], key: str, allowed: set[str] | None = None) -> str:
    v = pairs[key]
    if allowed is not None and v not in allowed:
        raise ConfigError(f"key '{key}': expected one of {sorted(allowed)}, got {v!r}")
    return v


def fmt_floats(vals) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(vals).reshape(-1))
