"""Deterministic JSON emission, and the one JSON parser for input documents.

The stdlib encoder does not allow control over float formatting, so reports
and graph files are serialized by hand.  Floats are written with 17
significant digits, which round-trips float64 exactly and makes repeated
runs byte-identical.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import NonFiniteError, ParseError

FLOAT_FORMAT = ".17g"


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), FLOAT_FORMAT)


def loads(data: bytes | str, what: str):
    """Decode (UTF-8) and parse one JSON document; any failure is a ParseError,
    nesting past the interpreter's recursion limit included."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ParseError(f"invalid {what}: {exc}") from exc


def integer(value, name: str) -> int:
    """value if it is a JSON integer; TypeError for a bool, float or string."""
    if type(value) is not int:
        raise TypeError(f"{name} must be a JSON integer, got {value!r:.40}")
    return value


def number(value, name: str) -> float:
    """float(value) if it is a JSON integer or float; TypeError otherwise,
    and ParseError for an integer beyond float range."""
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"{name} must be a JSON number, got {value!r:.40}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{name} must fit a float, got {value!r:.40}") from None


def dumps(obj) -> str:
    """Serialize nested dicts/lists/scalars to canonical JSON text."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list) -> None:
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                parts.append(", ")
            parts.append(json.dumps(key))
            parts.append(": ")
            _emit(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(", ")
            _emit(value, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")
