"""Typed reading of decoded JSON objects into frozen config dataclasses.

The pipeline config's sections and the grid recorded in each policy sidecar
are read here, so both get the same key and type checks before the
dataclass's own range checks run.
"""

from __future__ import annotations

import dataclasses
import typing


def _fits_json_type(value, annotation) -> bool:
    """Whether a decoded JSON value matches a config field's annotation.

    int fields take integers, float fields take integers or floats, and
    ``tuple[T, ...]`` fields take lists of T.  Booleans are not numbers here.
    """
    if typing.get_origin(annotation) is tuple:
        item = typing.get_args(annotation)[0]
        return isinstance(value, (list, tuple)) and all(_fits_json_type(v, item) for v in value)
    if isinstance(value, bool):
        return annotation is bool
    return isinstance(value, (int, float) if annotation is float else annotation)


def check_json_type(where: str, name: str, value, annotation) -> None:
    if not _fits_json_type(value, annotation):
        expected = annotation.__name__ if isinstance(annotation, type) else annotation
        raise ValueError(f"{where}: wrongly typed value ({name} must be {expected}, got {value!r})")


def read_section(block, klass, where: str):
    """Build ``klass`` from a decoded JSON object; absent keys keep their defaults.

    Unknown keys and values of the wrong type raise ValueError naming
    ``where``; lists become tuples.
    """
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be an object")
    unknown = set(block) - {f.name for f in dataclasses.fields(klass)}
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    hints = typing.get_type_hints(klass)
    for name, value in block.items():
        check_json_type(where, name, value, hints[name])
    return klass(**{k: tuple(v) if isinstance(v, list) else v for k, v in block.items()})
