"""One JSON codec for every on-disk record (docs/robustness.md).

``spec.json``, ``lease.json``, ``manifest.json``, ``jobstore.json``,
``--fault-plan`` files and each line of a job's ``journal.jsonl`` hold
one dataclass record.  :func:`encode` is :func:`dataclasses.asdict`;
:func:`decode` reads a record back with its field annotations as the
schema: ``bool`` is never a number, a
JSON integer is a valid ``float``, ``X | None`` accepts ``null``, an
omitted key takes its default, and nested records (or tuples and lists
of them) decode recursively.  A non-object, an unknown key, a value of
the wrong JSON type, or one the record's ``__post_init__`` refuses is a
:class:`ValueError` naming the dotted key (``'config.retry.max_attempts'``).
"""

from __future__ import annotations

import dataclasses
import functools
import reprlib
import types
import typing

__all__ = ["encode", "decode"]

#: per field type, the Python types of the JSON values it accepts and
#: how to name them.
_JSON_TYPES = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    dict: ((dict,), "a JSON object"),
    list: ((list,), "a list"),
    tuple: ((list,), "a list"),
}


def encode(record) -> dict:
    """``record`` as JSON-native values; :func:`decode` inverts it."""
    return dataclasses.asdict(record)


def decode(cls, data, where: str = ""):
    """The ``cls`` record that ``data`` (parsed JSON) describes.

    ``where`` is the dotted key of ``data`` inside an enclosing
    record; error messages name keys relative to it.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{_label(cls, where)} must be a JSON object, not {reprlib.repr(data)}")
    types_of = _field_types(cls)
    unknown = sorted(data.keys() - types_of.keys())
    if unknown:
        raise ValueError(f"unknown key {_key(where, unknown[0])!r}")
    kwargs = {
        name: _value(types_of[name], value, _key(where, name)) for name, value in data.items()
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:  # a missing key or __post_init__
        raise ValueError(f"malformed {_label(cls, where)}: {exc}") from exc


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _value(kind, value, key: str):
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (kind,) = [a for a in args if a is not type(None)]
        return _value(kind, value, key)
    if dataclasses.is_dataclass(kind):
        return decode(kind, value, key)
    accepted, name = _JSON_TYPES[origin or kind]
    if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
        raise ValueError(f"{key!r} must be {name}, not {reprlib.repr(value)}")
    if origin in (tuple, list):
        return origin(_value(args[0], item, f"{key}[{i}]") for i, item in enumerate(value))
    return value


def _key(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


def _label(cls, where: str) -> str:
    return repr(where) if where else cls.__name__
