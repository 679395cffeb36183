"""Damaged copies of a file's bytes, and a type check of what a loader
returned, for the loader fuzz tests."""

import dataclasses
import types
import typing

from hypothesis import strategies as st


def damaged(blob: bytes, data) -> bytes:
    """``blob`` truncated to a shorter length, or with one bit flipped."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def optional(kind):
    """``(inner, True)`` for ``inner | None``, else ``(kind, False)``."""
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        (inner,) = [a for a in typing.get_args(kind) if a is not type(None)]
        return inner, True
    return kind, False


def assert_typed(record, kind=None, key="record") -> None:
    """Every leaf of the dataclass ``record`` has its annotated type.

    ``bool`` is not an ``int``; an ``int`` is a ``float``.  A loader
    that returns a record whose ``priority`` is the string ``"5"``
    fails here, naming the key.
    """
    kind, nullable = optional(type(record) if kind is None else kind)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if nullable and record is None:
        return
    if dataclasses.is_dataclass(kind):
        assert type(record) is kind, f"{key} is {record!r}, not a {kind.__name__}"
        hints = typing.get_type_hints(kind)
        for f in dataclasses.fields(kind):
            assert_typed(getattr(record, f.name), hints[f.name], f"{key}.{f.name}")
    elif origin in (tuple, list):
        assert type(record) is origin, f"{key} is {record!r}, not a {origin.__name__}"
        for i, item in enumerate(record):
            assert_typed(item, args[0], f"{key}[{i}]")
    else:
        accepted = {float: (int, float)}.get(kind, origin or kind)
        assert isinstance(record, accepted) and (
            kind is bool or not isinstance(record, bool)
        ), f"{key} is {record!r}, not {kind}"
