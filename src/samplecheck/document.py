"""JSON documents read into dataclasses: the run config, dataset lines and report.json.

read builds a dataclass from an object that loads parsed, by its fields' types.
A key given twice or naming no field is an error, a str field takes only a JSON
string, and an error names its key and shows the value as JSON. A document a
person writes may leave a key out or null to take its default, and write a
number as a numeric string or an integer as 3.0; one a program writes whole is
read exact: every key, null only for X | None, JSON numbers, integers as such.
"""

from __future__ import annotations

import contextlib
import functools
import json
import typing
from collections import Counter
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Callable, Literal, TypeVar

import numpy as np

# Metadata of a dataclass field whose own fields are keys of the object holding
# it; unless exact, it is built if it has no default or one of them is not null.
INLINE = {"inline": True}

_T = TypeVar("_T")
_Convert = Callable[[object, str, bool], object]


class DocumentError(ValueError):
    """A JSON document does not have the shape of its dataclass."""


class _Object(dict):
    """A JSON object, and the keys it holds more than once (json.loads keeps the last)."""

    repeated: tuple[str, ...] = ()

    def __init__(self, pairs: list[tuple[str, object]]) -> None:
        super().__init__(pairs)
        if len(self) < len(pairs):
            counts = Counter(key for key, _ in pairs)
            self.repeated = tuple(sorted(key for key, n in counts.items() if n > 1))


def loads(text: str | bytes) -> object:
    """json.loads, each object an _Object that knows its repeated keys."""
    return json.loads(text, object_pairs_hook=_Object)


def _wrong(key: str, expected: str, value: object) -> DocumentError:
    shown = json.dumps(value, ensure_ascii=False)
    shown = shown if len(shown) <= 60 else shown[:57] + "..."
    return DocumentError(f"{key + ': ' if key else ''}expected {expected}, got {shown}")


def _checked(expected: str, test: Callable, make: Callable = lambda v: v) -> _Convert:
    """The converter of a value that passes test, to make(value)."""
    def convert(value: object, key: str, exact: bool) -> object:
        if test(value):
            return make(value)
        raise _wrong(key, expected, value)
    return convert


def _float(value: object, key: str, exact: bool) -> float:
    if type(value) in (int, float) or not exact and isinstance(value, str):
        with contextlib.suppress(OverflowError, ValueError):
            return float(value)
    raise _wrong(key, "a number", value)


def _int(value: object, key: str, exact: bool) -> int:
    if type(value) is int:
        return value
    if not exact and isinstance(value, (float, str)):
        with contextlib.suppress(ValueError):
            return int(str(value))  # "40"
        with contextlib.suppress(ValueError):
            if (number := float(value)).is_integer():  # 40.0, "40.0" or "4e1"
                return int(number)
    raise _wrong(key, "an integer", value)


_CONVERTERS: dict[object, _Convert] = {
    int: _int, float: _float,
    dict[str, object]: _checked("a JSON object without a repeated key", lambda v:
                                isinstance(v, dict) and not getattr(v, "repeated", ())),
    str: _checked("a string", lambda v: isinstance(v, str)),
    Path: _checked("a string", lambda v: isinstance(v, str), Path),
    tuple[str, ...]: _checked("a list of strings", lambda v: isinstance(v, list)
                              and all(isinstance(s, str) for s in v), tuple),
    np.ndarray: _checked("a list", lambda v: isinstance(v, list)),  # the dataclass checks it
}


def _converter(hint: object) -> _Convert:
    """The converter of a JSON value to a field of type hint; TypeError if there is none."""
    args = typing.get_args(hint)
    if len(args) == 2 and type(None) in args:
        inner = _converter(next(arg for arg in args if arg is not type(None)))
        return lambda value, key, exact: None if value is None else inner(value, key, exact)
    if is_dataclass(hint):
        return lambda value, key, exact: read(hint, value, key + ".", exact=exact)
    if typing.get_origin(hint) is Literal and all(isinstance(arg, str) for arg in args):
        return _checked("one of " + ", ".join(map(json.dumps, args)),
                        lambda value: isinstance(value, str) and value in args)
    if hint in _CONVERTERS:
        return _CONVERTERS[hint]
    raise TypeError(f"no conversion of a JSON value to {hint}")


@functools.cache
def _spec(cls: type) -> tuple[frozenset[str], tuple[tuple[str, object, object, bool], ...]]:
    """The keys of cls's object, and each field as (name, converter or, if
    inline, dataclass, default, inline), types resolved once per class."""
    hints = typing.get_type_hints(cls)
    specs = tuple(
        (f.name, (typing.get_args(hints[f.name]) or (hints[f.name],))[0], f.default, True)
        if f.metadata.get("inline")
        else (f.name, _converter(hints[f.name]), f.default, False) for f in fields(cls))
    return frozenset(key for name, how, _, inline in specs
                     for key in (_spec(how)[0] if inline else (name,))), specs


def read(cls: type[_T], obj: object, prefix: str = "", *, exact: bool = False) -> _T:
    """cls from obj, an object of a document that loads parsed, whose keys are
    named prefix + key; exact for a document that a program writes whole.

    DocumentError names the key of a value that does not fit; what cls checks
    itself raises as cls raises it.
    """
    if not isinstance(obj, dict):
        raise _wrong(prefix[:-1], "a JSON object", obj)
    keys, specs = _spec(cls)
    if unknown := obj.keys() - keys:
        raise DocumentError(f"unknown key {', '.join(prefix + key for key in sorted(unknown))}")
    if repeated := getattr(obj, "repeated", ()):
        raise DocumentError(f"duplicate key {', '.join(prefix + key for key in repeated)}")
    given = {}
    for name, how, default, inline in specs:
        if inline:
            own = {key: obj[key] for key in obj.keys() & _spec(how)[0]}
            if exact or default is MISSING or any(v is not None for v in own.values()):
                given[name] = read(how, own, prefix, exact=exact)
        elif name in obj and (exact or obj[name] is not None):
            given[name] = how(obj[name], prefix + name, exact)
    if missing := [prefix + name for name, _, default, _ in specs
                   if name not in given and (exact or default is MISSING)]:
        raise DocumentError(f"missing key {', '.join(missing)}")
    return cls(**given)
