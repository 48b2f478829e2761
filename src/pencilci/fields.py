"""Readers for values from outside the program, and the one CSV and JSON writers.

A reader returns a census spec, pencil descriptor, loop spec, flag or CSV
value in the program's type, or raises ValueError naming the field; it never
truncates or coerces.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import numbers
import os
from functools import partial


def read_int(value, field: str, minimum: int | None = None) -> int:
    """An integer (not a bool, string or fraction), at least minimum if given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{field}: {value!r} is not an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"{field}: {value!r} is below {minimum}")
    return int(value)


read_seed = partial(read_int, minimum=0)  # numpy's seeded generators need seed >= 0


def read_number(value, field: str, positive: bool = False) -> float:
    """A finite real number (not a bool or a string), above 0 if positive."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{field}: {value!r} is not a number")
    if not math.isfinite(value) or (positive and value <= 0):
        raise ValueError(f"{field}: {value!r} is not a{' positive' * positive} finite number")
    return float(value)


def read_bandwidth(value, field: str):
    """An integer bandwidth, or "full" for bandwidth n - 1."""
    return value if value == "full" else read_int(value, field)


def read_array(value, field: str, reader=read_number, length: int | None = None) -> tuple:
    """A JSON array, each entry read by reader; exactly length numbers if given."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field}: {value!r} is not an array")
    if length is not None and len(value) != length:
        words = {2: "two", 4: "four"}.get(length, length)
        raise ValueError(f"{field}: {value!r} is not an array of {words} numbers")
    return tuple(reader(v, field) for v in value)


def read_object(value, what: str, keys=()) -> dict:
    """A JSON object with no key outside keys (any keys when keys is empty)."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(keys)) if keys else []
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    return value


def read_kind(value, what: str, kinds: dict):
    """(kind, get) for a JSON object whose "kind" picks its other keys from kinds.

    get(key, reader, default=None, **options) reads a field, named <what> '<key>'.
    """
    kind = read_object(value, what).get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {what} kind: {kind!r}")
    read_object(value, what, ("kind", *kinds[kind]))
    return kind, lambda key, reader, default=None, **options: reader(
        value.get(key, default), f"{what} {key!r}", **options
    )


def parse_text(text):
    """The integer or float that a flag or CSV cell spells, else the text itself."""
    for cast in (int, float):
        with contextlib.suppress(TypeError, ValueError):
            return cast(text)
    return text


def flag(reader):
    """An argparse type that reads a flag's text with reader; argparse names the flag."""
    def read(text):
        try:
            return reader(parse_text(text), "value")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


def read_json(path):
    """The JSON value held in the file at path."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path, header, rows) -> None:
    """Write header and rows as CSV, lines ending in "\n"; floats get 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)


def write_json(path, obj) -> None:
    """Write obj as JSON (indent 2, sorted keys, final newline) to a temp file, then move it."""
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
