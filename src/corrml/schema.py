"""The one checked walk over the JSON states corrml reads: `parse` checks a
value against the spec describing it, a table next to the state's writer.
A dict spec is a table, an object holding its keys, each value meeting its
key's spec (a "?" ending a key lets it be absent, read as None; other keys
are ignored). [spec] is a list of such items, [spec, spec, ...] a tuple of
as many; (None, spec) is null or a value meeting spec; a string is a
constant, such as a "kind". A callable parses the value or raises
ValidationError; a state's `*_from_dict` is one, so states nest. A table
parses to the dict of its keys' values, constants left out, and a refused
value is a Fault naming the key path to it.
"""

from __future__ import annotations

import math
import sys

from .errors import ValidationError


class Fault(ValidationError):
    """A refused value, at `path`: the keys and list positions leading to it."""

    def __init__(self, problem: str, missing: bool = False):
        super().__init__(problem)
        self.problem, self.missing, self.path = problem, missing, []

    def __str__(self) -> str:
        where = "".join(f"[{key!r}]" for key in self.path)
        return f"{where}: {self.problem}" if where else self.problem


def parse(value, spec, key=None):
    """The value `spec` makes of `value`, which `key` holds in its parent."""
    try:
        if isinstance(spec, dict):
            if not isinstance(value, dict):
                raise ValidationError(f"must be an object, got {_shown(value)}")
            out = {}
            for name, item in spec.items():
                optional, name = name.endswith("?"), name.rstrip("?")
                if name not in value and not optional:
                    raise Fault(f"no {name!r} key", missing=True)
                parsed = parse(value[name], item, name) if name in value else None
                if not isinstance(item, str):
                    out[name] = parsed
            return out
        if isinstance(spec, list):
            size = f" of {len(spec)} items" if len(spec) > 1 else ""
            if not isinstance(value, list) or size and len(value) != len(spec):
                raise ValidationError(f"must be a list{size}, got {_shown(value)}")
            items = [parse(v, spec[i] if size else spec[0], i) for i, v in enumerate(value)]
            return tuple(items) if size else items
        if isinstance(spec, tuple):
            return None if value is None else parse(value, spec[1])
        if isinstance(spec, str):
            if not (isinstance(value, str) and value == spec):
                raise ValidationError(f"must be {spec!r}, got {_shown(value)}")
            return value
        return spec(value)
    except ValidationError as exc:
        fault = exc if isinstance(exc, Fault) else Fault(str(exc))
        if key is not None:
            fault.path.insert(0, key)
        raise fault from None


def load(value, spec, where: str):
    """`parse(value, spec)` for the state a file holds `where`; a fault is
    a ValidationError naming where and the key path."""
    try:
        return parse(value, spec)
    except Fault as fault:
        state = "incomplete" if fault.missing else "malformed"
        raise ValidationError(f"{where} is {state}: {fault}") from None


def _shown(value) -> str:
    text = repr(value.tolist() if hasattr(value, "tolist") else value)
    return text if len(text) <= 80 else text[:77] + "..."


def rule(what: str, ok, make=lambda value: value):
    """A spec: `make(value)` if `ok(value)`; any other value must be `what`."""
    def parse_value(value):
        if not ok(value):
            raise ValidationError(f"must be {what}, got {_shown(value)}")
        return make(value)
    return parse_value


def finite(value) -> bool:
    """Whether `value` is a number a float holds; a bool is not."""
    return (isinstance(value, float) and math.isfinite(value) or isinstance(value, int)
            and not isinstance(value, bool) and abs(value) <= sys.float_info.max)


NUMBER = rule("a finite number", finite, float)
POSITIVE = rule("a finite number > 0", lambda v: finite(v) and v > 0, float)
NONNEGATIVE = rule("a finite number >= 0", lambda v: finite(v) and v >= 0, float)
STRING = rule("a string", lambda v: isinstance(v, str))
BOOL = rule("true or false", lambda v: isinstance(v, bool))


def integer(low: int):
    return rule(f"an integer >= {low}",
                lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low)


def one_of(*choices: str):
    return rule(f"one of {choices}", lambda v: isinstance(v, str) and v in choices)


def array(dtype, ndim: int | None = None):
    """A spec: a list of numbers, `ndim` deep if given, as an array of
    `dtype`: integers within an integer dtype, finite numbers for a float
    one, true and false for bool. An array of `dtype`, as a parse hook
    makes, is taken as it is."""
    import numpy as np  # here, so that `ingest`, which reads no array, loads no numpy

    dtype = np.dtype(dtype)
    if dtype.kind == "i":
        bounds = np.iinfo(dtype)
        kinds, what = "iu", f"integers in [{bounds.min}, {bounds.max}]"
    else:
        kinds, what = ("b", "booleans") if dtype.kind == "b" else ("iuf", "finite numbers")
    what = f"a {f'{ndim}-D ' if ndim else ''}list of {what}"

    def fits(a) -> bool:
        if dtype.kind == "i":
            return a.dtype == dtype or bounds.min <= a.min() <= a.max() <= bounds.max
        return dtype.kind == "b" or np.isfinite(a).all()

    def parse_array(value):
        try:
            a = np.asarray(value)
        except ValueError:  # a ragged nesting of lists
            a = None
        if a is None or ndim and a.ndim != ndim or a.size and not (
                a.dtype.kind in kinds and fits(a)):
            raise ValidationError(f"must be {what}, got {_shown(value)}")
        return a.astype(dtype, copy=False)
    return parse_array
