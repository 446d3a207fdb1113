"""Exception types shared across the package, and the record schema reader for the JSON config."""

import math
import sys
from typing import Callable, NamedTuple


class TreeBsdeError(Exception):
    """Base class for all package errors."""


class OffGridError(TreeBsdeError):
    """A requested time does not coincide with a grid instant."""


class TreeSizeError(TreeBsdeError):
    """Tree construction would exceed the configured node cap."""


class InvariantViolationError(TreeBsdeError):
    """A structural invariant (probability sums, measurability, ...) fails."""


class NotAMartingaleError(TreeBsdeError):
    """Input process fails the martingale check; carries the worst node defect."""

    def __init__(self, message: str, step: int = -1, node: int = -1, defect: float = 0.0):
        super().__init__(message)
        self.step = step
        self.node = node
        self.defect = defect


class ClassificationError(TreeBsdeError):
    """A process does not belong to the class the caller asserted (e.g. supermartingale)."""


class StepSizeError(TreeBsdeError):
    """The time step violates a solver precondition such as dt * L_y < 1."""


class PicardDivergenceError(TreeBsdeError):
    """A fixed-point iteration failed to converge."""


class GeneratorContractError(TreeBsdeError):
    """A generator violates its declared Lipschitz constants."""


class DepthCapError(TreeBsdeError):
    """A brute-force enumeration was requested beyond its configured depth cap."""


class MeasureChangeError(TreeBsdeError):
    """The Girsanov positivity precondition fails for the supplied integrand."""


class ConfigError(Exception):
    """Raised with a field-level diagnostic; maps to exit code 2."""


REQUIRED = object()


class Field(NamedTuple):
    """A JSON field: its kind, its default (REQUIRED: none) and its range.

    `kind` is float (a finite number, read as a float), a type or a tuple of
    types (kept as given), a record table {name: Field}, a `Tagged` set of
    tables, or [kind] for a list.  `ok` tests the value read; `rule` says how.
    """

    kind: object
    default: object = REQUIRED
    ok: Callable = None
    rule: str = ""


def at_least(lo) -> dict:
    """The range `>= lo`, as Field keyword arguments."""
    return {"ok": lambda v: v >= lo, "rule": f">= {lo}"}


def above(lo) -> dict:
    """The range `> lo`, as Field keyword arguments."""
    return {"ok": lambda v: v > lo, "rule": f"> {lo}"}


class Tagged(dict):
    """Record kind with one table per value of the record's `kind` field."""


def read_record(obj, table: dict, where: str = "") -> dict:
    """Check a JSON object against `table`; returns its values, defaults filled in.

    An unknown, missing, mistyped or out-of-range field raises ConfigError naming
    it.  A missing or null field reads as its default, which unless None is read
    like a given value: a record default {} fills in the record's defaults.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'top level'}: expected an object, got {type(obj).__name__}")
    prefix = f"{where}." if where else ""
    for key in (key for key in obj if key not in table):
        raise ConfigError(f"{prefix}{key}: unknown field")
    out = {}
    for key, field in table.items():
        name, value = prefix + key, obj.get(key)
        if value is None and field.default is not REQUIRED:
            value = field.default
        elif key not in obj:
            raise ConfigError(f"{name}: missing required field")
        if value is not None or field.default is REQUIRED:
            value = read_value(value, field.kind, name)
            if field.ok and not field.ok(value):
                raise ConfigError(f"{name}: must be {field.rule}, got {value!r}")
        out[key] = value
    return out


def read_value(value, kind, where: str = ""):
    """Check one JSON value against a Field kind; returns the value read."""
    if isinstance(kind, Tagged):
        tag = value.get("kind") if isinstance(value, dict) else None
        if not (isinstance(tag, str) and tag in kind):
            raise ConfigError(f"{where}.kind: must be one of {', '.join(kind)}, got {tag!r}")
        return read_record(value, {"kind": Field(str), **kind[tag]}, where)
    if isinstance(kind, dict):
        return read_record(value, kind, where)
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
        return [read_value(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value)]
    types = (int, float) if kind is float else kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types) \
            or (isinstance(value, float) and not math.isfinite(value)) \
            or (kind is float and abs(value) > sys.float_info.max):
        names = "number" if kind is float else " or ".join(t.__name__ for t in types)
        raise ConfigError(f"{where}: expected {names}, got {type(value).__name__}")
    return float(value) if kind is float else value

