"""Exception types shared across the package, and the typed JSON field reads that raise them."""


class TreeBsdeError(Exception):
    """Base class for all package errors."""


class OffGridError(TreeBsdeError):
    """A requested time does not coincide with a grid instant."""


class TreeSizeError(TreeBsdeError):
    """Tree construction would exceed the configured node cap."""


class SchemaError(TreeBsdeError):
    """A serialized tree or a config file violates the expected schema."""


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


NUMBER = (int, float)
_REQUIRED = object()


def read_field(obj, key: str, types, where: str, default=_REQUIRED, error=SchemaError):
    """Typed read of obj[key] from parsed JSON; `default` makes the field optional.

    An optional field that is missing or null reads as `default`.  A missing
    required field or a mistyped field raises `error` naming the field.
    """
    if not isinstance(obj, dict):
        raise error(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj or (obj[key] is None and default is not _REQUIRED):
        if default is not _REQUIRED:
            return default
        raise error(f"{where}: missing field {key!r}")
    if not isinstance(obj[key], types):
        names = " or ".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
        raise error(f"{where}.{key}: expected {names}, got {type(obj[key]).__name__}")
    return obj[key]


def read_numbers(obj, key: str, where: str, default=_REQUIRED, error=SchemaError):
    """Typed read of a list of numbers, returned as floats."""
    values = read_field(obj, key, list, where, default, error)
    if values is None:
        return None
    if not all(isinstance(v, NUMBER) for v in values):
        raise error(f"{where}.{key}: expected a list of numbers")
    return [float(v) for v in values]
