"""Exception types shared across the package, the rules that config
dataclass fields declare, and the one checker that holds values to them.

Every failure mode maps to one of a small number of categories so callers
can distinguish "you handed me garbage" (shape/format/config) from "the
numerics went bad" (definiteness, overflow, NaN).
"""

import dataclasses
import numbers
import sys
from typing import Callable, NamedTuple


class ShapeError(ValueError):
    """Operands have incompatible or unexpected dimensions."""


class DefinitenessError(ValueError):
    """A matrix that must be symmetric positive (semi)definite is not."""


class NumericError(ArithmeticError):
    """Non-finite values or numerically meaningless results."""


class FormatError(ValueError):
    """A file or byte stream does not match its expected layout."""


class ConfigError(ValueError):
    """Inconsistent or unsupported configuration values."""


class Rule(NamedTuple):
    """What a config field takes: ``what`` completes "<field> must be ...",
    ``ok`` tests a value, and ``kind`` (if set) converts it to the form the
    field stores, so numpy scalars become Python ones."""

    what: str
    ok: Callable[[object], bool]
    kind: Callable | None = None


INT = Rule("an int", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), int)
COUNT = Rule("an int >= 1", lambda v: INT.ok(v) and v >= 1, int)
# an exact comparison: NaN fails it, and so does an int too large for a float
FINITE = Rule("a finite number",
              lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max)
POSITIVE = Rule("a positive finite number", lambda v: FINITE.ok(v) and v > 0)
NONNEGATIVE = Rule("a nonnegative finite number", lambda v: FINITE.ok(v) and v >= 0)
FRACTION = Rule("a number in [0, 1)", lambda v: FINITE.ok(v) and 0 <= v < 1)
FLAG = Rule("true or false", lambda v: isinstance(v, bool))
TEXT = Rule("a string", lambda v: isinstance(v, str), str)


def one_of(*choices: str) -> Rule:
    return Rule("one of " + ", ".join(map(repr, choices)), lambda v: isinstance(v, str) and v in choices, str)


def optional(r: Rule) -> Rule:
    return r._replace(what=f"{r.what} or null", ok=lambda v: v is None or r.ok(v))


def axis(r: Rule, kind: type) -> Rule:
    """A nonempty list (or tuple) of values that obey ``r``, stored as a tuple of ``kind``."""
    return Rule(
        f"a nonempty list whose elements are each {r.what}",
        lambda v: isinstance(v, (list, tuple)) and bool(v) and all(map(r.ok, v)),
        lambda v: tuple(map(kind, v)),
    )


def rule(default, check: Rule):
    """A dataclass field with ``default`` (``dataclasses.MISSING``: none), held to ``check``."""
    return dataclasses.field(default=default, metadata={"rule": check})


def check_value(name: str, value, r: Rule):
    """``value`` in the form the field ``name`` stores it; ConfigError naming both unless it obeys ``r``."""
    if not r.ok(value):
        raise ConfigError(f"{name} must be {r.what}, got {value!r}")
    return value if r.kind is None or value is None else r.kind(value)


def check_fields(obj) -> None:
    """Hold every field of the dataclass instance ``obj`` to its declared rule."""
    for f in dataclasses.fields(obj):
        object.__setattr__(obj, f.name, check_value(f.name, getattr(obj, f.name), f.metadata["rule"]))


def config_fields(cls, section, name: str) -> dict:
    """The JSON config section ``name`` as keyword arguments for the dataclass
    ``cls``; ConfigError, naming section and key, for a section that is not
    an object, an unknown key, or a value its field's rule rejects."""
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object, got {type(section).__name__}")
    rules = {f.name: f.metadata["rule"] for f in dataclasses.fields(cls)}
    unknown = [key for key in section if key not in rules]
    if unknown:
        raise ConfigError(f"config section {name!r}: unknown key {unknown[0]!r}")
    return {key: check_value(f"{name}.{key}", value, rules[key]) for key, value in section.items()}
