"""Exception types shared across the package, and the checked reading of
config sections into config dataclasses.

Every failure mode maps to one of a small number of categories so callers
can distinguish "you handed me garbage" (shape/format/config) from "the
numerics went bad" (definiteness, overflow, NaN).
"""

import dataclasses


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


# declared field type -> accepted JSON value types
_TYPES = {
    "int": (int,), "float": (int, float), "str": (str,), "bool": (bool,), "tuple": (list, tuple), "None": (type(None),)
}


def config_fields(cls, section, name: str) -> dict:
    """Check the JSON config section ``name`` against the fields of the
    dataclass ``cls`` and return it as keyword arguments for ``cls``.

    Raises ConfigError, naming the section and key, for a section that is
    not an object, an unknown key, or a value whose type is not the field's
    declared type (float fields take ints; a bool is no int).  Lists become
    tuples for tuple fields.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object, got {type(section).__name__}")
    declared = {f.name: str(f.type) for f in dataclasses.fields(cls)}
    out = {}
    for key, value in section.items():
        if key not in declared:
            raise ConfigError(f"config section {name!r}: unknown key {key!r}")
        names = declared[key].split(" | ")
        allowed = tuple(t for n in names for t in _TYPES[n])
        if not isinstance(value, allowed) or (isinstance(value, bool) and "bool" not in names):
            raise ConfigError(
                f"config section {name!r}: key {key!r} must be {declared[key]}, got {type(value).__name__}"
            )
        out[key] = tuple(value) if isinstance(value, list) else value
    return out
