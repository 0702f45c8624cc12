"""Shared exception types for contract violations, the structural check
that parsers run over a decoded JSON manifest, and the field-type rule that
config objects run on themselves."""

from dataclasses import fields


class ShapeError(ValueError):
    """Operand shapes or batch extents violate an operation's contract."""


class ConfigError(ValueError):
    """A structural, schema, or hyperparameter setting is illegal."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where finite math was required."""


class FormatError(ValueError):
    """A serialized artifact (container, checkpoint, CSV) is malformed."""


def check_structure(value, spec, where: str = "manifest"):
    """Raise FormatError naming ``where`` unless ``value`` matches ``spec``.

    ``spec`` is a type (``int`` means a non-negative integer and ``float``
    an integer or a float, neither of them a bool), a ``[spec]`` list whose
    items all match, a ``{key: spec}`` object with at least those keys, or
    a ``(spec, None)`` pair that also admits null.
    """
    if isinstance(spec, tuple):
        if value is None:
            return
        spec = spec[0]
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise FormatError(f"{where} must be an object")
        for key, item_spec in spec.items():
            if key not in value:
                raise FormatError(f"{where} lacks {key!r}")
            check_structure(value[key], item_spec, f"{where}.{key}")
    elif isinstance(spec, list):
        if not isinstance(value, list):
            raise FormatError(f"{where} must be a list")
        for i, item in enumerate(value):
            check_structure(item, spec[0], f"{where}[{i}]")
    elif spec is int:
        if type(value) is not int or value < 0:
            raise FormatError(f"{where} must be a non-negative integer")
    elif spec is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(f"{where} must be a number")
    elif not isinstance(value, spec):
        raise FormatError(f"{where} must be of type {spec.__name__}")


def check_fields(config) -> None:
    """Raise ConfigError naming the field unless every field of the
    dataclass ``config`` annotated ``int``, ``float`` or ``bool`` holds a
    value that ``check_structure`` admits for that type."""
    for item in fields(config):
        spec = {"int": int, "float": float, "bool": bool}.get(item.type)
        if spec is not None:
            try:
                check_structure(getattr(config, item.name), spec, item.name)
            except FormatError as exc:
                raise ConfigError(f"wrong value type: {exc}") from None
