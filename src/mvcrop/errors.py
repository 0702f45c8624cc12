"""Shared exception types for contract violations, and the structural
check that parsers run over a decoded JSON manifest."""


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

    ``spec`` is a type (``int`` means a non-negative integer, never a bool),
    a ``[spec]`` list whose items all match, a ``{key: spec}`` object with at
    least those keys, or a ``(spec, None)`` pair that also admits null.
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
    elif not isinstance(value, spec):
        raise FormatError(f"{where} must be of type {spec.__name__}")
