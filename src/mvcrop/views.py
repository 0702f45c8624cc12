"""View schemas: named input sources with fixed temporal/channel geometry.

A *view* is one co-registered input source for a sample. Temporal views are
``[T x D]`` series (monthly steps); static views are flat ``[D]`` vectors.
Five canonical views ship with fixed geometry; custom views are allowed with
an explicit schema, but reusing a canonical name with different geometry is
rejected to keep datasets and models interchangeable.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

# name -> (temporal, channels, steps)
_CANONICAL: dict[str, tuple[bool, int, int | None]] = {
    "optical": (True, 11, 12),
    "radar": (True, 2, 12),
    "weather": (True, 2, 12),
    "ndvi": (True, 1, 12),
    "topography": (False, 2, None),
}


@dataclass(frozen=True)
class ViewSchema:
    """Geometry of one input view.

    ``steps`` is the time-axis length for temporal views and must be None
    for static views.
    """

    name: str
    temporal: bool
    channels: int
    steps: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("view name must be non-empty")
        if self.channels < 1:
            raise ConfigError(f"view {self.name!r}: channels must be >= 1")
        if self.temporal:
            if self.steps is None or self.steps < 1:
                raise ConfigError(f"temporal view {self.name!r} needs steps >= 1")
        elif self.steps is not None:
            raise ConfigError(f"static view {self.name!r} must not declare steps")
        expected = _CANONICAL.get(self.name)
        if expected is not None and (self.temporal, self.channels, self.steps) != expected:
            raise ConfigError(
                f"view {self.name!r} is canonical with geometry "
                f"{expected}; got {(self.temporal, self.channels, self.steps)}"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        """Per-sample array shape: (T, D) for temporal, (D,) for static."""
        return (self.steps, self.channels) if self.temporal else (self.channels,)


CANONICAL_VIEWS: dict[str, ViewSchema] = {
    name: ViewSchema(name, temporal, channels, steps)
    for name, (temporal, channels, steps) in _CANONICAL.items()
}


def canonical_schema(name: str) -> ViewSchema:
    """Return the registered schema for one of the five canonical views."""
    try:
        return CANONICAL_VIEWS[name]
    except KeyError:
        raise ConfigError(
            f"unknown canonical view {name!r}; known: {sorted(CANONICAL_VIEWS)}"
        ) from None
