"""Exception taxonomy shared by every module in the package."""

from __future__ import annotations


class FlowCacheError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(FlowCacheError):
    """Shape or divisibility violation; the message names the offending axis."""


class ConfigError(FlowCacheError):
    """Invalid, unknown, or missing configuration value.

    keys names the document keys (like "mode" or "latent.height") whose
    values a check read, so that parse_config can name the line to blame.
    """

    def __init__(self, message: str, keys: tuple[str, ...] = ()):
        super().__init__(message)
        self.keys = keys


class ScheduleError(FlowCacheError):
    """Timestep schedule violates ordering or endpoint requirements."""


class DomainError(FlowCacheError):
    """Numeric argument outside the mathematically valid domain."""


class StateError(FlowCacheError):
    """Operation applied to a cache state that cannot support it yet."""


class TraceError(FlowCacheError):
    """Trace archive or trace file is malformed, truncated, or misindexed."""
