"""Exception types shared across the package."""


class UlsamError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(UlsamError):
    """A shape, extent, or option is inconsistent with what an operation needs."""


class DirectiveError(ConfigurationError):
    """An attention position directive is malformed or targets an illegal layer."""


class IngestionError(UlsamError):
    """A dataset file is structurally broken (truncated, wrong record size)."""


class DataError(UlsamError):
    """A dataset file parsed but contains invalid values (e.g. label out of range)."""


class CheckpointError(UlsamError):
    """A checkpoint file has a bad magic tag, version, or payload."""


class DivergenceError(UlsamError):
    """Training produced a non-finite loss; the message names the epoch and the step."""


class TapeError(UlsamError):
    """A backward pass reached a tape node that an earlier backward already released."""
