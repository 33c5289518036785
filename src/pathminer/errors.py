"""Exception hierarchy shared across the package."""


class PathminerError(Exception):
    """Base class for all errors raised on bad input or bad models."""


class SchemaError(PathminerError):
    """A tabular input is missing a required column."""


class RowError(PathminerError):
    """A data row could not be parsed; carries the 1-based row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class FormatError(PathminerError):
    """A serialized document (XES, net JSON, DOT input) is malformed."""


class ModelError(PathminerError):
    """A model is unusable for the requested analysis (e.g. no path to the final marking)."""


# The default state-space cap of the alignment search, for conform and decide.
DEFAULT_CAP = 100_000


class ResourceError(PathminerError):
    """A configured search cap was exceeded."""

    def __init__(self, cap: int, message: str = ""):
        detail = message or f"state-space cap of {cap} markings exceeded"
        super().__init__(detail)
        self.cap = cap


class ConfigError(PathminerError):
    """A simulation configuration is invalid."""


class InputError(PathminerError):
    """An operation received arguments outside its contract."""
