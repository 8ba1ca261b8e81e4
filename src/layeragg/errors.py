"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Field or scheme parameters are out of range or mutually inconsistent."""


class InsufficientDataError(ValueError):
    """Fewer coded symbols than needed to determine the message."""


class CorruptionError(RuntimeError):
    """Received symbols are inconsistent with every codeword."""


class ProtocolError(RuntimeError):
    """A message entry is missing or malformed, or the round plan breaks
    one of its own counting identities."""


class CapExceededError(RuntimeError):
    """Requested enumeration, or estimated memory, is larger than its cap."""

    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate
