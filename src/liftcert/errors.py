"""Shared exception types, and the default work limit of every guard."""

DEFAULT_CANDIDATE_LIMIT = 10 ** 6


class LiftcertError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(LiftcertError):
    """Invalid configuration input (non-prime p, malformed pair spec, ...)."""


class ResourceLimitExceeded(LiftcertError):
    """A search or test would exceed its configured work limit.

    Carries the name and value of the bound so callers can decide to raise it.
    """

    def __init__(self, bound_name, bound, needed):
        self.bound_name = bound_name
        self.bound = bound
        self.needed = needed
        super().__init__(
            f"{bound_name} limit exceeded: need {needed}, limit is {bound}"
        )
