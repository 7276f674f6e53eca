"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """A request is refused for its size, before any work starts: a table
    over the memory budget, an x or limit not below 2**32, or a tau-sum
    whose estimated cost exceeds its budget."""


class ConfigError(ValueError):
    """An experiment configuration is invalid or vacuous."""


class SelfCheckError(RuntimeError):
    """An exact arithmetic identity failed during a run; indicates a bug."""
