"""Exception types shared across the package."""


class PspectError(Exception):
    """Base class for package errors."""


class ConfigError(PspectError):
    """Invalid run configuration (CLI exit code 1)."""


class PreconditionError(PspectError, ValueError):
    """A documented operation precondition was violated."""


class SpectrumIncomplete(PreconditionError):
    """An eigenvalue a computation needs was not validated by its search
    (CLI exit code 2); the message carries the search's stop reason."""


class NegativeSequenceAbsent(SpectrumIncomplete):
    """Negative eigenvalue sequence requested but the weight has no negative part."""


class IntegrationError(PspectError):
    """The initial-value integrator failed to reach r = 1; the message
    names the radius where it stopped."""
