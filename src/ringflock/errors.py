"""The package's error type and the two subclasses that callers catch."""


class RingflockError(ValueError):
    """Every error this package raises on purpose: a bad input or a result
    that does not exist, named in the message."""


class DegenerateBranches(RingflockError):
    """Both roots of a nonzero mode are real, so the imaginary-sign
    branch labels are undefined; velocities reports it as exit 3."""


class ConfigError(RingflockError):
    """Malformed configuration file; the CLI prefixes it with 'config error:'."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
