"""The package's error type and the one subclass that callers catch."""


class RingflockError(ValueError):
    """Every error this package raises on purpose: a bad input or a result
    that does not exist, named in the message."""


class ConfigError(RingflockError):
    """Malformed configuration file; the CLI prefixes it with 'config error:'."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
