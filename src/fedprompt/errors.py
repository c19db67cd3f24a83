"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value or infeasible setup."""


class DataError(ValueError):
    """Invalid or empty data where samples were required."""


class TrainingError(RuntimeError):
    """Local training failed; the message names its round (and client)."""

    def __init__(self, message, round_index=None, client_id=None):
        context = ", ".join(f"{key}={value}" for key, value in (
            ("round", round_index), ("client", client_id)) if value is not None)
        if context:
            message = f"{message} ({context})"
        super().__init__(message)
