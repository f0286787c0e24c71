"""Exception types shared across the toolkit."""


class ValidationError(ValueError):
    """Raised when input data or configuration violates a contract."""


class NoSamplesError(ValidationError):
    """No sample of a dataset is left to fit or score: none carries every
    field a feature set reads, the rate cap removed them all, or a query
    file holds none. The command that read the dataset names its file."""


class TrainingError(RuntimeError):
    """Raised when a model fit fails numerically (e.g. factorization at max jitter)."""
