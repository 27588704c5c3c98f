"""Exception types shared across the lab, each with the exit code `qlab`
ends with when it escapes a command."""


class QlabError(Exception):
    """Base class for all lab errors."""

    exit_code = 2  # configuration, data and file errors


class ContractViolation(QlabError):
    """An operation was called with arguments that break its contract."""


class ConfigError(QlabError):
    """Invalid, unknown, or inconsistent configuration."""


class IngestionError(QlabError):
    """Corpus file missing, empty, or unreadable."""


class FactorizationError(QlabError):
    """Cholesky factorization hit a non-positive-definite pivot."""

    exit_code = 3

    def __init__(self, pivot: int, value: float):
        self.pivot = pivot
        self.value = value
        super().__init__(f"non-positive-definite pivot at index {pivot} (value {value:.6g})")


class NumericFailure(QlabError):
    """Non-finite values appeared during compute; `where` names the source."""

    exit_code = 3

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(message)


class QuantizationError(QlabError):
    """Quantization of a layer failed; carries the layer name."""

    exit_code = 3

    def __init__(self, message: str, layer: str = ""):
        self.layer = layer
        super().__init__(message)


class CheckpointFormatError(QlabError):
    """Checkpoint file is malformed or fails its checksum."""


class MergeError(QlabError):
    """Conflicting values for the same metrics key."""


class ReportError(QlabError):
    """Plot request references missing data."""


class PartialFailure(QlabError):
    """Some jobs of a multi-job command failed; the others completed."""

    exit_code = 4
