"""Shared exception types. Each derives from MsisError, which the CLI
reports in one line, and from the built-in type callers may expect."""


class MsisError(Exception):
    """Base of every msis error."""


class DimensionError(MsisError, ValueError):
    """Tensor shapes do not conform for the requested operation."""


class DomainError(MsisError, ValueError):
    """Input is outside the mathematical domain of the operation."""


class ContractError(MsisError, RuntimeError):
    """A caller or callee violated an API contract."""


class ParseError(MsisError, ValueError):
    """A data file does not match its schema."""


class ConfigError(MsisError, ValueError):
    """A configuration value is invalid or inconsistent."""


class TrainingDiverged(MsisError, RuntimeError):
    """The training loss became non-finite, or after an epoch's last step
    the parameters or their predictions did; `value` is the loss or the
    largest parameter magnitude."""

    def __init__(self, epoch: int, batch_index: int, value: float, parameters: bool = False):
        super().__init__(
            f"non-finite parameters or predictions after epoch {epoch}, batch "
            f"{batch_index} (largest parameter magnitude {value!r})" if parameters
            else f"non-finite loss {value!r} at epoch {epoch}, batch {batch_index}")
        self.epoch = epoch
        self.batch_index = batch_index
        self.value = value
