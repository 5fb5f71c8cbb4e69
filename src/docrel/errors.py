"""Exception hierarchy shared across the package."""


class DocrelError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DocrelError):
    """Input file could not be decoded or a record is malformed."""


class ValidationError(DocrelError):
    """A document violates a structural invariant (bad span, bad index, ...)."""


class ConfigError(DocrelError):
    """A configuration value or key is invalid."""


class ShapeError(DocrelError):
    """Tensor operands have incompatible shapes."""


class ContractError(DocrelError):
    """A function was called outside its contract (routing bug, non-scalar loss, ...)."""


class NotFoundError(DocrelError):
    """A lookup by id or name failed."""


class CheckpointError(DocrelError):
    """A checkpoint file is corrupt or does not match the active config."""


class TrainingDiverged(DocrelError):
    """Training hit a non-finite loss or gradient; carries diagnostics.

    `parameter` names the first parameter with a non-finite gradient and
    `max_abs_grad` is the largest finite |gradient|; a non-finite loss sets neither.
    """

    def __init__(self, message, epoch=None, batch=None, max_abs_grad=None, parameter=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.max_abs_grad = max_abs_grad
        self.parameter = parameter
