"""Exception hierarchy shared across the pipeline."""


class NormchartsError(Exception):
    """Base class for all library errors."""


class ConfigError(NormchartsError):
    """Invalid or incomplete pipeline configuration."""


class DataError(NormchartsError):
    """Malformed or inconsistent input data."""


class NumericalError(NormchartsError):
    """Numerical failure (divergence, invalid parameters)."""


class EmptyInput(DataError):
    """Input with nothing to work on; `row` indexes the offending text when known."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class EmptyAnnotation(DataError):
    pass


class DuplicateId(DataError):
    pass


class MissingClass(DataError):
    pass


class MissingGold(DataError):
    pass


class IncompleteRecord(DataError):
    pass


class ShapeError(DataError):
    pass


class InvalidLabel(DataError):
    pass


class SchemaError(DataError):
    pass


class DegenerateInput(DataError):
    pass


class ClientError(NormchartsError):
    """Transport failure talking to an answer source."""

    def __init__(self, message, question_id=None):
        super().__init__(message)
        self.question_id = question_id


class DomainError(NumericalError):
    pass


class InvalidParams(NumericalError):
    pass


class Divergence(NumericalError):
    pass
