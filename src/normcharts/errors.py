"""The exit-code contract as exceptions (`cli.main` exits 2 on a ConfigError,
3 on a DataError and 4 on a NumericalError), and the file-reading failures
every loader reports at path:line."""

import contextlib
import csv


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


class ClientError(NormchartsError):
    """Transport failure talking to an answer source."""


def not_utf8(path) -> str:
    """path:line and the first byte of the file that is not UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[: e.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return f"{path}:{line}: not UTF-8: byte {data[e.start]:#04x} ({e.reason})"
    return f"{path}: not UTF-8"


@contextlib.contextmanager
def located(path, reader=None):
    """Yield `reader`; a byte of `path` that is not UTF-8, or a csv.Error from
    `reader` (a field over csv.field_size_limit(), say), is a DataError at
    path:line."""
    try:
        yield reader
    except UnicodeDecodeError:
        raise DataError(not_utf8(path)) from None
    except csv.Error as e:
        # a DictReader updates its own line_num only after a row it has read
        line = getattr(reader, "reader", reader).line_num
        raise DataError(f"{path}:{line}: {e}") from None
