"""The exit-code contract as exceptions (`cli.main` exits 2 on a ConfigError,
3 on a DataError and 4 on a NumericalError), the file-reading failures every
loader reports at path:line, and csv_rows, which reads every CSV/TSV input."""

import contextlib
import csv
import operator
from typing import Iterator


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
def located(path):
    """A byte of `path` that is not UTF-8, read inside the block, is a
    DataError at path:line."""
    try:
        yield
    except UnicodeDecodeError:
        raise DataError(not_utf8(path)) from None


def column_positions(path, header: list[str], columns) -> list[int]:
    """The position in `header` of each of `columns`; a column the header
    does not name is a DataError at path:1."""
    missing = [c for c in columns if c not in header]
    if missing:
        raise DataError(f"{path}:1: missing columns {missing}")
    return [header.index(c) for c in columns]


def csv_rows(path, columns, delimiter=",") -> Iterator[tuple[int, tuple[str, ...]]]:
    """(line, fields in `columns` order) of each non-blank row of a CSV or TSV file.

    The header must name every one of `columns` (two or more), and every
    non-blank row must have as many fields as the header. Any other row, a
    csv.Error (a field over csv.field_size_limit(), say) or a byte that is
    not UTF-8 is a DataError at path:line.
    """
    with open(path, encoding="utf-8", newline="") as f, located(path):
        reader = csv.reader(f, delimiter=delimiter)
        try:
            header = next(reader, [])
            pick = operator.itemgetter(*column_positions(path, header, columns))
            for fields in reader:
                if len(fields) != len(header):
                    if not fields:
                        continue
                    raise DataError(
                        f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(fields)}"
                    )
                yield reader.line_num, pick(fields)
        except csv.Error as e:
            raise DataError(f"{path}:{reader.line_num}: {e}") from None
