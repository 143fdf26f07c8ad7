"""The exit-code contract as exceptions (`cli.main` exits 2 on a ConfigError
or an OSError, 3 on a DataError and 4 on a NumericalError), warn, the one way
a diagnostic reaches stderr, the file-reading failures every loader reports
at path:line (UNDECODABLE_JSON among them), csv_rows, which reads every
CSV/TSV input, write_rows, which writes every CSV of text fields, and
write_number_csv, which writes every CSV of numbers and refuses one that is
not finite."""

import contextlib
import csv
import operator
from types import SimpleNamespace
from typing import Iterator

import numpy as np


class NormchartsError(Exception):
    """Base class for all library errors: `problem` says what is wrong and
    `row`, when the error is about one, indexes the input row it is about.
    The message is `problem`, or "row <row>: <problem>"; a caller that knows
    where the row came from re-raises from `problem` and `row`, not the message."""

    def __init__(self, problem, row=None):
        super().__init__(problem if row is None else f"row {row}: {problem}")
        self.problem = problem
        self.row = row


class ConfigError(NormchartsError):
    """Invalid or incomplete pipeline configuration."""


class DataError(NormchartsError):
    """Malformed or inconsistent input data."""


class NumericalError(NormchartsError):
    """Numerical failure (divergence, invalid parameters)."""


class EmptyInput(DataError):
    """Input with nothing to work on."""


class ClientError(NormchartsError):
    """Transport failure talking to an answer source."""


def warn(logger: str, message: str, *args) -> None:
    """Log `message % args` at WARNING on the logger named `logger` (a module's __name__)."""
    import logging  # here, so that importing the CLI stays as cheap as it is

    logging.getLogger(logger).warning(message, *args, stacklevel=2)


# What json.load(s) raises on text it cannot decode: JSONDecodeError (a
# ValueError), ValueError for an integer past sys.get_int_max_str_digits(),
# and RecursionError for nesting too deep.
UNDECODABLE_JSON = (ValueError, RecursionError)


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


def write_rows(path, header, rows, lineterminator="\r\n") -> None:
    """Write `header`, then `rows`, as csv.writer writes them, each line ended by `lineterminator`."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


def write_number_csv(path, header, texts, numbers, formats) -> None:
    """Write `header`, then per row of the 2-D `numbers` its fields in the
    `texts` columns (maybe none), quoted as csv.writer quotes them, and its
    numbers by `formats`, one %-format per column ("%.6f", say). The bytes are
    csv.writer's with an f-string per number: a number holds nothing csv quotes.
    A number that is not finite is a NumericalError, raised before `path` is opened.
    """
    bad = ~np.isfinite(numbers)
    if bad.any():
        row, column = divmod(int(np.argmax(bad)), numbers.shape[1])
        raise NumericalError(
            f"{path}: {header[len(header) - numbers.shape[1] + column]} of row {row + 1} "
            f"is {numbers[row, column]}, not a finite number"
        )
    line = ",".join(formats) + "\r\n"
    columns = numbers.T.tolist()
    if texts:
        # each quoted line ends in an empty field: cutting "\r\n" leaves a comma
        quoted = []
        csv.writer(SimpleNamespace(write=quoted.append)).writerows(zip(*texts, [""] * len(numbers)))
        line = "%s" + line
        columns.insert(0, map(operator.itemgetter(slice(-2)), quoted))
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerow(header)
        f.writelines(map(line.__mod__, zip(*columns)))
