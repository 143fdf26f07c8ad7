"""Phenotype files: read, checked, QC-filtered, aggregated and written.

A phenotype row is one imaging sequence: six regional volumes plus eight
automated QC scores. A file of rows is held as one columnar PhenotypeTable.
Rows failing QC are dropped, survivors are collapsed to one phenotype per scan
session, and every drop is tallied by cause so the attrition arithmetic always
balances. Each column is declared once, as a field of its table: the field
holds its dtype, and the CSV headers are read off the fields. The module knows
nothing of growth models: synthetic cohorts drawn from one live in synthcorpus.
"""

import copy
import csv
import warnings
from array import array
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import DataError, column_positions, csv_rows, write_number_csv
from .report_text import Sex

QC_THRESHOLD = 0.65
DAYS_PER_YEAR = 365.25


class QcCategory(Enum):
    GENERAL_WHITE_MATTER = "qc_gwm"
    GENERAL_GREY_MATTER = "qc_ggm"
    GENERAL_CSF = "qc_gcsf"
    CEREBELLUM = "qc_cerebellum"
    BRAINSTEM = "qc_brainstem"
    THALAMUS = "qc_thalamus"
    PUTAMEN_PALLIDUM = "qc_putamen_pallidum"
    HIPPOCAMPUS_AMYGDALA = "qc_hippocampus_amygdala"


class Region(Enum):
    CORTICAL_GM = "vol_cortical_gm"
    SUBCORTICAL_GM = "vol_subcortical_gm"
    WHITE_MATTER = "vol_white_matter"
    VENTRICLES = "vol_ventricles"
    CEREBELLUM = "vol_cerebellum"
    TOTAL_INTRACRANIAL = "vol_tiv"


class AggregationMethod(Enum):
    MPRAGE_ONLY = "mprage"
    MEDIAN_ALL_SEQUENCES = "median"


_REGIONS = tuple(Region)
_SEX_CODES = (Sex.M.value, Sex.F.value)

# The accepted spellings of a boolean, matched case-blind: is_mprage in a
# phenotype CSV and the boolean options of a config INI.
BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_boolean(text: str, name: str) -> bool:
    """`text` by BOOLEANS, stripped; any other spelling is a ValueError naming `name`."""
    flag = BOOLEANS.get(text.strip().lower())
    if flag is None:
        raise ValueError(f"{name} must be one of {'/'.join(BOOLEANS)}, got {text!r}")
    return flag


class BadRow(DataError):
    """A table row that fails validation; `row` is its 0-based index."""

    def __init__(self, row: int, problem: str):
        super().__init__(f"row {row}: {problem}")
        self.row = row
        self.problem = problem


def _column(dtype, entries: type[Enum] | None = None):
    """A table column: a dataclass field whose metadata holds its dtype and,
    for a 2-D column, the CSV name of each entry, the values of `entries`."""
    names = None if entries is None else tuple(e.value for e in entries)
    return field(metadata={"dtype": dtype, "names": names})


class _Columns:
    """Behaviour shared by the columnar tables: every field made by _column is
    a column, one entry (or row of a 2-D column) per row, coerced to the dtype
    its field declares; csv_header reads the CSV header off the fields."""

    def _coerce(self) -> None:
        """Coerce every column to its dtype and check the shapes."""
        n = len(self.session_id)
        for f in self._column_fields():
            column = np.asarray(getattr(self, f.name), dtype=f.metadata["dtype"])
            names = f.metadata["names"]
            shape = (n,) if names is None else (n, len(names))
            if column.shape != shape:
                raise DataError(f"column {f.name} has shape {column.shape}, expected {shape}")
            object.__setattr__(self, f.name, column)

    @classmethod
    def _column_fields(cls) -> list:
        return [f for f in fields(cls) if "dtype" in f.metadata]

    @classmethod
    def _column_names(cls) -> list[str]:
        return [f.name for f in cls._column_fields()]

    @classmethod
    def csv_header(cls) -> tuple[str, ...]:
        """The field names in order, a 2-D column's replaced by its entries' names."""
        return tuple(name for f in fields(cls) for name in f.metadata.get("names") or (f.name,))

    def __len__(self) -> int:
        return len(self.session_id)

    def take(self, rows):
        """The table of the rows that `rows` (a mask or an index array) picks,
        not checked again: the rows of a checked table pass its checks."""
        taken = copy.copy(self)
        taken.__dict__.update((name, getattr(self, name)[rows]) for name in self._column_names())
        return taken


@dataclass(frozen=True, eq=False)
class PhenotypeTable(_Columns):
    """A phenotype file as columns, one row per imaging sequence.

    The id columns and `sex` hold Python strings (sex as the codes "M" and
    "F"), `volumes` is (n, 6) in Region order and `qc` is (n, 8) in
    QcCategory order. The constructor coerces every column to its dtype,
    checks the shapes, and raises BadRow for the first row whose age is not
    positive, whose sex is unknown, or which holds a volume that is not
    positive and finite.
    """

    session_id: np.ndarray = _column(object)
    sequence_id: np.ndarray = _column(object)
    scanner_id: np.ndarray = _column(object)
    age_days: np.ndarray = _column(np.int64)
    sex: np.ndarray = _column(object)
    is_mprage: np.ndarray = _column(bool)
    volumes: np.ndarray = _column(float, Region)
    qc: np.ndarray = _column(float, QcCategory)

    def __post_init__(self):
        self._coerce()
        volume_ok = np.isfinite(self.volumes) & (self.volumes > 0.0)
        masks = (self.age_days <= 0, ~np.isin(self.sex, _SEX_CODES), ~volume_ok.all(axis=1))
        bad = masks[0] | masks[1] | masks[2]
        if bad.any():
            row = int(np.argmax(bad))
            k = int(np.argmin(volume_ok[row]))  # the row's first bad volume, if it has one
            messages = (
                f"age_days must be positive, got {self.age_days[row]}",
                f"sex must be M or F, got {self.sex[row]!r}",
                f"volume {_REGIONS[k].value} must be positive and finite, got {self.volumes[row, k].item()}",
            )
            raise BadRow(row, next(m for m, mask in zip(messages, masks) if mask[row]))

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> "PhenotypeTable":
        """A table from (session_id, sequence_id, scanner_id, age_days, sex,
        is_mprage, volumes, qc) tuples, volumes and qc in enum order."""
        rows = list(rows)
        columns = list(zip(*rows)) if rows else [()] * len(fields(cls))
        volumes = np.reshape(columns[6], (len(rows), len(Region)))
        qc = np.reshape(columns[7], (len(rows), len(QcCategory)))
        return cls(*columns[:6], volumes, qc)


@dataclass(frozen=True, eq=False)
class SessionTable(_Columns):
    """Scan sessions as columns, one row per session, all aggregated by `method`.

    `session_id`, `scanner_id` and `sex` (the codes "M" and "F") hold Python
    strings, `age_days` is int64 and `volumes` is (n, 6) in Region order.
    `method` is one value, not a column; it comes before `volumes` because the
    session CSV has its column there.
    """

    session_id: np.ndarray = _column(object)
    scanner_id: np.ndarray = _column(object)
    age_days: np.ndarray = _column(np.int64)
    sex: np.ndarray = _column(object)
    method: AggregationMethod
    volumes: np.ndarray = _column(float, Region)

    def __post_init__(self):
        self._coerce()

    @property
    def age_years(self) -> np.ndarray:
        return self.age_days / DAYS_PER_YEAR

    @property
    def female(self) -> np.ndarray:
        return self.sex == Sex.F.value

    def volume(self, region: Region) -> np.ndarray:
        """The column of one region's volumes."""
        return self.volumes[:, _REGIONS.index(region)]


PHENOTYPE_COLUMNS = PhenotypeTable.csv_header()
SESSION_COLUMNS = SessionTable.csv_header()


def qc_filter(table: PhenotypeTable) -> PhenotypeTable:
    """Keep a row only if every QC category scores at least 0.65.

    The rule is inclusive: a score of exactly 0.65 passes.
    """
    return table.take((table.qc >= QC_THRESHOLD).all(axis=1))


@dataclass(frozen=True)
class AttritionReport:
    n_input_sessions: int
    n_output_sessions: int
    dropped_qc: int
    dropped_no_mprage: int

    def __post_init__(self):
        total = self.n_output_sessions + self.dropped_qc + self.dropped_no_mprage
        if total != self.n_input_sessions:
            raise DataError(
                f"attrition does not balance: {self.n_input_sessions} != {total}"
            )


def _group_medians(values: np.ndarray, group: np.ndarray, n_groups: int):
    """statistics.median of each column of `values` within each group.

    `group` must be sorted; rows tied on a value keep their order. Returns
    the medians of the groups that have rows, in group order, and the mask
    of those groups. An even count takes (a + b) / 2 of the two middle
    values, exactly as statistics.median does. The groups of one size c are
    sorted as one (groups, c, columns) block: memory linear in the rows.
    """
    counts = np.bincount(group, minlength=n_groups)
    present = counts > 0
    counts = counts[present]
    start = np.cumsum(counts) - counts
    medians = np.empty((len(counts), values.shape[1]))
    by_size = np.argsort(counts, kind="stable")
    sizes, begin = np.unique(counts[by_size], return_index=True)
    for c, at in zip(sizes.tolist(), np.split(by_size, begin[1:])):
        block = np.sort(values[start[at, None] + np.arange(c)], axis=1, kind="stable")
        lo = (c - 1) // 2
        with np.errstate(over="ignore"):  # a sum past the largest float is inf, as in statistics.median
            medians[at] = block[:, lo] if c % 2 else (block[:, lo] + block[:, lo + 1]) / 2
    return medians, present


def build_sessions(
    table: PhenotypeTable,
    method: AggregationMethod,
) -> tuple[SessionTable, AttritionReport]:
    """QC-filter, group by session, take medians, and account for every drop.

    Sessions come out in code-point order of their ids. A session's scanner,
    age and sex are those of its first QC-passing row. MPRAGE_ONLY takes the
    medians over QC-passing MPRAGE rows only and drops a session that has none.
    """
    # return_index makes np.unique sort stably, in linear time on ids already in order
    ids, _, inverse = np.unique(table.session_id, return_index=True, return_inverse=True)
    # sorted stably by session, each kept session's rows are contiguous and in file order
    kept = qc_filter(table.take(np.argsort(inverse, kind="stable")))
    starts = np.ones(len(kept), dtype=bool)
    starts[1:] = kept.session_id[1:] != kept.session_id[:-1]
    group = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    pool = kept.is_mprage if method is AggregationMethod.MPRAGE_ONLY else slice(None)
    medians, present = _group_medians(kept.volumes[pool], group[pool], len(first))
    first = first[present]
    # session_id, scanner_id, age_days and sex of each session's first kept row
    sessions = SessionTable(*(getattr(kept, c)[first] for c in SESSION_COLUMNS[:4]), method, medians)
    report = AttritionReport(
        n_input_sessions=len(ids),
        n_output_sessions=len(sessions),
        dropped_qc=len(ids) - len(present),
        dropped_no_mprage=len(present) - len(sessions),
    )
    return sessions, report


def load_phenotype_csv(path) -> PhenotypeTable:
    """Read a phenotype CSV; a bad row, a csv.Error or a byte that is not
    UTF-8 is a DataError at path:line.

    The header is read by csv and the body is parsed by np.loadtxt in one C
    pass. Whatever that pass does not take cleanly -- an error or a warning
    from loadtxt, an unknown is_mprage spelling, a row PhenotypeTable rejects
    -- is read again by the row loop, which returns the table or names the bad
    line. So the values accepted and the messages are those of int and float.
    """
    try:
        return _load_columns(path)
    except (ValueError, Warning, BadRow, csv.Error):  # UnicodeDecodeError is a ValueError
        return _load_rows(path)


def _load_columns(path) -> PhenotypeTable:
    """The file parsed by np.loadtxt; a ValueError if is_mprage has an unknown spelling.

    The file is opened with newline="" and handed on after the header, as csv
    reads it: loadtxt opening the path itself would turn a quoted "\r\n"
    into "\n". Every header field is a column of the structured dtype, so a
    row of another length is an error, as it is in the row loop.
    """
    with open(path, encoding="utf-8", newline="") as f:
        header = next(csv.reader(f), [])
        pos = column_positions(path, header, PHENOTYPE_COLUMNS)
        kinds = [object] * len(header)
        kinds[pos[3]] = np.int64
        for i in pos[6:]:
            kinds[i] = float
        dtype = np.dtype([(f"f{i}", kind) for i, kind in enumerate(kinds)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = np.loadtxt(f, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
    # copies: a view would keep the whole parsed body alive with the table
    session_id, sequence_id, scanner_id, age_days, sex = (body[f"f{i}"].copy() for i in pos[:5])
    mprage = body[f"f{pos[5]}"].tolist()
    flags = {s: parse_boolean(s, "is_mprage") for s in set(mprage)}
    numbers = np.stack([body[f"f{i}"] for i in pos[6:]], axis=1)
    return PhenotypeTable(
        session_id, sequence_id, scanner_id, age_days, sex,
        np.fromiter(map(flags.__getitem__, mprage), bool, len(mprage)),
        numbers[:, : len(Region)], numbers[:, len(Region) :],
    )


def _load_rows(path) -> PhenotypeTable:
    """Read the file row by row with errors.csv_rows and int/float; raise at path:line."""
    session_id, sequence_id, scanner_id, sex, is_mprage = [], [], [], [], []
    age_days, numbers, lines = array("q"), array("d"), array("q")
    for line, (sid, seq, scanner, age, sex_code, mprage, *values) in csv_rows(path, PHENOTYPE_COLUMNS):
        try:
            age_days.append(int(age))
            numbers.extend(map(float, values))
            is_mprage.append(parse_boolean(mprage, "is_mprage"))
        except (ValueError, OverflowError) as e:
            raise DataError(f"{path}:{line}: {e}") from None
        session_id.append(sid)
        sequence_id.append(seq)
        scanner_id.append(scanner)
        sex.append(sex_code)
        lines.append(line)
    numbers = np.frombuffer(numbers, dtype=float).reshape(len(lines), len(Region) + len(QcCategory))
    try:
        return PhenotypeTable(
            session_id, sequence_id, scanner_id, age_days, sex, is_mprage,
            numbers[:, : len(Region)], numbers[:, len(Region) :],
        )
    except BadRow as e:
        raise DataError(f"{path}:{lines[e.row]}: {e.problem}") from None


def write_phenotype_csv(path, table: PhenotypeTable) -> None:
    ids = [getattr(table, name).tolist() for name in PHENOTYPE_COLUMNS[:5]]
    mprage = ["true" if m else "false" for m in table.is_mprage.tolist()]
    formats = ["%.6f"] * len(Region) + ["%.4f"] * len(QcCategory)
    write_number_csv(path, PHENOTYPE_COLUMNS, [*ids, mprage], np.hstack([table.volumes, table.qc]), formats)


def write_sessions_csv(path, sessions: SessionTable) -> None:
    ids = [getattr(sessions, name).tolist() for name in SESSION_COLUMNS[:4]]
    method = [sessions.method.value] * len(sessions)
    write_number_csv(path, SESSION_COLUMNS, [*ids, method], sessions.volumes, ["%.6f"] * len(Region))

