"""Volumetric phenotype ingestion, QC exclusion, and session-level aggregation.

A phenotype row is one imaging sequence: six regional volumes plus eight
automated QC scores. A file of rows is held as one columnar PhenotypeTable.
Rows failing QC are dropped, survivors are collapsed to one phenotype per scan
session, and every drop is tallied by cause so the attrition arithmetic always
balances.
"""

import csv
import math
import warnings
from array import array
from dataclasses import dataclass, fields, replace
from enum import Enum
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from .errors import DataError, NumericalError, column_positions, csv_rows
from .report_text import Sex

QC_THRESHOLD = 0.65


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


class BadRow(DataError):
    """A table row that fails validation; `row` is its 0-based index."""

    def __init__(self, row: int, problem: str):
        super().__init__(f"row {row}: {problem}")
        self.row = row
        self.problem = problem


class _Columns:
    """Behaviour shared by the columnar tables: every field named in
    _COLUMN_TYPES is a column, one entry (or row of a 2-D column) per row."""

    def _coerce(self) -> None:
        """Coerce every column to its dtype and check the shapes."""
        n = len(self.session_id)
        for name in self._column_names():
            dtype, width = _COLUMN_TYPES[name]
            column = np.asarray(getattr(self, name), dtype=dtype)
            shape = (n,) if width is None else (n, width)
            if column.shape != shape:
                raise DataError(f"column {name} has shape {column.shape}, expected {shape}")
            object.__setattr__(self, name, column)

    @classmethod
    def _column_names(cls) -> list[str]:
        return [f.name for f in fields(cls) if f.name in _COLUMN_TYPES]

    def __len__(self) -> int:
        return len(self.session_id)

    def take(self, rows):
        """The table of the rows that `rows` (a mask or an index array) picks."""
        return replace(self, **{name: getattr(self, name)[rows] for name in self._column_names()})

    def rows(self) -> Iterable[tuple]:
        """The rows as tuples of Python values, columns in field order."""
        return zip(*(getattr(self, name).tolist() for name in self._column_names()))


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

    session_id: np.ndarray
    sequence_id: np.ndarray
    scanner_id: np.ndarray
    age_days: np.ndarray
    sex: np.ndarray
    is_mprage: np.ndarray
    volumes: np.ndarray
    qc: np.ndarray

    def __post_init__(self):
        self._coerce()
        bad = (
            (self.age_days <= 0)
            | ~np.isin(self.sex, _SEX_CODES)
            | ~(np.isfinite(self.volumes) & (self.volumes > 0.0)).all(axis=1)
        )
        if bad.any():
            row = int(np.argmax(bad))
            raise BadRow(row, self._problem(row))

    def _problem(self, row: int) -> str:
        if self.age_days[row] <= 0:
            return f"age_days must be positive, got {self.age_days[row]}"
        if self.sex[row] not in _SEX_CODES:
            return f"sex must be M or F, got {self.sex[row]!r}"
        region, v = next(
            (r, v) for r, v in zip(Region, self.volumes[row].tolist())
            if not (v > 0.0 and math.isfinite(v))
        )
        return f"volume {region.value} must be positive and finite, got {v}"

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
    """

    session_id: np.ndarray
    scanner_id: np.ndarray
    age_days: np.ndarray
    sex: np.ndarray
    volumes: np.ndarray
    method: AggregationMethod

    def __post_init__(self):
        self._coerce()

    @property
    def age_years(self) -> np.ndarray:
        return self.age_days / 365.25

    @property
    def female(self) -> np.ndarray:
        return self.sex == Sex.F.value

    def volume(self, region: Region) -> np.ndarray:
        """The column of one region's volumes."""
        return self.volumes[:, _REGIONS.index(region)]


# column -> (dtype, width of a 2-D column or None)
_COLUMN_TYPES = {
    "session_id": (object, None),
    "sequence_id": (object, None),
    "scanner_id": (object, None),
    "age_days": (np.int64, None),
    "sex": (object, None),
    "is_mprage": (bool, None),
    "volumes": (float, len(Region)),
    "qc": (float, len(QcCategory)),
}


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

    Returns the medians of the groups that have rows, in group order, and
    the mask of those groups. An even count takes (a + b) / 2 of the two
    middle values, exactly as statistics.median does.
    """
    counts = np.bincount(group, minlength=n_groups)
    present = counts > 0
    start = (np.cumsum(counts) - counts)[present]
    counts = counts[present]
    lo = start + (counts - 1) // 2
    even = counts % 2 == 0
    hi = lo[even] + 1
    medians = np.empty((len(counts), values.shape[1]))
    for k in range(values.shape[1]):
        ordered = values[np.lexsort((values[:, k], group)), k]
        medians[:, k] = ordered[lo]
        medians[even, k] = (ordered[lo[even]] + ordered[hi]) / 2
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
    n_input = len(np.unique(table.session_id))
    kept = qc_filter(table)
    ids, first, group = np.unique(kept.session_id, return_index=True, return_inverse=True)
    pool = kept.is_mprage if method is AggregationMethod.MPRAGE_ONLY else slice(None)
    medians, present = _group_medians(kept.volumes[pool], group[pool], len(ids))
    first = first[present]
    sessions = SessionTable(
        session_id=ids[present],
        scanner_id=kept.scanner_id[first],
        age_days=kept.age_days[first],
        sex=kept.sex[first],
        volumes=medians,
        method=method,
    )
    report = AttritionReport(
        n_input_sessions=n_input,
        n_output_sessions=len(sessions),
        dropped_qc=n_input - len(ids),
        dropped_no_mprage=len(ids) - len(sessions),
    )
    return sessions, report


PHENOTYPE_COLUMNS = (
    "session_id",
    "sequence_id",
    "scanner_id",
    "age_days",
    "sex",
    "is_mprage",
    *(r.value for r in Region),
    *(q.value for q in QcCategory),
)


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
        table = _load_columns(path)
    except (ValueError, Warning, BadRow, csv.Error):  # UnicodeDecodeError is a ValueError
        table = None
    return _load_rows(path) if table is None else table


def _load_columns(path) -> PhenotypeTable | None:
    """The file parsed by np.loadtxt; None if is_mprage has an unknown spelling.

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
    flags = {s: BOOLEANS.get(s.strip().lower()) for s in set(mprage)}
    if None in flags.values():
        return None
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
        except (ValueError, OverflowError) as e:
            raise DataError(f"{path}:{line}: {e}") from None
        flag = BOOLEANS.get(mprage.strip().lower())
        if flag is None:
            raise DataError(
                f"{path}:{line}: is_mprage must be one of {'/'.join(BOOLEANS)}, got {mprage!r}"
            )
        session_id.append(sid)
        sequence_id.append(seq)
        scanner_id.append(scanner)
        sex.append(sex_code)
        is_mprage.append(flag)
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
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(PHENOTYPE_COLUMNS)
        for *ids, age, sex, mprage, volumes, qc in table.rows():
            writer.writerow(
                [*ids, age, sex, "true" if mprage else "false"]
                + [f"{v:.6f}" for v in volumes]
                + [f"{q:.4f}" for q in qc]
            )


SESSION_COLUMNS = (
    "session_id",
    "scanner_id",
    "age_days",
    "sex",
    "method",
    *(r.value for r in Region),
)


# one row's volumes after its id fields, to 6 decimals
_SESSION_VOLUMES = ",".join(["%.6f"] * len(Region)) + "\r\n"


def write_sessions_csv(path, sessions: SessionTable) -> None:
    # csv.writer quotes the id fields. Each of its lines ends in an empty
    # field, so cutting the "\r\n" leaves the comma before the volumes.
    method = sessions.method.value
    ids = []
    csv.writer(SimpleNamespace(write=ids.append)).writerows(
        (sid, scanner, age, sex, method, "") for sid, scanner, age, sex, _ in sessions.rows()
    )
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerow(SESSION_COLUMNS)
        f.writelines(
            line[:-2] + _SESSION_VOLUMES % tuple(volumes)
            for line, volumes in zip(ids, sessions.volumes.tolist())
        )


# Relative size of each region against the modeled one; used only when
# synthesizing cohorts so every column of the CSV is populated.
_REGION_SCALE = {
    Region.CORTICAL_GM: 1.0,
    Region.SUBCORTICAL_GM: 0.12,
    Region.WHITE_MATTER: 0.80,
    Region.VENTRICLES: 0.04,
    Region.CEREBELLUM: 0.25,
    Region.TOTAL_INTRACRANIAL: 2.60,
}


def synth_cohort(
    seed: int,
    n_sessions: int,
    n_scanners: int,
    truth,
    age_range_days: tuple[float, float] = (135.0, 7100.0),
    qc_fail_rate: float = 0.02,
    jitter_sigma: float = 0.01,
) -> PhenotypeTable:
    """Draw a synthetic cohort from a known growth model.

    Ages are uniform over age_range_days, sexes fair-coin, scanners assigned
    round-robin, and 1 to 4 sequences per session carry small multiplicative
    jitter around the session draw. A qc_fail_rate fraction of sequences get
    one QC category planted below the exclusion threshold.
    """
    from .growthchart import GGParams, GrowthModel, gg_sample_one, linear_predictors

    if not isinstance(truth, GrowthModel):
        raise NumericalError("truth must be a GrowthModel")
    if n_sessions < 1 or n_scanners < 1:
        raise NumericalError("n_sessions and n_scanners must be >= 1")
    rng = np.random.default_rng(seed)
    if truth.scanner_intercepts:
        scanner_ids = sorted(truth.scanner_intercepts)
        if len(scanner_ids) != n_scanners:
            raise NumericalError(
                f"truth has {len(scanner_ids)} scanner intercepts, expected {n_scanners}"
            )
    else:
        scanner_ids = [f"scan-{i:02d}" for i in range(n_scanners)]
    rows = []
    lo, hi = age_range_days
    for i in range(n_sessions):
        age_days = int(round(rng.uniform(lo, hi)))
        age_days = max(1, age_days)
        sex = Sex.M if rng.random() < 0.5 else Sex.F
        scanner = scanner_ids[i % n_scanners]
        eta_mu, eta_sigma = linear_predictors(truth, age_days / 365.25, sex is Sex.F, scanner)
        # libm's exp, not numpy's: they differ in the last bit for about one
        # argument in twenty, and the tests pin digests of cohorts drawn with libm.
        params = GGParams(math.exp(eta_mu), math.exp(eta_sigma), truth.nu)
        base = gg_sample_one(rng, params)
        n_seq = int(rng.integers(1, 5))
        for j in range(n_seq):
            jitter = float(np.exp(rng.normal(0.0, jitter_sigma)))
            modeled = base * jitter
            volumes = tuple(modeled * _REGION_SCALE[region] for region in Region)
            qc = [float(rng.uniform(0.70, 1.0)) for _ in QcCategory]
            if rng.random() < qc_fail_rate:
                bad = int(rng.integers(0, len(QcCategory)))
                qc[bad] = float(rng.uniform(0.0, 0.649))
            is_mprage = bool(rng.random() < 0.6)
            rows.append((f"ses-{i:05d}", f"ses-{i:05d}-seq-{j}", scanner, age_days,
                         sex.value, is_mprage, volumes, qc))
    return PhenotypeTable.from_rows(rows)
