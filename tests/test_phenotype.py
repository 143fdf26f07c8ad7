import csv
import io
import math
import random
import statistics
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normcharts import phenotype, synthcorpus
from normcharts.errors import DataError, NumericalError, write_number_csv, write_rows
from normcharts.growthchart import FpSpec, GrowthModel, params_at
from normcharts.phenotype import (
    BOOLEANS,
    PHENOTYPE_COLUMNS,
    QC_THRESHOLD,
    AggregationMethod,
    AttritionReport,
    PhenotypeTable,
    QcCategory,
    Region,
    SessionTable,
    build_sessions,
    load_phenotype_csv,
    qc_filter,
    write_phenotype_csv,
    write_sessions_csv,
)
from normcharts.report_text import Sex
from normcharts.synthcorpus import synth_cohort


def make_row(session="ses-1", seq="seq-0", qc_scores=None, vol=1000.0,
             is_mprage=True, scanner="scan-0", age_days=3650, sex=Sex.M):
    qc = {c: 0.9 for c in QcCategory}
    if qc_scores:
        qc.update(qc_scores)
    return (session, seq, scanner, age_days, sex.value, is_mprage,
            (vol,) * len(Region), tuple(qc[c] for c in QcCategory))


def make_table(*rows):
    return PhenotypeTable.from_rows(rows)


def table_rows(table):
    """The rows of a phenotype or session table as tuples of Python values,
    columns in field order."""
    return list(zip(*(getattr(table, name).tolist() for name in table._column_names())))


def only_session(*rows, method=AggregationMethod.MEDIAN_ALL_SEQUENCES):
    """The one-row session table build_sessions makes of rows, or None if it
    drops the session."""
    sessions, _ = build_sessions(make_table(*rows), method)
    assert len(sessions) <= 1
    return sessions if len(sessions) else None


def test_qc_filter_threshold_is_inclusive():
    below = make_row(qc_scores={QcCategory.BRAINSTEM: 0.64})
    at = make_row(qc_scores={QcCategory.BRAINSTEM: 0.65})
    high = make_row()
    kept = qc_filter(make_table(below, at, high))
    assert table_rows(kept) == table_rows(make_table(at, high))
    assert QC_THRESHOLD == 0.65


def test_qc_filter_idempotent():
    rows = [make_row(qc_scores={c: 0.3}) for c in QcCategory]
    rows.append(make_row())
    once = qc_filter(make_table(*rows))
    assert table_rows(qc_filter(once)) == table_rows(once)
    assert len(once) == 1


def test_record_requires_every_qc_category():
    seven = PhenotypeTable.from_rows([make_row()]).qc[:, 1:]
    with pytest.raises(DataError, match=r"^column qc has shape \(1, 7\), expected \(1, 8\)$"):
        PhenotypeTable(
            session_id=["s"], sequence_id=["q"], scanner_id=["sc"], age_days=[10],
            sex=["F"], is_mprage=[True], volumes=[[1.0] * len(Region)], qc=seven,
        )


def test_record_rejects_nonpositive_volume():
    volumes = [1.0] * len(Region)
    volumes[list(Region).index(Region.VENTRICLES)] = 0.0
    with pytest.raises(DataError, match="vol_ventricles"):
        PhenotypeTable(
            session_id=["s"], sequence_id=["q"], scanner_id=["sc"], age_days=[10],
            sex=["F"], is_mprage=[True], volumes=[volumes], qc=[[0.9] * len(QcCategory)],
        )


def test_a_bad_row_is_a_data_error_at_its_row_that_the_loader_names_by_line(tmp_path):
    rows = [make_row(seq=f"q{i}") for i in range(3)]
    good = tmp_path / "good.csv"
    write_phenotype_csv(good, make_table(*rows))
    rows[2] = rows[2][:4] + ("X",) + rows[2][5:]
    with pytest.raises(DataError) as e:
        make_table(*rows)
    assert (type(e.value), e.value.row, e.value.problem) == (DataError, 2, "sex must be M or F, got 'X'")
    assert str(e.value) == "row 2: sex must be M or F, got 'X'"
    # the loader prints that problem at the file line of row 2, the header being line 1
    lines = good.read_text().splitlines()
    lines[3] = lines[3].replace(",M,", ",X,")
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as e:
        load_phenotype_csv(bad)
    assert (str(e.value), e.value.row) == (f"{bad}:4: sex must be M or F, got 'X'", None)


def test_median_odd_and_even():
    agg3 = only_session(*(make_row(seq=f"q{i}", vol=v) for i, v in enumerate((100.0, 130.0, 110.0))))
    assert agg3.volumes.tolist() == [[110.0] * len(Region)]
    agg2 = only_session(*(make_row(seq=f"q{i}", vol=v) for i, v in enumerate((100.0, 110.0))))
    assert agg2.volumes.tolist() == [[105.0] * len(Region)]


def test_mprage_only_restricts_then_medians():
    agg = only_session(
        make_row(seq="q0", vol=100.0, is_mprage=True),
        make_row(seq="q1", vol=300.0, is_mprage=False),
        make_row(seq="q2", vol=120.0, is_mprage=True),
        method=AggregationMethod.MPRAGE_ONLY,
    )
    assert agg.volume(Region.CORTICAL_GM).tolist() == [110.0]


def test_mprage_only_none_when_no_mprage():
    assert only_session(make_row(seq="q0", is_mprage=False),
                        method=AggregationMethod.MPRAGE_ONLY) is None


def test_single_record_identity():
    row = make_row(vol=123.5)
    agg = only_session(row)
    assert agg.volumes.tolist() == [[123.5] * len(Region)]
    assert agg.session_id.tolist() == [row[0]]
    assert agg.age_days.tolist() == [row[3]]


def test_aggregate_permutation_invariant():
    rows = [make_row(seq=f"q{i}", vol=float(100 + 7 * i)) for i in range(5)]
    agg0 = only_session(*rows)
    shuffled = rows[:]
    random.Random(3).shuffle(shuffled)
    agg1 = only_session(*shuffled)
    assert agg0.volumes.tolist() == agg1.volumes.tolist()


def test_aggregate_rejects_mixed_sessions():
    # rows of two sessions never share a median: each session keeps its own
    sessions, _ = build_sessions(
        make_table(make_row(session="a", vol=1.0), make_row(session="b", seq="q1", vol=3.0),
                   make_row(session="a", seq="q2", vol=2.0)),
        AggregationMethod.MEDIAN_ALL_SEQUENCES,
    )
    got = list(zip(sessions.session_id.tolist(), sessions.volume(Region.CORTICAL_GM).tolist()))
    assert got == [("a", 1.5), ("b", 3.0)]


def test_attrition_must_balance():
    AttritionReport(n_input_sessions=5, n_output_sessions=3, dropped_qc=1,
                    dropped_no_mprage=1)
    with pytest.raises(DataError, match="^attrition does not balance: 5 != 6$"):
        AttritionReport(n_input_sessions=5, n_output_sessions=3, dropped_qc=1,
                        dropped_no_mprage=2)


def test_build_sessions_accounts_for_every_drop():
    table = make_table(
        make_row(session="a", seq="q0"),
        make_row(session="b", seq="q0", qc_scores={QcCategory.BRAINSTEM: 0.1}),
        make_row(session="c", seq="q0", is_mprage=False),
        make_row(session="d", seq="q0"),
        make_row(session="d", seq="q1", qc_scores={QcCategory.BRAINSTEM: 0.1}),
    )
    sessions, report = build_sessions(table, AggregationMethod.MPRAGE_ONLY)
    assert sessions.session_id.tolist() == ["a", "d"]
    assert report == AttritionReport(4, 2, 1, 1)


def test_age_years_property():
    s = SessionTable(
        session_id=["s"], scanner_id=["sc"], age_days=[3652], sex=[Sex.F.value],
        volumes=[[1.0] * len(Region)],
        method=AggregationMethod.MEDIAN_ALL_SEQUENCES,
    )
    assert s.age_years.tolist() == [pytest.approx(3652 / 365.25)]


def test_phenotype_csv_round_trip(tmp_path):
    rows = [make_row(seq=f"q{i}", vol=100.0 + i) for i in range(3)]
    rows.append(make_row(session="ses-2", is_mprage=False, sex=Sex.F))
    table = make_table(*rows)
    path = tmp_path / "ph.csv"
    write_phenotype_csv(path, table)
    back = load_phenotype_csv(path)
    assert table_rows(back) == table_rows(table)


def test_sessions_csv_round_trip(tmp_path):
    sessions, _ = build_sessions(
        make_table(*(make_row(seq=f"q{i}", vol=100.0 + i) for i in range(3))),
        AggregationMethod.MEDIAN_ALL_SEQUENCES,
    )
    path = tmp_path / "ses.csv"
    write_sessions_csv(path, sessions)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [
        (r["session_id"], r["scanner_id"], int(r["age_days"]), r["sex"], r["method"],
         [float(r[region.value]) for region in Region])
        for r in rows
    ] == [
        (sid, scanner, age, sex, "median", volumes)
        for sid, scanner, age, sex, volumes in table_rows(sessions)
    ]


def test_sessions_csv_quotes_ids_as_csv_writer_does(tmp_path):
    ids = ["plain", "a,b", 'say "hi"', "two\r\nlines", "lf\nonly", " padded ", "é#1"]
    sessions, _ = build_sessions(
        make_table(*(make_row(session=sid, scanner=sid[::-1], vol=1.0 / (i + 3))
                     for i, sid in enumerate(ids))),
        AggregationMethod.MPRAGE_ONLY,
    )
    path = tmp_path / "ses.csv"
    write_sessions_csv(path, sessions)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["session_id", "scanner_id", "age_days", "sex", "method",
                         *(r.value for r in Region)])
        for sid, scanner, age, sex, volumes in table_rows(sessions):
            writer.writerow([sid, scanner, age, sex, "mprage", *(f"{v:.6f}" for v in volumes)])
    assert path.read_bytes() == expected.read_bytes()
    assert b'"a,b"' in path.read_bytes()


_FLOAT = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2e-308, 1e300, -1e300, 0.5e-6]
)
_TEXT = st.text(st.sampled_from('ab,"\r\n é#'), max_size=6) | st.integers(-(2**63), 2**63)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n_rows=st.integers(0, 5),
    n_texts=st.integers(0, 3),
    digits=st.lists(st.sampled_from([4, 6]), min_size=1, max_size=4),
)
def test_write_number_csv_matches_csv_writer_with_f_strings(tmp_path_factory, data, n_rows, n_texts, digits):
    # the former writers: csv.writer, with one f-string per number
    texts = [data.draw(st.lists(_TEXT, min_size=n_rows, max_size=n_rows)) for _ in range(n_texts)]
    numbers = np.array(
        [[data.draw(_FLOAT) for _ in digits] for _ in range(n_rows)], dtype=float
    ).reshape(n_rows, len(digits))
    header = [f"c{i}" for i in range(len(texts) + len(digits))]
    path = tmp_path_factory.mktemp("csv") / "numbers.csv"
    bad = ~np.isfinite(numbers)
    if bad.any():
        # no number that is not finite is written: the first one is named, and no file opened
        row, column = divmod(int(np.argmax(bad)), len(digits))
        with pytest.raises(NumericalError) as e:
            write_number_csv(path, header, texts, numbers, [f"%.{d}f" for d in digits])
        assert str(e.value) == (
            f"{path}: c{n_texts + column} of row {row + 1} is {numbers[row, column]}, not a finite number"
        )
        assert not path.exists()
        return
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    for i, row in enumerate(numbers.tolist()):
        writer.writerow([t[i] for t in texts] + [f"{v:.{d}f}" for v, d in zip(row, digits)])
    write_number_csv(path, header, texts, numbers, [f"%.{d}f" for d in digits])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(
    header=st.lists(_TEXT, min_size=1, max_size=4),
    rows=st.lists(st.lists(_TEXT, max_size=4), max_size=5),
    lineterminator=st.sampled_from(["\r\n", "\n"]),
)
def test_write_rows_matches_csv_writer(tmp_path_factory, header, rows, lineterminator):
    # fields with commas, quotes, CR, LF or nothing at all are quoted as csv.writer quotes them
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator=lineterminator)
    writer.writerow(header)
    writer.writerows(rows)
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    # "\r\n" is the default
    write_rows(path, header, iter(rows), *([lineterminator] if lineterminator == "\n" else []))
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


def small_truth():
    return GrowthModel(
        region=Region.CORTICAL_GM,
        fp_mu=FpSpec(1, (0.5,)),
        mu_coef=(12.2, 0.12, -0.05),
        fp_sigma=None,
        sigma_coef=(-2.12,),
        nu=1.5,
        scanner_intercepts={"scan-00": 0.02, "scan-01": -0.02},
    )


def test_synth_cohort_deterministic():
    a = table_rows(synth_cohort(seed=5, n_sessions=40, truth=small_truth()))
    b = table_rows(synth_cohort(seed=5, n_sessions=40, truth=small_truth()))
    assert a == b
    c = table_rows(synth_cohort(seed=6, n_sessions=40, truth=small_truth()))
    assert a != c


def test_synth_cohort_planted_failure_rate(monkeypatch):
    monkeypatch.setattr(synthcorpus, "QC_FAIL_RATE", 0.05)
    table = synth_cohort(seed=11, n_sessions=600, truth=small_truth())
    n = len(table)
    fails = int((table.qc < QC_THRESHOLD).any(axis=1).sum())
    rate = fails / n
    # binomial 4-sigma band around 0.05
    sigma = math.sqrt(0.05 * 0.95 / n)
    assert abs(rate - 0.05) < 4 * sigma


def test_synth_cohort_median_tracks_truth(monkeypatch):
    monkeypatch.setattr(synthcorpus, "AGE_RANGE_DAYS", (3600, 3700))
    monkeypatch.setattr(synthcorpus, "QC_FAIL_RATE", 0.0)
    truth = small_truth()
    table = synth_cohort(seed=13, n_sessions=1500, truth=truth)
    sessions, _ = build_sessions(table, AggregationMethod.MEDIAN_ALL_SEQUENCES)
    from normcharts.growthchart import gg_quantile

    observed = statistics.median(sessions.volume(Region.CORTICAL_GM).tolist())
    expected = statistics.median(
        gg_quantile(0.5, params_at(truth, sessions.age_years, sessions.female,
                                   sessions.scanner_id)).tolist()
    )
    assert observed == pytest.approx(expected, rel=0.02)


# --- build_sessions against a plain per-session reference ---


def _reference_sessions(rows, method):
    groups = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row)
    sessions, dropped_qc, dropped_no_mprage = [], 0, 0
    for sid in sorted(groups):
        surviving = [r for r in groups[sid] if all(q >= 0.65 for q in r[7])]
        if not surviving:
            dropped_qc += 1
            continue
        pool = surviving
        if method is AggregationMethod.MPRAGE_ONLY:
            pool = [r for r in surviving if r[5]]
        if not pool:
            dropped_no_mprage += 1
            continue
        _, _, scanner, age, sex, _, _, _ = surviving[0]
        volumes = [statistics.median(r[6][k] for r in pool) for k in range(len(Region))]
        sessions.append((sid, scanner, age, sex, volumes))
    return sessions, AttritionReport(len(groups), len(sessions), dropped_qc, dropped_no_mprage)


_VOLUME = st.sampled_from([1.0, 2.0, 2.5, 3.0, 7.25]) | st.floats(1e-6, 1e6)
_QC_FAIL = st.sampled_from([0.0, 0.3, 0.649, 0.6499999])


@st.composite
def _row(draw):
    qc = list(draw(st.tuples(*[st.sampled_from([0.65, 0.650001, 0.8, 1.0])] * len(QcCategory))))
    fail = draw(st.none() | st.tuples(st.integers(0, len(QcCategory) - 1), _QC_FAIL))
    if fail is not None:
        qc[fail[0]] = fail[1]
    return (
        draw(st.sampled_from(["a", "b", "c", "ses-10", "ses-9", "é"])),
        draw(st.sampled_from(["scan-0", "scan-1"])),
        draw(st.integers(1, 40000)),
        draw(st.sampled_from(["M", "F"])),
        draw(st.booleans()),
        draw(st.tuples(*[_VOLUME] * len(Region))),
        tuple(qc),
    )


def _numbered(rows):
    return [(sid, f"q{i}", scan, age, sex, mprage, vols, qc)
            for i, (sid, scan, age, sex, mprage, vols, qc) in enumerate(rows)]


_PASS, _AT = (0.9,) * len(QcCategory), (0.65,) * len(QcCategory)
_FAIL = (0.6499999,) + (0.9,) * (len(QcCategory) - 1)


# Interleaved ids; QC exactly at 0.65; tied and even-count volumes; a session
# failing QC on every row; sessions without an MPRAGE row; a session whose
# first QC-passing row is not MPRAGE.
_EXAMPLE_ROWS = [
    ("b", "scan-1", 40, "F", False, (2.0,) * 6, _AT),
    ("a", "scan-0", 30, "M", True, (1.0,) * 6, _PASS),
    ("b", "scan-0", 41, "M", True, (3.0,) * 6, _PASS),
    ("c", "scan-0", 50, "M", True, (5.0,) * 6, _FAIL),
    ("a", "scan-1", 31, "F", True, (1.0,) * 6, _AT),
    ("b", "scan-1", 42, "F", True, (4.0,) * 6, _FAIL),
    ("d", "scan-1", 60, "F", False, (9.0,) * 6, _PASS),
    ("b", "scan-1", 43, "F", True, (3.0,) * 6, _PASS),
    ("c", "scan-1", 51, "F", False, (6.0,) * 6, _FAIL),
    ("a", "scan-0", 32, "M", False, (2.0,) * 6, _PASS),
    ("e", "scan-0", 70, "M", False, (1.5,) * 6, _PASS),
    ("e", "scan-0", 71, "M", False, (2.5,) * 6, _PASS),
]


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_row(), max_size=30), method=st.sampled_from(AggregationMethod))
@example(rows=_EXAMPLE_ROWS, method=AggregationMethod.MPRAGE_ONLY)
@example(rows=_EXAMPLE_ROWS, method=AggregationMethod.MEDIAN_ALL_SEQUENCES)
def test_build_sessions_matches_per_session_reference(rows, method):
    rows = _numbered(rows)
    sessions, report = build_sessions(make_table(*rows), method)
    assert (table_rows(sessions), report) == _reference_sessions(rows, method)
    assert sessions.method is method


def test_build_sessions_reaches_qc_filter_through_the_module(monkeypatch):
    # the benchmark's traced runs see phenotype.qc_filter only through the
    # module's globals, which their tracer rebinds
    calls = []

    def counting(table):
        calls.append(len(table))
        return qc_filter(table)

    monkeypatch.setattr(phenotype, "qc_filter", counting)
    for method in AggregationMethod:
        build_sessions(make_table(make_row(), make_row(seq="q1")), method)
    assert calls == [2, 2]


# --- the size-block medians against the per-column lexsort they replaced ---


def _lexsort_group_medians(values, group, n_groups):
    """The former phenotype._group_medians: one lexsort per column, over
    rows in any order."""
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
        with np.errstate(over="ignore"):  # a middle pair summing past the largest float
            medians[even, k] = (ordered[lo[even]] + ordered[hi]) / 2
    return medians, present


def _lexsort_build_sessions(table, method):
    """The former build_sessions, on _lexsort_group_medians."""
    n_input = len(np.unique(table.session_id))
    kept = qc_filter(table)
    ids, first, group = np.unique(kept.session_id, return_index=True, return_inverse=True)
    pool = kept.is_mprage if method is AggregationMethod.MPRAGE_ONLY else slice(None)
    medians, present = _lexsort_group_medians(kept.volumes[pool], group[pool], len(ids))
    first = first[present]
    sessions = list(zip(ids[present].tolist(), kept.scanner_id[first].tolist(),
                        kept.age_days[first].tolist(), kept.sex[first].tolist()))
    report = AttritionReport(n_input, len(sessions), n_input - len(ids), len(ids) - len(sessions))
    return sessions, medians, report


def _assert_same_medians(values, group, n_groups):
    order = np.argsort(group, kind="stable")
    with np.errstate(invalid="ignore"):  # (-inf + inf) / 2 as the middle pair
        expected, expected_present = _lexsort_group_medians(values, group, n_groups)
        got, present = phenotype._group_medians(values[order], group[order], n_groups)
    assert present.tolist() == expected_present.tolist()
    assert got.tobytes() == expected.tobytes()  # bit for bit: NaN payloads and -0.0 too


# One NaN: the sum of two NaNs that differ in sign or payload is either one,
# as numpy's add loop for the array's length and layout picks, in the
# lexsort form as well.
_TIES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 2.5])


@settings(max_examples=300, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 6), min_size=1, max_size=12),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_medians_match_lexsort(sizes, data, seed):
    # groups of 0 (an empty group id) to 6 rows, rows in shuffled order
    group = np.repeat(np.arange(len(sizes)), sizes)
    np.random.default_rng(seed).shuffle(group)
    values = np.array(
        [[data.draw(_TIES | st.floats(allow_nan=False)) for _ in range(3)] for _ in group], dtype=float
    ).reshape(len(group), 3)
    _assert_same_medians(values, group, len(sizes))


def test_group_medians_of_one_large_group_among_singletons_stay_linear_in_memory():
    rng = np.random.default_rng(3)
    n_single, n_large = 20_000, 10_000
    group = np.concatenate([np.arange(n_single), np.full(n_large, n_single // 2)])
    group[group > n_single // 2] += 1  # the large group takes its own id
    rng.shuffle(group)
    # mostly 0.0 and -0.0, so the large group's middle pair is a tie that only
    # a stable sort resolves as lexsort does
    values = rng.choice(np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -3.0]),
                        size=(len(group), len(Region)), p=[0.1, 0.1, 0.1, 0.3, 0.3, 0.05, 0.05])
    _assert_same_medians(values, group, n_single + 1)
    order = np.argsort(group, kind="stable")
    values, group = values[order], group[order]
    tracemalloc.start()
    try:
        phenotype._group_medians(values, group, n_single + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # padding every group to the largest would take 20,001 x 10,000 x 6 floats (9.6 GB)
    assert peak < 10 * values.nbytes


@pytest.mark.parametrize("method", list(AggregationMethod))
def test_build_sessions_matches_lexsort_build(monkeypatch, method):
    monkeypatch.setattr(synthcorpus, "QC_FAIL_RATE", 0.2)
    cohort = synth_cohort(seed=11, n_sessions=300, truth=small_truth())
    rng = np.random.default_rng(11)
    # rows in shuffled order, each session's rows repeated to make ties, and
    # each row with its own scanner and age, so a session's first row shows
    table = cohort.take(rng.permutation(np.repeat(np.arange(len(cohort)), rng.integers(1, 4, len(cohort)))))
    table = replace(table, scanner_id=rng.choice(["s0", "s1", "s2"], len(table)).astype(object),
                    age_days=rng.integers(1, 9999, len(table)))
    sessions, report = build_sessions(table, method)
    ref_sessions, ref_medians, ref_report = _lexsort_build_sessions(table, method)
    assert [row[:4] for row in table_rows(sessions)] == ref_sessions
    assert sessions.volumes.tobytes() == ref_medians.tobytes()
    assert report == ref_report
    assert report.dropped_qc > 0 and (report.dropped_no_mprage > 0) == (method is AggregationMethod.MPRAGE_ONLY)


# --- the C pass of load_phenotype_csv against the row loop ---

# Field texts around the edges of int and float, per column kind: some both
# parsers take, some only Python's (underscores, full-width and Arabic-Indic
# digits), some neither.
_EDGE_FIELDS = {
    "age_days": ["1.5", "1e3", "12.0", "1_000", "１２", "١٢", " 12 ", "+7", "0", "-5", "",
                 "abc", "99999999999999999999"],
    "sex": ["X", " M", "m", ""],
    "is_mprage": ["ture", "on", "2", "", "yes please"],
    "number": ["1_000", "１.５", " 1.5 ", "nan", "-nan", "NaN", "inf", "-inf", "Infinity",
               "1e999", "-1e999", "0x10", ".5", "1.", "", "abc", "-5", "0"],
}
_MPRAGE_SPELLINGS = [
    *BOOLEANS, "TRUE", "True", "Yes", "YES", "No", "FALSE", " true ", "\tno", " 1 ",
]
_ID = st.text(st.sampled_from(list('ab9-_ ,"#\r\n\t\x00é\xa0\u2003\U0001f600')), max_size=6)
_LINE_END = st.sampled_from(["\n", "\r\n", "\r"])
# a header and the numbers of a clean row, in PHENOTYPE_COLUMNS order
_HEADER = ",".join(PHENOTYPE_COLUMNS)
_NUMBERS = ",".join(["1.5"] * len(Region) + ["0.9"] * len(QcCategory))


def _csv_field(text: str, quoting: str) -> str:
    if quoting == "always" or (quoting == "minimal" and any(c in text for c in ',"\r\n')):
        return '"' + text.replace('"', '""') + '"'
    return text


# The values of a clean row that both parsers take, by column.
_VOLUME_TEXT = st.floats(1e-3, 1e7).map(repr) | st.sampled_from(["2.5", "1e3"])
_QC_TEXT = st.floats(0.0, 1.0).map("{:.4f}".format)
_FIELD = {
    "age_days": st.integers(1, 40000).map(str),
    "sex": st.sampled_from(["M", "F"]),
    "is_mprage": st.sampled_from(_MPRAGE_SPELLINGS),
    **dict.fromkeys((r.value for r in Region), _VOLUME_TEXT),
    **dict.fromkeys((q.value for q in QcCategory), _QC_TEXT),
}
# Ways to damage one row of a clean file.
_EDIT = st.sampled_from(list(_EDGE_FIELDS)).flatmap(
    lambda kind: st.tuples(
        st.sampled_from(PHENOTYPE_COLUMNS[6:]) if kind == "number" else st.just(kind),
        st.sampled_from(_EDGE_FIELDS[kind]),
    )
) | st.sampled_from(["short", "long", "trailing comma", "whitespace line", "unquoted"])


@st.composite
def _phenotype_csv_text(draw):
    """The text of a phenotype CSV: a shuffled header, maybe with an unknown
    column, up to six rows of values both parsers take, blank lines and mixed
    line ends. Up to two edits each damage one row: an edge field, a field too
    few or too many, a whitespace-only line, or special characters unquoted."""
    header = list(draw(st.permutations(PHENOTYPE_COLUMNS + ("note, free text",))))
    if draw(st.booleans()):
        header.remove("note, free text")
    rows = [[draw(_FIELD.get(c, _ID)) for c in header] for _ in range(draw(st.integers(0, 6)))]
    quoting = [draw(st.sampled_from(["minimal", "always"])) for _ in rows]
    blank = [draw(st.sampled_from([None, ""])) for _ in rows]
    for i, edit in draw(st.lists(st.tuples(st.integers(0, 5), _EDIT), max_size=2)):
        if i >= len(rows):
            continue
        if isinstance(edit, tuple):
            rows[i][header.index(edit[0])] = edit[1]
        elif edit == "whitespace line":
            blank[i] = draw(st.sampled_from([" ", "\t"]))
        elif edit == "unquoted":
            quoting[i] = "never"
        else:
            rows[i] = {"short": rows[i][:-1], "long": rows[i] + ["x"],
                       "trailing comma": rows[i] + [""]}[edit]
    lines = [",".join(_csv_field(c, "minimal") for c in header)]
    for row, quote, before in zip(rows, quoting, blank):
        if before is not None:
            lines.append(before)
        lines.append(",".join(_csv_field(text, quote) for text in row))
    ends = [draw(_LINE_END) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _same_table(a: PhenotypeTable, b: PhenotypeTable) -> bool:
    return (
        all(getattr(a, c).tolist() == getattr(b, c).tolist()
            for c in ("session_id", "sequence_id", "scanner_id", "age_days", "sex", "is_mprage"))
        and all(np.array_equal(getattr(a, c), getattr(b, c), equal_nan=True)
                and np.array_equal(np.signbit(getattr(a, c)), np.signbit(getattr(b, c)))
                for c in ("volumes", "qc"))
    )


def _outcome(load, path):
    """(table, None) or (None, the DataError's message)."""
    try:
        return load(path), None
    except DataError as e:
        return None, str(e)


@settings(max_examples=300, deadline=None)
@given(text=_phenotype_csv_text())
@example(text=_HEADER + "\r\n")
@example(text=_HEADER + '\n"a,b\r\nc""d",s#1,sc,3650,F,yes,' + _NUMBERS + "\n")
@example(text=_HEADER + "\ns,q,sc,1.5,F,yes," + _NUMBERS + "\n")
@example(text=_HEADER + "\ns,q,sc,1e3,F,yes," + _NUMBERS + "\n")
@example(text=_HEADER + "\ns,q,sc,1_000,F,yes," + _NUMBERS.replace("1.5", "１.５") + "\n")
@example(text=_HEADER + "\ns,q,sc,3650,F,yes," + _NUMBERS + ",\n")
def test_c_parser_agrees_with_row_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "ph.csv"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    rows, message = _outcome(phenotype._load_rows, path)
    try:
        columns = phenotype._load_columns(path)
    except (ValueError, Warning, DataError):
        columns = None
    # the C pass takes a file only if the row loop reads the same table from it
    if columns is not None:
        assert rows is not None and _same_table(columns, rows)
    # and the loader as a whole is the row loop, table or message
    table, error = _outcome(load_phenotype_csv, path)
    assert error == message
    assert table is None or _same_table(table, rows)


def test_c_pass_reads_a_well_formed_file(tmp_path, monkeypatch):
    rows = [make_row(session='ses,"1"\r\n', seq=f"q{i}", vol=100.0 + i) for i in range(3)]
    rows.append(make_row(session="ses-#2", is_mprage=False, sex=Sex.F))
    table = make_table(*rows)
    path = tmp_path / "ph.csv"
    write_phenotype_csv(path, table)
    assert b'"ses,""1""\r\n"' in path.read_bytes() and path.read_bytes().count(b"\r\n") == 8

    def row_loop(path):
        raise AssertionError("the row loop ran")

    monkeypatch.setattr(phenotype, "_load_rows", row_loop)
    assert table_rows(load_phenotype_csv(path)) == table_rows(table)
