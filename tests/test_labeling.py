import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import normcharts
from normcharts import report_text
from normcharts.cli import main
from normcharts.errors import DataError
from normcharts.labeling import (
    COARSE_KEYWORDS,
    AnnotationSet,
    Label,
    aggregate_grades,
    coarse_flag,
    label_reports,
    load_annotations_jsonl,
)
from normcharts.report_text import Report, SectionKind, Sex, parse_sections


def make_report(findings, procedure="MRI brain with contrast", rid="r1"):
    return Report(
        id=rid,
        raw_text=f"FINDINGS: {findings}\nIMPRESSION: see findings.",
        exam_year=2016,
        site="s",
        age_days=3000,
        sex=Sex.M,
        procedure_description=procedure,
    )


def test_keyword_set_is_exactly_six():
    assert set(COARSE_KEYWORDS) == {
        "chemotherapy", "resect", "craniotomy", "craniectomy",
        "surgical cavity", "post surgery",
    }


def test_coarse_flag_hits_on_keyword_in_findings():
    assert coarse_flag(make_report("Status post craniotomy with resection cavity."))


def test_coarse_flag_case_insensitive_substring():
    # "resect" matches inside "Resection"
    assert coarse_flag(make_report("RESECTION margins are clean."))


def test_coarse_flag_requires_brain_procedure():
    assert not coarse_flag(
        make_report("chemotherapy noted", procedure="MRI lumbar spine")
    )


def test_coarse_flag_keyword_outside_findings_does_not_count():
    r = Report(
        id="r2",
        raw_text="CLINICAL INDICATION: post surgery follow up.\nFINDINGS: clean.",
        exam_year=2016, site="s", age_days=10, sex=Sex.F,
        procedure_description="MRI brain",
    )
    assert not coarse_flag(r)


def test_grade_mean_above_threshold_is_normal():
    assert aggregate_grades([2, 2, 1]) is Label.NORMAL  # mean 1.67 > 1.5


def test_grade_mean_below_threshold_is_abnormal():
    assert aggregate_grades([0, 0, 1]) is Label.ABNORMAL  # mean 0.33 < 0.5


def test_grade_mean_between_thresholds_is_uncertain():
    assert aggregate_grades([0, 2]) is Label.UNCERTAIN  # mean 1.0
    assert aggregate_grades([1, 2]) is Label.UNCERTAIN  # mean 1.5, not > 1.5
    assert aggregate_grades([0, 1]) is Label.UNCERTAIN  # mean 0.5, not < 0.5


def test_grade_empty_raises():
    with pytest.raises(DataError, match="^no grades given$"):
        aggregate_grades([])


def test_grade_out_of_range_raises():
    with pytest.raises(DataError, match=r"^grade 3 outside \{0,1,2\}$"):
        aggregate_grades([3])


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8))
def test_grade_aggregation_matches_mean_rule(grades):
    mean = sum(grades) / len(grades)
    expected = (
        Label.NORMAL if mean > 1.5 else Label.ABNORMAL if mean < 0.5 else Label.UNCERTAIN
    )
    assert aggregate_grades(grades) is expected


def test_label_reports_coarse_then_override():
    flagged = make_report("status post craniectomy", rid="a")
    plain = make_report("normal study", rid="b")
    anns = [AnnotationSet("a", (2, 2)), AnnotationSet("c", (0, 0))]
    labels = label_reports([flagged, plain], anns)
    assert labels["a"] is Label.NORMAL  # human grades win over the keyword hit
    assert "c" not in labels  # an annotation of a report not given is skipped
    assert "b" not in labels  # no keyword, no annotation


def test_load_annotations_jsonl(tmp_path):
    p = tmp_path / "ann.jsonl"
    # blank and whitespace-only lines are skipped
    for text in ('{"report_id": "x", "grades": [2, 1]}\n',
                 '\n \t\n{"report_id": "x", "grades": [2, 1]}\n\n  \n'):
        p.write_text(text)
        anns = load_annotations_jsonl(p)
        assert len(anns) == 1
        assert anns[0].report_id == "x"
        assert anns[0].grades == (2, 1)
        assert anns[0].label() is Label.UNCERTAIN


def _parsed_flag(report):
    """coarse_flag as defined: parse every section, search Findings."""
    findings = parse_sections(report.raw_text).get(SectionKind.FINDINGS, "").lower()
    return "brain" in report.procedure_description.lower() and any(
        kw in findings for kw in COARSE_KEYWORDS
    )


# Each letter in either case or as a non-ASCII letter the header regex folds
# to it; each space as a run of spaces, tabs or newlines, or none.
_SPELLINGS = {
    "i": ["i", "I", "İ", "ı"],
    "s": ["s", "S", "ſ"],
    " ": [" ", "  ", "\t", " \t", "\n", " \n ", ""],
}


def _spelled(word):
    return st.tuples(
        *(st.sampled_from(_SPELLINGS.get(c.lower(), [c.lower(), c.upper()])) for c in word)
    ).map("".join)


_HEADERS = ["FINDINGS", "IMPRESSION", "CLINICAL INDICATION", "TECHNIQUE", "COMPARISON"]
_WORDS = [*COARSE_KEYWORDS, "post", "surgery", "surgical", "cavity", "crani", "otomy", "ectomy",
          "chemo", "therapy", "res", "ect", "brain", "normal", "of"]
_PIECE = st.one_of(
    st.builds(lambda h, gap: h + gap + ":", st.sampled_from(_HEADERS).flatmap(_spelled),
              st.sampled_from(["", " ", "\t", "\n"])),
    st.builds(lambda h: "END OF " + h + ":", st.sampled_from(_HEADERS).flatmap(_spelled)),
    st.sampled_from(_WORDS).flatmap(_spelled),
    st.sampled_from([" ", "  ", "\t", " \t\t ", "\n", "\n\n", " \n\t", ".", ",", "İ", "K", "ſ", "Σ"]),
)
_TEXT = st.lists(_PIECE, min_size=1, max_size=12).map("".join).filter(str.strip)


@given(_TEXT, st.sampled_from(["MRI brain", "MRI BRAIN w/o", "CT head", "Brain"]))
@example("FINDINGS: post \t surgery", "MRI brain")
@example("FİNDINGS: RESECTION cavity.", "MRI brain")
@example("FINDINGS: post\nsurgery", "MRI brain")
@example("FINDINGS: post\nFINDINGS: surgery", "MRI brain")
@example("FINDINGS: reſect", "MRI brain")
@example("IMPRESSION: resect\nEND OF FINDINGS: craniotomy", "MRI brain")
def test_coarse_flag_matches_the_parsed_definition(text, procedure):
    report = Report(id="r", raw_text=text, exam_year=2016, site="s", age_days=10, sex=Sex.F,
                    procedure_description=procedure)
    assert coarse_flag(report) == _parsed_flag(report)


def _flag_all_then_overwrite(reports, annotations):
    """label_reports by the parse: flag every report, then let the grades of
    the given reports overwrite."""
    by_id = {}
    for report in reports:
        if _parsed_flag(report):
            by_id[report.id] = Label.ABNORMAL
    ids = {r.id for r in reports}
    for ann in annotations:
        if ann.report_id in ids:
            by_id[ann.report_id] = ann.label()
    return by_id


_IDS = ["a", "b", "c", "d", "e"]
_FINDINGS = ["post surgery changes", "normal study", "Resected mass", "no acute findings"]


@given(
    st.lists(st.tuples(st.sampled_from(_IDS), st.sampled_from(_FINDINGS),
                       st.sampled_from(["MRI brain", "MRI spine"])),
             unique_by=lambda r: r[0], max_size=5),
    # ids may be unknown to the reports (skipped) or repeated; the last set of a repeat wins
    st.lists(st.tuples(st.sampled_from(_IDS + ["x", "y"]),
                       st.lists(st.integers(0, 2), min_size=1, max_size=3)), max_size=6),
)
def test_label_reports_matches_flag_all_then_overwrite(reports, annotations):
    reports = [make_report(findings, procedure, rid) for rid, findings, procedure in reports]
    annotations = [AnnotationSet(rid, tuple(grades)) for rid, grades in annotations]
    assert label_reports(reports, annotations) == _flag_all_then_overwrite(reports, annotations)


def test_label_parses_no_sections_of_annotated_or_keyword_free_reports(
    tmp_path, monkeypatch, capsys
):
    rows = [{"id": f"r{i}", "text": f"FINDINGS: status post craniotomy {i}.\nIMPRESSION: stable.",
             "procedure_description": "MRI brain"} for i in range(4)]
    rows.append({"id": "plain", "text": "FINDINGS: normal.", "procedure_description": "MRI brain"})
    reports, annotations = tmp_path / "reports.jsonl", tmp_path / "annotations.jsonl"
    reports.write_text("".join(json.dumps(row) + "\n" for row in rows))
    annotations.write_text("".join(
        json.dumps({"report_id": f"r{i}", "grades": [2, 2] if i % 2 else [0, 0]}) + "\n"
        for i in range(4)
    ))

    def refuse(raw_text):
        raise AssertionError("sections parsed")

    monkeypatch.setattr(report_text, "parse_sections", refuse)
    out = tmp_path / "labels.csv"
    assert main(["label", "--reports", str(reports), "--annotations", str(annotations),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"labeled 4 of 5 reports -> {out}\n"
    assert out.read_text().splitlines() == [
        "report_id,label", "r0,Abnormal", "r1,Normal", "r2,Abnormal", "r3,Normal",
    ]


def test_label_skips_annotations_of_reports_it_was_not_given(tmp_path):
    """One annotations file may cover several reports files: ids outside
    --reports are neither written nor counted, and stderr says how many."""
    reports, annotations = tmp_path / "reports.jsonl", tmp_path / "annotations.jsonl"
    reports.write_text(json.dumps({"id": "r1", "text": "FINDINGS: normal."}) + "\n")
    annotations.write_text("".join(
        json.dumps({"report_id": rid, "grades": [2]}) + "\n" for rid in ("zz1", "r1", "zz2", "zz1")
    ))
    out = tmp_path / "labels.csv"
    src = str(Path(normcharts.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-m", "normcharts.cli", "label", "--reports", str(reports),
         "--annotations", str(annotations), "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == f"labeled 1 of 1 reports -> {out}\n"
    assert result.stderr == f"2 annotated report ids are not in {reports}; skipped\n"
    assert out.read_text().splitlines() == ["report_id,label", "r1,Normal"]
