import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from normcharts import report_text
from normcharts.classifier import FeatureConfig, LinearModel, save_model
from normcharts.cli import data_file, main
from normcharts.errors import EmptyInput, SchemaError
from normcharts.report_text import (
    InputMode,
    Report,
    SectionKind,
    Sex,
    compose_input,
    load_reports_jsonl,
    normalize_whitespace,
    parse_sections,
)

SAMPLE = (
    "CLINICAL INDICATION: Headache.\n"
    "TECHNIQUE: MRI brain without contrast.\n"
    "FINDINGS: The ventricles are normal in size.\n"
    "IMPRESSION: Unremarkable examination."
)


def make_report(text=SAMPLE, **kw):
    defaults = dict(
        id="r1", raw_text=text, exam_year=2017, site="site-A",
        age_days=4000, sex=Sex.F, procedure_description="MRI brain",
    )
    defaults.update(kw)
    return Report(**defaults)


def test_parse_sections_basic():
    s = parse_sections(SAMPLE)
    assert s[SectionKind.IMPRESSION] == "Unremarkable examination."
    assert s[SectionKind.FINDINGS] == "The ventricles are normal in size."
    assert s[SectionKind.CLINICAL_INDICATION] == "Headache."
    assert s[SectionKind.TECHNIQUE] == "MRI brain without contrast."


def test_parse_sections_preamble():
    s = parse_sections("Normal brain MRI.\nFINDINGS: nothing acute.")
    assert s[SectionKind.PREAMBLE] == "Normal brain MRI."
    assert s[SectionKind.FINDINGS] == "nothing acute."


def test_parse_sections_no_headers_is_all_preamble():
    s = parse_sections("just one line of text")
    assert s == {SectionKind.PREAMBLE: "just one line of text"}


def test_parse_sections_repeated_header_joined():
    s = parse_sections("FINDINGS: first.\nFINDINGS: second.")
    assert s[SectionKind.FINDINGS] == "first.\nsecond."


def test_parse_sections_case_insensitive():
    s = parse_sections("Impression: stable.")
    assert s[SectionKind.IMPRESSION] == "stable."


def test_end_of_impression_not_a_header():
    # "END OF IMPRESSION:" must stay inside the body, not start a section
    s = parse_sections("IMPRESSION: all clear. END OF IMPRESSION: signed.")
    assert len([k for k in s if k is SectionKind.IMPRESSION]) == 1
    assert "signed" in s[SectionKind.IMPRESSION]


def test_parse_sections_empty_raises():
    with pytest.raises(EmptyInput):
        parse_sections("")


@given(st.text(min_size=1, max_size=300))
def test_parse_sections_total_and_lossless_word_count(text):
    # every report parses; no section content is invented
    try:
        sections = parse_sections(text)
    except EmptyInput:
        assert text == ""
        return
    joined = " ".join(sections.values())
    for word in joined.split():
        assert word in text or word in normalize_whitespace(text)


def test_normalize_whitespace_preserves_newlines():
    assert normalize_whitespace("a  b\tc\nd") == "a b c\nd"


@given(st.text(max_size=200))
def test_normalize_whitespace_idempotent(text):
    once = normalize_whitespace(text)
    assert normalize_whitespace(once) == once


def test_compose_input_full():
    r = make_report()
    assert compose_input(r, InputMode.FULL_REPORT) == SAMPLE


def test_compose_input_impression():
    r = make_report()
    assert compose_input(r, InputMode.IMPRESSION_ONLY) == "Unremarkable examination."


def test_compose_input_preamble_fallback():
    r = make_report(text="Short narrative with no headers at all.")
    assert compose_input(r, InputMode.IMPRESSION_ONLY) == "Short narrative with no headers at all."


def test_compose_input_no_impression_no_preamble_raises():
    r = make_report(text="FINDINGS: only findings here.")
    with pytest.raises(EmptyInput):
        compose_input(r, InputMode.IMPRESSION_ONLY)


def test_report_rejects_negative_age():
    with pytest.raises(SchemaError):
        make_report(age_days=-1)


def test_report_rejects_empty_text():
    with pytest.raises(EmptyInput):
        make_report(text="")


def test_load_reports_jsonl(tmp_path):
    path = tmp_path / "reports.jsonl"
    rows = [
        {"id": "a", "text": SAMPLE, "exam_year": 2015, "site": "s", "age_days": 10,
         "sex": "M", "procedure_description": "MRI brain", "extra_field": "ignored"},
        {"id": "b", "text": "Plain narrative."},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    reports = load_reports_jsonl(path)
    assert [r.id for r in reports] == ["a", "b"]
    assert reports[1].sex is Sex.UNKNOWN


def test_load_reports_jsonl_bad_line_number_in_error(tmp_path):
    path = tmp_path / "reports.jsonl"
    path.write_text('{"id": "a", "text": "ok"}\n{"text": "missing id"}\n')
    with pytest.raises(SchemaError, match=":2"):
        load_reports_jsonl(path)


def test_sections_are_parsed_on_first_use(tmp_path, monkeypatch, capsys):
    reports_path = data_file("edge_case_reports.jsonl")
    gold = data_file("edge_case_gold.csv")
    split = tmp_path / "split.csv"
    split.write_text("report_id,subset\n" + "".join(
        f"{line.split(',')[0]},Test\n" for line in gold.read_text().splitlines()[1:]
    ))
    model = tmp_path / "model.bin"
    save_model(LinearModel(weights=np.zeros(1 << 10), bias=0.0,
                           config=FeatureConfig(dimension=1 << 10), pos_weight=10.0), model)

    def refuse(raw_text):
        raise AssertionError("sections parsed")

    with monkeypatch.context() as m:
        m.setattr(report_text, "parse_sections", refuse)
        reports = load_reports_jsonl(reports_path)
        assert main(["eval", "--model", str(model), "--reports", str(reports_path),
                     "--labels", str(gold), "--split", str(split), "--input-mode", "full",
                     "--out", str(tmp_path / "eval.csv")]) == 0
    assert all(r.sections == parse_sections(r.raw_text) for r in reports)
    capsys.readouterr()
    assert main(["ingest", "--reports", str(reports_path)]) == 0
    # recorded when sections were still parsed as each report was read
    assert capsys.readouterr().out == (
        "reports: 41\n"
        "sections[ClinicalIndication]: 35\n"
        "sections[Comparison]: 35\n"
        "sections[Findings]: 31\n"
        "sections[Impression]: 4\n"
        "sections[Preamble]: 41\n"
        "sections[Technique]: 35\n"
    )
