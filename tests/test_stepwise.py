import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from normcharts import stepwise
from normcharts.cli import data_file, _load_labels_csv
from normcharts.errors import ClientError, IncompleteRecord, MissingGold
from normcharts.labeling import Label
from normcharts.report_text import Report, Sex, load_reports_jsonl
from normcharts.stepwise import (
    PROMPTS,
    FixtureAnswerSource,
    HttpAnswerSource,
    InquiryMode,
    QuestionId,
    Verdict,
    aggregate_direct,
    aggregate_stepwise,
    build_prompt,
    evaluate_inquiry,
    parse_answer,
    run_inquiry,
)


def make_report(rid="r1", text="IMPRESSION: normal study."):
    return Report(id=rid, raw_text=text, exam_year=2016, site="s", age_days=10,
                  sex=Sex.M, procedure_description="MRI brain")


def test_exactly_five_prompts_q2_inverse():
    assert set(PROMPTS) == set(QuestionId)
    # polarity comes from the decision rule: from the all-No (Normal) record,
    # a single Yes keeps Normal only on the inverse question
    all_no = {q: Verdict.NO for q in QuestionId}
    assert aggregate_stepwise(all_no) is Label.NORMAL
    inverse = [q for q in QuestionId
               if aggregate_stepwise({**all_no, q: Verdict.YES}) is Label.NORMAL]
    assert inverse == [QuestionId.Q2]


def test_prompt_texts_mention_their_subject():
    assert "brain abnormalities" in PROMPTS[QuestionId.Q1]
    assert "outside of the brain" in PROMPTS[QuestionId.Q2]
    assert "motion artifact or low quality" in PROMPTS[QuestionId.Q3]
    assert "immediate clinical follow up" in PROMPTS[QuestionId.Q4]
    assert "highly concerned" in PROMPTS[QuestionId.Q5]
    for text in PROMPTS.values():
        assert text.startswith("Does the provided radiology report")
        assert text.endswith("(Yes/No followed by reasoning)")


def test_parse_answer_yes_no_unparsed():
    assert parse_answer("No. Reasoning: The report explicitly states ...") is Verdict.NO
    assert parse_answer("Yes The report explicitly states ...") is Verdict.YES
    assert parse_answer("The findings are equivocal.") is Verdict.UNPARSED
    assert parse_answer("") is Verdict.UNPARSED
    assert parse_answer("  \n YES, clearly.") is Verdict.YES
    assert parse_answer("no") is Verdict.NO
    assert parse_answer("42 no") is Verdict.NO  # first alphabetic token


def test_aggregate_direct():
    assert aggregate_direct(Verdict.NO) is Label.NORMAL
    assert aggregate_direct(Verdict.YES) is Label.ABNORMAL
    assert aggregate_direct(Verdict.UNPARSED) is Label.ABNORMAL


def answers(q1, q2, q3, q4, q5):
    return dict(zip(QuestionId, (q1, q2, q3, q4, q5)))


def test_aggregate_stepwise_reference_rows():
    N, Y, U = Verdict.NO, Verdict.YES, Verdict.UNPARSED
    assert aggregate_stepwise(answers(N, N, N, N, N)) is Label.NORMAL
    assert aggregate_stepwise(answers(Y, N, N, N, N)) is Label.ABNORMAL
    assert aggregate_stepwise(answers(Y, Y, N, N, N)) is Label.NORMAL
    assert aggregate_stepwise(answers(N, Y, Y, N, N)) is Label.ABNORMAL
    assert aggregate_stepwise(answers(N, N, N, U, N)) is Label.ABNORMAL


def test_aggregate_stepwise_missing_raises():
    with pytest.raises(IncompleteRecord):
        aggregate_stepwise({QuestionId.Q1: Verdict.NO})


def brute_force(tup):
    """Independent truth-table oracle for the five-answer rule."""
    q1, q2, q3, q4, q5 = tup
    gate = q1 == "No" or q2 == "Yes"
    clear = q3 == "No" and q4 == "No" and q5 == "No"
    return "Normal" if (gate and clear) else "Abnormal"


def test_truth_table_all_243_tuples():
    verdicts = (Verdict.YES, Verdict.NO, Verdict.UNPARSED)
    for tup in itertools.product(verdicts, repeat=5):
        expected = brute_force(tuple(v.value for v in tup))
        assert aggregate_stepwise(answers(*tup)).value == expected


def test_exactly_three_parsed_tuples_are_normal():
    normal = 0
    for tup in itertools.product((Verdict.YES, Verdict.NO), repeat=5):
        if aggregate_stepwise(answers(*tup)) is Label.NORMAL:
            normal += 1
    assert normal == 3


@given(st.tuples(*[st.sampled_from(list(Verdict))] * 5))
def test_any_yes_among_q3_q5_forces_abnormal(tup):
    if Verdict.YES in tup[2:]:
        assert aggregate_stepwise(answers(*tup)) is Label.ABNORMAL


class DictSource:
    def __init__(self, mapping):
        self.mapping = mapping
        self.prompts = []

    def answer(self, report_id, question, prompt):
        self.prompts.append(prompt)
        return self.mapping.get(question, "")


def test_run_inquiry_stepwise_all_no_is_normal():
    src = DictSource({q: "No." for q in QuestionId})
    rec = run_inquiry(make_report(), InquiryMode.STEPWISE, src)
    assert rec.label is Label.NORMAL
    assert all(v is Verdict.NO for v in rec.answers.values())
    assert len(src.prompts) == 5


def test_run_inquiry_direct_only_q1():
    src = DictSource({QuestionId.Q1: "Yes."})
    rec = run_inquiry(make_report(), InquiryMode.DIRECT, src)
    assert rec.label is Label.ABNORMAL
    assert len(src.prompts) == 1
    assert rec.answers[QuestionId.Q3] is Verdict.UNPARSED


def test_prompt_is_question_then_report():
    r = make_report()
    prompt = build_prompt(QuestionId.Q1, r)
    assert prompt == PROMPTS[QuestionId.Q1] + "\n\n" + r.raw_text


class FailingSource:
    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def answer(self, report_id, question, prompt):
        self.calls += 1
        if self.calls <= self.failures:
            raise ClientError("boom", question_id=question.value)
        return "No."


def test_run_inquiry_retry_then_success():
    src = FailingSource(failures=2)
    rec = run_inquiry(make_report(), InquiryMode.DIRECT, src)
    assert rec.answers[QuestionId.Q1] is Verdict.NO


def test_run_inquiry_exhausted_retries_unparsed():
    src = FailingSource(failures=10)
    rec = run_inquiry(make_report(), InquiryMode.DIRECT, src)
    assert rec.answers[QuestionId.Q1] is Verdict.UNPARSED
    assert rec.label is Label.ABNORMAL
    assert src.calls == 3


def test_fixture_source_missing_cell_unparsed(tmp_path):
    p = tmp_path / "fix.tsv"
    p.write_text("report_id\tquestion_id\tresponse_text\nr1\tQ1\tNo.\n")
    src = FixtureAnswerSource(p)
    assert parse_answer(src.answer("r1", QuestionId.Q1, "")) is Verdict.NO
    assert parse_answer(src.answer("r1", QuestionId.Q2, "")) is Verdict.UNPARSED


def test_http_source_posts_prompt_and_model(monkeypatch):
    captured = {}

    class FakeResponse:
        def raise_for_status(self):
            pass

        def json(self):
            return {"text": "Yes."}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured.update(url=url, body=json, headers=headers)
        return FakeResponse()

    monkeypatch.setenv("NORMCHARTS_LLM_TOKEN", "sekret")
    monkeypatch.setattr("requests.post", fake_post)
    src = HttpAnswerSource("http://example.test/v1", "model-x")
    out = src.answer("r1", QuestionId.Q1, "prompt text")
    assert out == "Yes."
    assert captured["body"] == {"prompt": "prompt text", "model": "model-x"}
    assert captured["headers"]["Authorization"] == "Bearer sekret"


def test_http_source_wraps_transport_errors(monkeypatch):
    import requests

    def fake_post(*a, **k):
        raise requests.ConnectionError("down")

    monkeypatch.setattr("requests.post", fake_post)
    src = HttpAnswerSource("http://example.test", "m")
    with pytest.raises(ClientError) as err:
        src.answer("r1", QuestionId.Q2, "p")
    assert err.value.question_id == "Q2"


@pytest.mark.parametrize("body", [[], "x", None, 3])
def test_http_source_wraps_a_body_that_is_not_an_object(monkeypatch, body):
    class FakeResponse:
        def raise_for_status(self):
            pass

        def json(self):
            return body

    monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse())
    src = HttpAnswerSource("http://example.test", "m")
    with pytest.raises(ClientError) as err:
        src.answer("r1", QuestionId.Q3, "p")
    assert err.value.question_id == "Q3"


def test_evaluate_inquiry_missing_gold():
    src = DictSource({q: "No." for q in QuestionId})
    rec = run_inquiry(make_report(rid="orphan"), InquiryMode.STEPWISE, src)
    with pytest.raises(MissingGold):
        evaluate_inquiry([rec], {})


def test_edge_case_fixture_replay():
    reports = load_reports_jsonl(data_file("edge_case_reports.jsonl"))
    gold = _load_labels_csv(data_file("edge_case_gold.csv"))
    src = FixtureAnswerSource(data_file("edge_case_responses.tsv"))
    assert len(reports) == 41
    records = [run_inquiry(r, InquiryMode.STEPWISE, src) for r in reports]
    result = evaluate_inquiry(records, gold)
    assert (result.tp, result.fp, result.tn, result.fn) == (7, 9, 24, 1)
    direct = [run_inquiry(r, InquiryMode.DIRECT, src) for r in reports]
    assert evaluate_inquiry(direct, gold).accuracy == pytest.approx(25 / 41)
