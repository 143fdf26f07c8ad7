import contextlib
import csv
import http.server
import itertools
import json
import os
import re
import socket
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import normcharts
from normcharts import stepwise
from normcharts.cli import data_file, _load_labels_csv, main
from normcharts.errors import ClientError, ConfigError, IncompleteRecord, MissingGold
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
    assert aggregate_direct(Verdict.FAILED) is Label.ABNORMAL


def answers(q1, q2, q3, q4, q5):
    return dict(zip(QuestionId, (q1, q2, q3, q4, q5)))


def test_aggregate_stepwise_reference_rows():
    N, Y, U, F = Verdict.NO, Verdict.YES, Verdict.UNPARSED, Verdict.FAILED
    assert aggregate_stepwise(answers(N, N, N, N, N)) is Label.NORMAL
    assert aggregate_stepwise(answers(Y, N, N, N, N)) is Label.ABNORMAL
    assert aggregate_stepwise(answers(Y, Y, N, N, N)) is Label.NORMAL
    assert aggregate_stepwise(answers(N, Y, Y, N, N)) is Label.ABNORMAL
    assert aggregate_stepwise(answers(N, N, N, U, N)) is Label.ABNORMAL
    assert aggregate_stepwise(answers(N, N, F, N, N)) is Label.ABNORMAL
    assert aggregate_stepwise(answers(F, Y, N, N, N)) is Label.NORMAL
    assert aggregate_stepwise(answers(N, F, N, N, N)) is Label.NORMAL


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
            raise ClientError("boom")
        return "No."


def test_run_inquiry_retry_then_success():
    src = FailingSource(failures=2)
    rec = run_inquiry(make_report(), InquiryMode.DIRECT, src)
    assert rec.answers[QuestionId.Q1] is Verdict.NO


def test_run_inquiry_exhausted_retries_failed():
    src = FailingSource(failures=10)
    rec = run_inquiry(make_report(), InquiryMode.DIRECT, src)
    assert rec.answers[QuestionId.Q1] is Verdict.FAILED
    assert rec.answers[QuestionId.Q2] is Verdict.UNPARSED  # not asked in direct mode
    assert rec.label is Label.ABNORMAL
    assert src.calls == 3


def test_fixture_source_missing_cell_unparsed(tmp_path):
    p = tmp_path / "fix.tsv"
    p.write_text("report_id\tquestion_id\tresponse_text\nr1\tQ1\tNo.\n")
    src = FixtureAnswerSource(p)
    assert parse_answer(src.answer("r1", QuestionId.Q1, "")) is Verdict.NO
    assert parse_answer(src.answer("r1", QuestionId.Q2, "")) is Verdict.UNPARSED


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.seen.append((self.command, dict(self.headers), body))
        self.server.respond(self, body)

    do_GET = do_POST

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def serving(respond):
    """An HTTP server on 127.0.0.1 that hands each request to respond(handler, body).

    Yields its URL and the list of (method, headers, body) it has seen."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.respond, server.seen = respond, []
    # a short poll, so that shutdown() does not wait out the default half second
    threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1", server.seen
    finally:
        server.shutdown()
        server.server_close()


def reply(handler, body=b"", status=200, length=None, headers=()):
    """Send a response whose Content-Length is `length` (default: the body's)."""
    handler.send_response(status)
    for key, value in headers:
        handler.send_header(key, value)
    handler.send_header("Content-Length", str(len(body) if length is None else length))
    handler.end_headers()
    handler.wfile.write(body)


def reply_json(handler, value):
    reply(handler, json.dumps(value).encode())


def test_http_source_posts_prompt_and_model(monkeypatch):
    with serving(lambda h, body: reply_json(h, {"text": "Yes."})) as (url, seen):
        monkeypatch.setenv("NORMCHARTS_LLM_TOKEN", "sekret")
        out = HttpAnswerSource(url, "model-x").answer("r1", QuestionId.Q1, "prompt text")
        monkeypatch.delenv("NORMCHARTS_LLM_TOKEN")
        HttpAnswerSource(url, "model-x").answer("r1", QuestionId.Q1, "prompt text")
    assert out == "Yes."
    [(method, headers, body), (_, untokened, _)] = seen
    assert method == "POST"
    assert json.loads(body) == {"prompt": "prompt text", "model": "model-x"}
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer sekret"
    assert "Authorization" not in untokened


def test_http_source_wraps_transport_errors():
    # a port that was just free: nothing listens there, so the connection is refused
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    src = HttpAnswerSource(f"http://127.0.0.1:{port}/v1", "m")
    with pytest.raises(ClientError):
        src.answer("r1", QuestionId.Q2, "p")


@pytest.mark.parametrize("body", [[], "x", None, 3])
def test_http_source_wraps_a_body_that_is_not_an_object(body):
    with serving(lambda h, _: reply_json(h, body)) as (url, _):
        with pytest.raises(ClientError):
            HttpAnswerSource(url, "m").answer("r1", QuestionId.Q3, "p")


@pytest.mark.parametrize("case", ["http_500", "not_json", "no_text_key", "not_utf8", "truncated"])
def test_http_source_wraps_a_bad_reply(case):
    def respond(handler, _):
        if case == "http_500":
            reply(handler, b'{"text": "No."}', status=500)
        elif case == "not_json":
            reply(handler, b"No. Reasoning: ...")
        elif case == "no_text_key":
            reply_json(handler, {"answer": "No."})
        elif case == "not_utf8":
            reply(handler, b'{"text": "\xff"}')
        else:
            reply(handler, b'{"text": "No."}', length=100)  # the connection closes after 15

    with serving(respond) as (url, seen):
        with pytest.raises(ClientError):
            HttpAnswerSource(url, "m").answer("r1", QuestionId.Q1, "p")
    assert len(seen) == 1


def test_http_source_times_out(monkeypatch):
    monkeypatch.setattr(stepwise, "_TIMEOUT_S", 0.2)
    release = threading.Event()

    def respond(handler, _):
        release.wait(2.0)  # ten times the patched timeout: only a patched client gives up
        reply_json(handler, {"text": "No."})

    with serving(respond) as (url, _):
        try:
            with pytest.raises(ClientError, match="timed out"):
                HttpAnswerSource(url, "m").answer("r1", QuestionId.Q1, "p")
        finally:
            release.set()


@pytest.mark.parametrize("status", [302, 307])
def test_http_source_sends_no_token_on_a_redirect(monkeypatch, status):
    """urllib follows a 302 of a POST as a GET and does not follow a 307 at all;
    either way the other host never sees the token."""
    monkeypatch.setenv("NORMCHARTS_LLM_TOKEN", "sekret")
    with serving(lambda h, _: reply_json(h, {"text": "No."})) as (target, target_seen):
        with serving(lambda h, _: reply(h, status=status, headers=[("Location", target)])) as (url, seen):
            src = HttpAnswerSource(url, "m")
            if status == 307:
                with pytest.raises(ClientError, match="307"):
                    src.answer("r1", QuestionId.Q1, "p")
            else:
                assert src.answer("r1", QuestionId.Q1, "p") == "No."
    assert [h["Authorization"] for _, h, _ in seen] == ["Bearer sekret"]
    assert len(target_seen) == (status == 302)
    assert all("Authorization" not in h for _, h, _ in target_seen)


@pytest.mark.parametrize("url, reason", [
    ("notaurl", "not an http"), ("file:///etc/hostname", "not an http"),
    ("ftp://example.test/v1", "not an http"), ("http://", "not an http"),
    ("https:///v1", "not an http"), ("", "not an http"), ("http://127.0.0.1:0/v1", "not an http"),
    ("http://[::1/v1", "Invalid IPv6 URL"), ("http://h:abc/v1", "Port could not be cast"),
    ("http://h:99999/v1", "Port out of range"),
])
def test_http_source_takes_only_an_http_url_with_a_host(url, reason):
    with pytest.raises(ConfigError, match=rf"^endpoint {re.escape(repr(url))}: {reason}"):
        HttpAnswerSource(url, "m")


@pytest.mark.parametrize("url", ["notaurl", "file:///etc/hostname"])
def test_triage_with_a_bad_endpoint_is_config_error(tmp_path, capsys, url):
    out = tmp_path / "triage.csv"
    rc = main(["triage", "--reports", str(data_file("edge_case_reports.jsonl")),
               "--mode", "stepwise", "--endpoint", url, "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: endpoint {url!r}: not an http or https URL with a host and a nonzero port\n"
    )
    assert not out.exists()


def _fixture_server_respond():
    """A responder answering each prompt from the bundled fixture, keyed by the
    prompt's question and report text; a pair with no row gets {"text": ""}."""
    fixture = FixtureAnswerSource(data_file("edge_case_responses.tsv"))
    replies = {
        build_prompt(q, r): fixture.answer(r.id, q, "")
        for r in load_reports_jsonl(data_file("edge_case_reports.jsonl"))
        for q in QuestionId
    }
    return lambda handler, body: reply_json(handler, {"text": replies[json.loads(body)["prompt"]]})


@pytest.mark.parametrize("mode", ["direct", "stepwise"])
def test_triage_endpoint_matches_fixture_replay(tmp_path, capsys, mode):
    argv = ["triage", "--reports", str(data_file("edge_case_reports.jsonl")), "--mode", mode,
            "--gold", str(data_file("edge_case_gold.csv"))]
    fixture_out, endpoint_out = tmp_path / "fixture.csv", tmp_path / "endpoint.csv"
    assert main(argv + ["--fixture", str(data_file("edge_case_responses.tsv")),
                        "--out", str(fixture_out)]) == 0
    fixture_printed = capsys.readouterr().out
    with serving(_fixture_server_respond()) as (url, seen):
        assert main(argv + ["--endpoint", url, "--out", str(endpoint_out)]) == 0
    assert len(seen) == 41 * (1 if mode == "direct" else 5)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == fixture_printed.replace(str(fixture_out), str(endpoint_out))
    assert endpoint_out.read_bytes() == fixture_out.read_bytes()


def test_triage_endpoint_runs_without_requests_and_marks_failed_answers(tmp_path):
    """A fresh interpreter that cannot import requests triages against a server
    that fails every Q3: each Q3 is Failed, each label Abnormal, and stderr holds
    one warning line."""
    script = textwrap.dedent("""
        import sys

        class NoRequests:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "requests":
                    raise ModuleNotFoundError(f"No module named {name!r}")

        sys.meta_path.insert(0, NoRequests())
        from normcharts.cli import main
        sys.exit(main(sys.argv[1:]))
    """)
    q3 = PROMPTS[QuestionId.Q3]

    def respond(handler, body):
        if json.loads(body)["prompt"].startswith(q3):
            reply(handler, b"overloaded", status=500)
        else:
            reply_json(handler, {"text": "No."})

    out = tmp_path / "triage.csv"
    src = str(Path(normcharts.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    with serving(respond) as (url, seen):
        result = subprocess.run(
            [sys.executable, "-c", script, "triage", "--mode", "stepwise", "--endpoint", url,
             "--reports", str(data_file("edge_case_reports.jsonl")), "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"triaged 41 reports -> {out}\n"
    assert result.stderr == (
        "41 answers are Failed: every try at the endpoint was a transport error\n"
    )
    assert len(seen) == 41 * (4 + 3)  # Q3 is tried three times
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 41
    for row in rows:
        assert (row["Q1"], row["Q2"], row["Q3"], row["Q4"], row["Q5"], row["label"]) == (
            "No", "No", "Failed", "No", "No", "Abnormal")


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
