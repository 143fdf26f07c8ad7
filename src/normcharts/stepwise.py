"""Direct and stepwise yes/no inquiry protocols with a pluggable answer source.

The stepwise protocol asks five clinically informed sub-questions per report
and combines the verdicts with a fixed boolean rule: a report is Normal only
if (Q1 = No or Q2 = Yes) and Q3 = Q4 = Q5 = No.  Q2 is the single
inverse-polarity question (a Yes there argues for normality).
"""

import functools
import json
import os
import re
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Protocol, Sequence
from urllib.parse import urlsplit

from .errors import UNDECODABLE_JSON, ClientError, ConfigError, DataError, csv_rows
from .labeling import Label
from .metrics import EvalResult, confusion
from .report_text import Report


class QuestionId(Enum):
    Q1 = "Q1"
    Q2 = "Q2"
    Q3 = "Q3"
    Q4 = "Q4"
    Q5 = "Q5"


class Verdict(Enum):
    YES = "Yes"
    NO = "No"
    UNPARSED = "Unparsed"
    FAILED = "Failed"  # every try of the question raised ClientError


class InquiryMode(Enum):
    DIRECT = "direct"
    STEPWISE = "stepwise"


PROMPTS: dict[QuestionId, str] = {
    QuestionId.Q1: "Does the provided radiology report indicate any brain abnormalities? "
                   "(Yes/No followed by reasoning)",
    QuestionId.Q2: "Does the provided radiology report indicate that the pathology is outside "
                   "of the brain? (Yes/No followed by reasoning)",
    QuestionId.Q3: "Does the provided radiology report indicate any motion artifact or low "
                   "quality scan? (Yes/No followed by reasoning)",
    QuestionId.Q4: "Does the provided radiology report indicate any immediate clinical follow "
                   "up is required? (Yes/No followed by reasoning)",
    QuestionId.Q5: "Does the provided radiology report indicate that the radiologist or the "
                   "medical doctor is highly concerned about the patient's condition? "
                   "(Yes/No followed by reasoning)",
}

_FIRST_WORD = re.compile(r"[A-Za-z]+")
# Transport errors on one question retried before its answer counts as Failed.
_RETRIES = 2
_TIMEOUT_S = 60.0  # seconds a live endpoint has to connect, and then for each read


def parse_answer(response_text: str) -> Verdict:
    """Read the leading yes/no token of a free-text answer.

    Anything whose first alphabetic token is not "yes" or "no" is Unparsed;
    Unparsed never satisfies a condition downstream, so unparseable answers
    fail toward Abnormal.
    """
    m = _FIRST_WORD.search(response_text or "")
    if m is None:
        return Verdict.UNPARSED
    word = m.group(0).lower()
    if word == "yes":
        return Verdict.YES
    if word == "no":
        return Verdict.NO
    return Verdict.UNPARSED


def aggregate_direct(q1: Verdict) -> Label:
    """Single-question rule: only an explicit No counts as Normal."""
    return Label.NORMAL if q1 is Verdict.NO else Label.ABNORMAL


def aggregate_stepwise(answers: Mapping[QuestionId, Verdict]) -> Label:
    """Five-question decision rule; Unparsed and Failed fail every required condition."""
    missing = [q for q in QuestionId if q not in answers]
    if missing:
        raise DataError(f"missing answers for {[q.value for q in missing]}")
    gate = answers[QuestionId.Q1] is Verdict.NO or answers[QuestionId.Q2] is Verdict.YES
    clear = all(
        answers[q] is Verdict.NO for q in (QuestionId.Q3, QuestionId.Q4, QuestionId.Q5)
    )
    return Label.NORMAL if gate and clear else Label.ABNORMAL


@dataclass(frozen=True)
class StepwiseRecord:
    report_id: str
    answers: Mapping[QuestionId, Verdict]
    label: Label
    last_error: str = ""  # the ClientError text behind the last Failed answer


class AnswerSource(Protocol):
    def answer(self, report_id: str, question: QuestionId, prompt: str) -> str:
        """Return the raw response text for one prompt."""
        ...


FIXTURE_COLUMNS = ("report_id", "question_id", "response_text")


class FixtureAnswerSource:
    """Canned responses from a TSV of (report_id, question_id, response_text);
    a row errors.csv_rows rejects or a repeated (report_id, question_id) is a
    DataError at path:line."""

    def __init__(self, path):
        self.responses: dict[tuple[str, str], str] = {}
        for line, (report_id, question_id, text) in csv_rows(path, FIXTURE_COLUMNS, delimiter="\t"):
            key = (report_id, question_id)
            if key in self.responses:
                raise DataError(f"{path}:{line}: repeated (report_id, question_id) {key}")
            self.responses[key] = text

    def answer(self, report_id: str, question: QuestionId, prompt: str) -> str:
        # A question with no row parses to Unparsed downstream.
        return self.responses.get((report_id, question.value), "")


@functools.cache
def _opener_refusing_redirects():
    """An opener on which every 30x reply is an HTTPError: urllib would follow a
    301/302/303 of the POST as a bodiless GET, and return a reply to no prompt."""
    import urllib.request  # here, not at module level: only a live endpoint needs it

    class RefuseRedirects(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args):
            return None  # the default error handler then raises HTTPError

    return urllib.request.build_opener(RefuseRedirects)


class HttpAnswerSource:
    """POSTs {"prompt", "model"} as JSON to an http(s) endpoint; expects {"text"}."""

    def __init__(self, base_url: str, model: str):
        try:
            parts = urlsplit(base_url)
            if parts.scheme not in ("http", "https") or not parts.hostname or parts.port == 0:
                raise ValueError("not an http or https URL with a host and a nonzero port")
        except ValueError as e:  # urlsplit's too, and .port's for one not in 0-65535
            raise ConfigError(f"endpoint {base_url!r}: {e}") from None
        self.base_url = base_url
        self.model = model
        self.token = os.environ.get("NORMCHARTS_LLM_TOKEN", "")

    def answer(self, report_id: str, question: QuestionId, prompt: str) -> str:
        # here, not at module level: only a live endpoint needs them
        import http.client
        import urllib.request

        body = json.dumps({"prompt": prompt, "model": self.model}).encode("utf-8")
        req = urllib.request.Request(self.base_url, body, {"Content-Type": "application/json"})
        if self.token:
            # unredirected: urllib copies an ordinary header onto a redirect to any host
            req.add_unredirected_header("Authorization", f"Bearer {self.token}")
        try:
            with _opener_refusing_redirects().open(req, timeout=_TIMEOUT_S) as resp:
                return str(json.loads(resp.read())["text"])
        except (OSError, http.client.HTTPException, KeyError, TypeError, *UNDECODABLE_JSON) as e:
            # IncompleteRead is not an OSError; TypeError is a JSON body that is not an object
            if isinstance(e, urllib.error.HTTPError):
                e.close()  # release the error response
            raise ClientError(str(e)) from e


def build_prompt(question: QuestionId, report: Report) -> str:
    """Question first, then the full report text, separated by a blank line."""
    return f"{PROMPTS[question]}\n\n{report.raw_text}"


def run_inquiry(
    report: Report,
    mode: InquiryMode,
    client: AnswerSource,
) -> StepwiseRecord:
    """Issue the direct (Q1) or full five-question inquiry for one report.

    Each question is asked independently (no shared conversation state).
    Transport errors retry up to _RETRIES times, then the answer is Failed
    and the last error's text is kept as the record's last_error.
    """
    questions = [QuestionId.Q1] if mode is InquiryMode.DIRECT else list(QuestionId)
    answers: dict[QuestionId, Verdict] = {q: Verdict.UNPARSED for q in QuestionId}
    last_error = ""
    for qid in questions:
        prompt = build_prompt(qid, report)
        for _ in range(_RETRIES + 1):
            try:
                answers[qid] = parse_answer(client.answer(report.id, qid, prompt))
                break
            except ClientError as e:
                error = str(e)
        else:
            answers[qid] = Verdict.FAILED
            last_error = error
    if mode is InquiryMode.DIRECT:
        label = aggregate_direct(answers[QuestionId.Q1])
    else:
        label = aggregate_stepwise(answers)
    return StepwiseRecord(report_id=report.id, answers=answers, label=label, last_error=last_error)


def evaluate_inquiry(
    records: Sequence[StepwiseRecord],
    gold: Mapping[str, Label],
) -> EvalResult:
    """Score inquiry labels against gold, Normal as the positive class; a report
    whose gold label is missing or Uncertain is a DataError naming it."""
    missing = [r.report_id for r in records if r.report_id not in gold]
    if missing:
        raise DataError(f"no gold label for {missing}")
    uncertain = [r.report_id for r in records if gold[r.report_id] is Label.UNCERTAIN]
    if uncertain:
        raise DataError(f"Uncertain gold label for {uncertain}")
    preds = [r.label for r in records]
    refs = [gold[r.report_id] for r in records]
    return confusion(preds, refs)
