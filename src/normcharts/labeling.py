"""Reference labels: coarse keyword flagging and human-grade aggregation."""

import re
from dataclasses import dataclass
from enum import Enum

from .errors import EmptyAnnotation, SchemaError
from .report_text import Report, SectionKind, json_objects


class Label(Enum):
    NORMAL = "Normal"        # positive (minority) class
    ABNORMAL = "Abnormal"    # negative class
    UNCERTAIN = "Uncertain"  # excluded from training/evaluation downstream


# Fixed keyword list for the coarse abnormality flag.  Plain substring match
# so morphological variants hit ("resect" matches "resection").
COARSE_KEYWORDS = (
    "chemotherapy",
    "resect",
    "craniotomy",
    "craniectomy",
    "surgical cavity",
    "post surgery",
)
# A keyword anywhere in the lowercased raw text, with each space standing for
# the run of spaces and tabs that normalize_whitespace collapses to it.
_RAW_KEYWORD_RE = re.compile(
    "|".join("[ \t]+".join(map(re.escape, kw.split(" "))) for kw in COARSE_KEYWORDS)
)


def coarse_flag(report: Report) -> bool:
    """Flag a report as abnormal by keyword search over the Findings section.

    True iff the procedure description contains "brain" and the Findings
    section contains any coarse keyword, both case-insensitive.

    Sections are parsed only if the raw text holds a keyword, which a hit
    needs: the keywords are ASCII and hold no newline, so a hit lies in one
    Findings chunk, which is raw text with its space/tab runs collapsed; and
    lower() maps each character on its own except final sigma, not ASCII.
    """
    if "brain" not in report.procedure_description.lower():
        return False
    if not _RAW_KEYWORD_RE.search(report.raw_text.lower()):
        return False
    findings = report.section(SectionKind.FINDINGS).lower()
    return any(kw in findings for kw in COARSE_KEYWORDS)


def aggregate_grades(grades: list[int]) -> Label:
    """Collapse annotator grades (0=abnormal, 1=uncertain, 2=normal) to a label.

    Mean > 1.5 is Normal, mean < 0.5 is Abnormal, everything between is
    Uncertain.  Both inequalities are strict.
    """
    if not grades:
        raise EmptyAnnotation("no grades given")
    for g in grades:
        if g not in (0, 1, 2):
            raise SchemaError(f"grade {g!r} outside {{0,1,2}}")
    mean = sum(grades) / len(grades)
    if mean > 1.5:
        return Label.NORMAL
    if mean < 0.5:
        return Label.ABNORMAL
    return Label.UNCERTAIN


@dataclass(frozen=True)
class AnnotationSet:
    report_id: str
    grades: tuple[int, ...]

    def label(self) -> Label:
        return aggregate_grades(list(self.grades))


def load_annotations_jsonl(path) -> list[AnnotationSet]:
    """Read annotation sets from a JSON-lines file: {report_id, grades}, where
    grades is a non-empty list of the JSON integers 0, 1 and 2."""
    out = []
    for lineno, obj in json_objects(path):
        if "report_id" not in obj:
            raise SchemaError(f"{path}:{lineno}: missing key 'report_id'")
        grades = obj.get("grades")
        # True == 1 and 2.0 == 2, but neither is a grade
        if not (
            isinstance(grades, list)
            and grades
            and all(type(g) is int and g in (0, 1, 2) for g in grades)
        ):
            raise SchemaError(
                f"{path}:{lineno}: grades must be a non-empty list of 0, 1 or 2, got {grades!r}"
            )
        out.append(AnnotationSet(str(obj["report_id"]), tuple(grades)))
    return out


def label_reports(reports: list[Report], annotations: list[AnnotationSet]) -> dict[str, Label]:
    """Produce the reference label per report id.

    Human grades are authoritative when present; otherwise a coarse keyword
    hit labels the report Abnormal.  Reports with neither stay unlabeled.
    The keyword flag is computed only for reports without grades, since
    grades would overwrite it.
    """
    graded = {ann.report_id for ann in annotations}
    by_id = {r.id: Label.ABNORMAL for r in reports if r.id not in graded and coarse_flag(r)}
    for ann in annotations:
        by_id[ann.report_id] = ann.label()
    return by_id
