"""Radiology report parsing: section extraction and classifier input composition."""

import functools
import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

from .errors import UNDECODABLE_JSON, DataError, EmptyInput, located


class SectionKind(Enum):
    IMPRESSION = "Impression"
    FINDINGS = "Findings"
    CLINICAL_INDICATION = "ClinicalIndication"
    TECHNIQUE = "Technique"
    COMPARISON = "Comparison"
    PREAMBLE = "Preamble"


class Sex(Enum):
    M = "M"
    F = "F"
    UNKNOWN = "Unknown"


class InputMode(Enum):
    IMPRESSION_ONLY = "impression"
    FULL_REPORT = "full"


# The five headers seen consistently in the source reports.  Anything else,
# including "END OF IMPRESSION:", is body text.  Matching is case-insensitive;
# the lookbehind keeps "END OF IMPRESSION:" from registering as a header.
_HEADER_TO_KIND = {
    "IMPRESSION": SectionKind.IMPRESSION,
    "FINDINGS": SectionKind.FINDINGS,
    "CLINICAL INDICATION": SectionKind.CLINICAL_INDICATION,
    "TECHNIQUE": SectionKind.TECHNIQUE,
    "COMPARISON": SectionKind.COMPARISON,
}
_HEADER_RE = re.compile(rf"(?<![Oo][Ff] )\b({'|'.join(_HEADER_TO_KIND)})\s*:", re.IGNORECASE)


def _header_kind(header: str) -> SectionKind:
    """The kind of a header _HEADER_RE matched, under the regex's own case rule:
    it matches "İ" to "I", which upper() leaves as it is."""
    return _HEADER_TO_KIND.get(header.upper()) or next(
        k for name, k in _HEADER_TO_KIND.items() if re.fullmatch(name, header, re.IGNORECASE)
    )


def normalize_whitespace(text: str) -> str:
    """Collapse runs of spaces/tabs; newlines are preserved."""
    return re.sub(r"[ \t]+", " ", text).strip()


def parse_sections(raw_text: str) -> dict[SectionKind, str]:
    """Partition a report into named sections in document order.

    Text before the first recognized header goes to Preamble (source reports
    open with an unlabeled impression summary).  Repeated headers concatenate
    in order, separated by a newline.  Parsing is total: a report with no
    headers yields only a Preamble.
    """
    if not raw_text:
        raise EmptyInput("report text is empty")
    # the header group captures, so the split is [preamble, header, body, header, body, ...]
    parts = _HEADER_RE.split(raw_text)
    kinds = [SectionKind.PREAMBLE] + [_header_kind(h) for h in parts[1::2]]
    sections: dict[SectionKind, str] = {}
    for kind, chunk in zip(kinds, parts[0::2]):
        chunk = normalize_whitespace(chunk)
        if chunk:
            sections[kind] = sections[kind] + "\n" + chunk if kind in sections else chunk
    return sections


@dataclass(frozen=True)
class Report:
    """One radiology report with EHR metadata; its sections are parsed on first use."""

    id: str
    raw_text: str
    exam_year: int
    site: str
    age_days: int
    sex: Sex
    procedure_description: str

    def __post_init__(self):
        if not self.raw_text:
            raise EmptyInput(f"report {self.id!r} has empty text")
        if self.age_days < 0:
            raise DataError(f"report {self.id!r} has negative age_days")

    @functools.cached_property
    def sections(self) -> Mapping[SectionKind, str]:
        return parse_sections(self.raw_text)

    def section(self, kind: SectionKind) -> str:
        return self.sections.get(kind, "")


def compose_input(report: Report, mode: InputMode) -> str:
    """Build the classifier input for one report under the given input regime.

    ImpressionOnly falls back to the Preamble when there is no labeled
    Impression section, since many reports open with an unlabeled summary.
    """
    if mode is InputMode.FULL_REPORT:
        return report.raw_text
    text = report.section(SectionKind.IMPRESSION) or report.section(SectionKind.PREAMBLE)
    if not text:
        raise EmptyInput(f"report {report.id!r} has no impression or preamble text")
    return text


def json_objects(path, expected: str = "a JSON object") -> Iterator[tuple[int, dict]]:
    """(line number, object) of each non-blank line of a JSON-lines file.

    Invalid JSON, a line that is not an object (the message says `expected`)
    or a byte that is not UTF-8 is a DataError at path:line.
    """
    with open(path, encoding="utf-8") as f, located(path):
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except UNDECODABLE_JSON as e:
                raise DataError(f"{path}:{lineno}: invalid JSON ({e})") from e
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: expected {expected}")
            yield lineno, obj


_REPORT_LINE = "a JSON object whose text is a string"


def _whole_number(obj: dict, key: str) -> int:
    """obj[key], 0 if absent, as an int; a digit string is read, a JSON boolean or a fraction is not."""
    value = obj.get(key, 0)
    if isinstance(value, bool) or isinstance(value, float) and int(value) != value:
        raise ValueError(f"{key} must be a whole number, got {json.dumps(value)}")
    return int(value)


def load_reports_jsonl(path) -> list[Report]:
    """Read reports from a JSON-lines file; unknown fields are ignored and ids are unique."""
    reports = []
    seen: set[str] = set()
    for lineno, obj in json_objects(path, _REPORT_LINE):
        if not isinstance(obj.get("text", ""), str):
            raise DataError(f"{path}:{lineno}: expected {_REPORT_LINE}")
        try:
            report = Report(
                id=str(obj["id"]),
                raw_text=obj["text"],
                exam_year=_whole_number(obj, "exam_year"),
                site=str(obj.get("site", "")),
                age_days=_whole_number(obj, "age_days"),
                sex=Sex(obj.get("sex", "Unknown")),
                procedure_description=str(obj.get("procedure_description", "")),
            )
        except (KeyError, TypeError, ValueError, OverflowError, DataError) as e:
            raise DataError(f"{path}:{lineno}: {e}") from e
        if report.id in seen:
            raise DataError(f"{path}:{lineno}: repeated report id {report.id!r}")
        seen.add(report.id)
        reports.append(report)
    return reports
