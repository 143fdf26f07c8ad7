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
# the lookbehind keeps "END OF IMPRESSION:" from registering as a header.  A
# header's kind is the name of the group it matched, so the regex's own case
# rule (which matches "İ" to "I") decides it.
_HEADER_RE = re.compile(
    r"(?<![Oo][Ff] )\b(?:(?P<IMPRESSION>IMPRESSION)|(?P<FINDINGS>FINDINGS)"
    r"|(?P<CLINICAL_INDICATION>CLINICAL INDICATION)|(?P<TECHNIQUE>TECHNIQUE)|(?P<COMPARISON>COMPARISON))\s*:",
    re.IGNORECASE,
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
    headers = list(_HEADER_RE.finditer(raw_text))
    kinds = [SectionKind.PREAMBLE] + [SectionKind[m.lastgroup] for m in headers]
    # each section's text runs from the end of its header to the start of the next
    bounds = [0, *(i for m in headers for i in m.span()), len(raw_text)]
    sections: dict[SectionKind, str] = {}
    for kind, start, end in zip(kinds, bounds[0::2], bounds[1::2]):
        chunk = normalize_whitespace(raw_text[start:end])
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
    """obj[key], 0 if absent, as an int: a JSON integer, a float with no
    fraction or a string of ASCII digits after an optional "-"."""
    value = obj.get(key, 0)
    if (isinstance(value, bool) or isinstance(value, float) and int(value) != value
            or isinstance(value, str) and not re.fullmatch("-?[0-9]+", value)):
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
