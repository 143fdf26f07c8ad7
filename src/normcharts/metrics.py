"""Confusion-matrix metrics and multi-seed summaries.

Normal is the positive class throughout: sensitivity is recall of normal
reports, specificity is recall of abnormal reports.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

from .errors import DataError, EmptyInput, write_rows
from .labeling import Label

METRIC_NAMES = ("accuracy", "sensitivity", "specificity", "precision", "f1")


def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den else None


@dataclass(frozen=True)
class EvalResult:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0 or self.total < 1:
            raise DataError("confusion counts must be non-negative with total >= 1")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> Optional[float]:
        return _ratio(self.tp + self.tn, self.total)

    @property
    def sensitivity(self) -> Optional[float]:
        return _ratio(self.tp, self.tp + self.fn)

    @property
    def specificity(self) -> Optional[float]:
        return _ratio(self.tn, self.tn + self.fp)

    @property
    def precision(self) -> Optional[float]:
        return _ratio(self.tp, self.tp + self.fp)

    @property
    def f1(self) -> Optional[float]:
        prec, sens = self.precision, self.sensitivity
        if prec is None or sens is None or prec + sens == 0:
            return None
        return 2.0 * prec * sens / (prec + sens)

    def metric(self, name: str) -> Optional[float]:
        if name not in METRIC_NAMES:
            raise KeyError(name)
        return getattr(self, name)


def confusion(predictions: Sequence[Label], gold: Sequence[Label]) -> EvalResult:
    """Accumulate confusion counts with Normal as the positive class."""
    if len(predictions) != len(gold):
        raise DataError(f"length mismatch: {len(predictions)} predictions vs {len(gold)} gold")
    if len(gold) == 0:
        raise DataError("empty evaluation")
    tp = fp = tn = fn = 0
    for pred, ref in zip(predictions, gold):
        if Label.UNCERTAIN in (pred, ref):
            raise DataError("Uncertain labels are excluded from evaluation")
        if pred is Label.NORMAL:
            if ref is Label.NORMAL:
                tp += 1
            else:
                fp += 1
        else:
            if ref is Label.ABNORMAL:
                tn += 1
            else:
                fn += 1
    return EvalResult(tp=tp, fp=fp, tn=tn, fn=fn)


@dataclass(frozen=True)
class SeedSummary:
    mean: dict[str, Optional[float]]
    std: dict[str, Optional[float]]


def seed_summary(results: Sequence[EvalResult]) -> SeedSummary:
    """Per-metric mean and sample (n-1) standard deviation over seeds.

    Undefined metrics (zero denominators) are skipped rather than coerced
    to 0, to avoid biasing the means.
    """
    if not results:
        raise EmptyInput("no results to summarize")
    mean: dict[str, Optional[float]] = {}
    std: dict[str, Optional[float]] = {}
    for name in METRIC_NAMES:
        values = [v for r in results if (v := r.metric(name)) is not None]
        if not values:
            mean[name] = std[name] = None
            continue
        m = sum(values) / len(values)
        mean[name] = m
        if len(values) < 2:
            std[name] = 0.0
        else:
            std[name] = math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))
    return SeedSummary(mean=mean, std=std)


class MetricRow(NamedTuple):
    """One metrics.csv row; the fields are the file's columns, in order."""

    model: str
    experiment: str
    distribution: str
    evaluation_set: str
    seed: Union[int, str]
    metric: str
    value: str


def write_results_csv(path, rows: Sequence[MetricRow]) -> None:
    """Emit a MetricRow header line, then one line per row."""
    write_rows(path, MetricRow._fields, rows, lineterminator="\n")


def metric_row(*, value: Optional[float], **keys) -> MetricRow:
    """The row of one metric value; an undefined value (None) is written empty."""
    return MetricRow(**keys, value="" if value is None else f"{value:.6f}")


def result_rows(result: EvalResult, **keys) -> list[MetricRow]:
    """One row per metric; `keys` are the MetricRow columns before metric, seed included."""
    return [metric_row(**keys, metric=name, value=result.metric(name)) for name in METRIC_NAMES]


def summary_rows(summary: SeedSummary, **keys) -> list[MetricRow]:
    """Mean and std rows per metric; `keys` are the MetricRow columns before seed."""
    rows = []
    for name in METRIC_NAMES:
        rows.append(metric_row(**keys, seed="mean", metric=name, value=summary.mean[name]))
        rows.append(metric_row(**keys, seed="std", metric=name, value=summary.std[name]))
    return rows
