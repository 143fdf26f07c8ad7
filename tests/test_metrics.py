import csv
import math
import random

import pytest

from normcharts.errors import DataError, EmptyInput
from normcharts.labeling import Label
from normcharts.metrics import (
    METRIC_NAMES,
    EvalResult,
    confusion,
    result_rows,
    seed_summary,
    summary_rows,
    write_results_csv,
)


def test_reference_confusion_table():
    r = EvalResult(tp=7, fp=9, tn=24, fn=1)
    assert round(r.accuracy, 3) == 0.756
    assert round(r.specificity, 3) == 0.727
    assert round(r.sensitivity, 3) == 0.875
    assert r.precision == 7 / 16  # printed as 0.437 (truncated) in the source
    assert abs(r.precision - 0.437) <= 6e-4
    assert round(r.f1, 3) == 0.583


def test_second_reference_confusion_table():
    r = EvalResult(tp=3, fp=10, tn=23, fn=5)
    assert round(r.accuracy, 3) == 0.634
    assert abs(r.precision - 0.230) <= 1e-3  # 3/13, printed truncated
    assert abs(r.f1 - 0.285) <= 1e-3


def test_metrics_match_recomputation_on_random_tables():
    rng = random.Random(99)
    for _ in range(1000):
        tp, fp, tn, fn = (rng.randrange(0, 40) for _ in range(4))
        if tp + fp + tn + fn == 0:
            continue
        r = EvalResult(tp=tp, fp=fp, tn=tn, fn=fn)
        assert r.accuracy == pytest.approx((tp + tn) / (tp + fp + tn + fn), abs=1e-12)
        if tp + fn:
            assert r.sensitivity == pytest.approx(tp / (tp + fn), abs=1e-12)
        else:
            assert r.sensitivity is None
        if tn + fp:
            assert r.specificity == pytest.approx(tn / (tn + fp), abs=1e-12)
        else:
            assert r.specificity is None
        if tp + fp:
            assert r.precision == pytest.approx(tp / (tp + fp), abs=1e-12)
        else:
            assert r.precision is None
        if r.precision and r.sensitivity:
            expect = 2 * r.precision * r.sensitivity / (r.precision + r.sensitivity)
            assert r.f1 == pytest.approx(expect, abs=1e-12)
            assert min(r.precision, r.sensitivity) - 1e-12 <= r.f1 <= max(r.precision, r.sensitivity) + 1e-12


def test_positive_class_swap_symmetry():
    rng = random.Random(5)
    for _ in range(200):
        tp, fp, tn, fn = (rng.randrange(1, 20) for _ in range(4))
        r = EvalResult(tp=tp, fp=fp, tn=tn, fn=fn)
        swapped = EvalResult(tp=tn, fp=fn, tn=tp, fn=fp)
        assert swapped.sensitivity == pytest.approx(r.specificity, abs=1e-12)
        assert swapped.specificity == pytest.approx(r.sensitivity, abs=1e-12)
        # swapped precision is the negative predictive value of the original
        assert swapped.precision == pytest.approx(tn / (tn + fn), abs=1e-12)


def test_confusion_counts():
    preds = [Label.NORMAL, Label.NORMAL, Label.ABNORMAL, Label.ABNORMAL]
    gold = [Label.NORMAL, Label.ABNORMAL, Label.NORMAL, Label.ABNORMAL]
    r = confusion(preds, gold)
    assert (r.tp, r.fp, r.fn, r.tn) == (1, 1, 1, 1)


def test_confusion_perfect_agreement():
    preds = [Label.NORMAL, Label.ABNORMAL, Label.ABNORMAL]
    r = confusion(preds, preds)
    assert r.accuracy == 1.0
    assert r.f1 == 1.0


def test_confusion_length_mismatch():
    with pytest.raises(DataError, match="^length mismatch: 1 predictions vs 2 gold$"):
        confusion([Label.NORMAL], [Label.NORMAL, Label.ABNORMAL])


def test_confusion_rejects_uncertain():
    with pytest.raises(DataError, match="^Uncertain labels are excluded from evaluation$"):
        confusion([Label.UNCERTAIN], [Label.NORMAL])


def test_seed_summary_two_point_std():
    a = EvalResult(tp=99, fp=0, tn=0, fn=1)   # accuracy 0.99
    b = EvalResult(tp=100, fp=0, tn=0, fn=0)  # accuracy 1.00
    s = seed_summary([a, b])
    assert s.mean["accuracy"] == pytest.approx(0.995, abs=1e-12)
    assert s.std["accuracy"] == pytest.approx(0.007071067811865475, rel=1e-9)


def test_seed_summary_identical_results_zero_std():
    r = EvalResult(tp=5, fp=2, tn=8, fn=1)
    s = seed_summary([r] * 5)
    for name in METRIC_NAMES:
        assert s.std[name] == 0.0


def test_seed_summary_single_result():
    r = EvalResult(tp=5, fp=2, tn=8, fn=1)
    s = seed_summary([r])
    assert s.mean["accuracy"] == r.accuracy
    assert s.std["accuracy"] == 0.0


def test_seed_summary_skips_undefined():
    defined = EvalResult(tp=2, fp=1, tn=3, fn=1)
    undefined_prec = EvalResult(tp=0, fp=0, tn=5, fn=2)  # precision undefined
    s = seed_summary([defined, undefined_prec])
    assert s.mean["precision"] == pytest.approx(defined.precision)


def test_seed_summary_empty_raises():
    with pytest.raises(EmptyInput):
        seed_summary([])


def test_results_csv_layout(tmp_path):
    r = EvalResult(tp=7, fp=9, tn=24, fn=1)
    rows = result_rows(r, model="m", experiment="e", distribution="d", evaluation_set="s", seed=1)
    rows += summary_rows(seed_summary([r]), model="m", experiment="e", distribution="d", evaluation_set="s")
    path = tmp_path / "out.csv"
    write_results_csv(path, rows)
    with open(path, newline="") as f:
        read = list(csv.DictReader(f))
    assert len(read) == 5 + 10  # 5 per-seed + mean and std rows per metric
    assert read[0]["metric"] == "accuracy"
    assert float(read[0]["value"]) == pytest.approx(31 / 41, abs=1e-6)
    assert {row["seed"] for row in read} == {"1", "mean", "std"}
