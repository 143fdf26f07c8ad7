"""Self-tests of the benchmark: seeded inputs, output checks, trace accounting.

They run small versions of two workloads through the real CLI, so they need
the sources under `src/` (the benchmark puts them on the path itself).
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks as ck  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class SmallGrowthFit(workloads.GrowthFit):
    n_sessions = 300


class SmallTriageTrain(workloads.TriageTrain):
    n_reports = 400


def _no_prep(tag, commands):
    raise AssertionError("these workloads prepare nothing")


def _build(cls, work: Path, seed: int):
    work.mkdir(parents=True)
    wl = cls(run.ROOT, work, seed)
    wl.build(_no_prep, ck.Checks())
    return wl


@pytest.mark.parametrize("cls", [SmallTriageTrain, SmallGrowthFit])
def test_same_seed_gives_same_input_digests(tmp_path, cls):
    first = _build(cls, tmp_path / "a", seed=5).inputs
    again = _build(cls, tmp_path / "b", seed=5).inputs
    other = _build(cls, tmp_path / "c", seed=6).inputs
    assert first and first == again
    assert all(first[name] != other[name] for name in first)


@pytest.fixture(scope="module")
def growth_pass(tmp_path_factory):
    """One traced pass of a small growth_fit run, with its checks."""
    work = tmp_path_factory.mktemp("growth")
    wl = SmallGrowthFit(run.ROOT, work, 3)
    checks = ck.Checks()
    wl.build(_no_prep, checks)
    result = run.run_pass(wl, work, 0, True)
    run.check_pass(wl, result, checks)
    return wl, work / "pass-0", result, checks


def test_clean_pass_has_no_failures(growth_pass):
    _, _, _, checks = growth_pass
    assert checks.attempted > 10
    assert checks.failed == []


def _error_rate_after(wl, pass_dir, corrupt) -> float:
    corrupt(next((pass_dir / "runs").iterdir()))
    checks = ck.Checks()
    wl.check(pass_dir, checks)
    return len(checks.failed) / checks.attempted


def _swap_curve_columns(run_dir):
    path = run_dir / "curves.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    age, lo, mid, hi = lines[5].split(",")
    lines[5] = ",".join([age, hi, mid, lo])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _unconverge_model(run_dir):
    path = run_dir / "growth-model-a.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["converged"] = False
    path.write_text(json.dumps(doc), encoding="utf-8")


def _drop_metric_row(run_dir):
    path = run_dir / "metrics.csv"
    path.write_text(path.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")


def _unbalance_attrition(run_dir):
    path = run_dir / "attrition.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["output_sessions"] += 1
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize(
    "corrupt", [_swap_curve_columns, _unconverge_model, _drop_metric_row, _unbalance_attrition]
)
def test_corrupted_output_raises_error_rate(growth_pass, tmp_path, corrupt):
    wl, pass_dir, _, _ = growth_pass
    copy = tmp_path / "pass"
    shutil.copytree(pass_dir, copy)
    assert _error_rate_after(wl, copy, lambda run_dir: None) == 0.0
    assert _error_rate_after(wl, copy, corrupt) > 0.0


def test_traced_layer_times_never_exceed_pass_time(growth_pass):
    wl, _, result, _ = growth_pass
    summary = result["trace"]
    wall = result["pass_s"]
    layer_self = summary["layer_self_s"]
    assert all(s >= 0.0 for s in layer_self.values())
    assert sum(layer_self.values()) <= wall
    metrics = tracer.layer_metrics(summary)
    for name, value in metrics.items():
        if name.endswith("_s"):
            assert 0.0 <= value <= wall, name
    for span in wl.expected_spans:
        assert summary["spans"][span]["calls"] > 0, span


def test_stepwise_rule_check_catches_a_flipped_label(tmp_path):
    path = tmp_path / "triage.csv"
    header = "report_id,Q1,Q2,Q3,Q4,Q5,label\n"
    path.write_text(header + "r1,No,No,No,No,No,Normal\nr2,Yes,No,No,No,No,Abnormal\n", encoding="utf-8")
    good = ck.Checks()
    ck.check_stepwise_rule(good, path, 2, "t")
    assert good.failed == []
    path.write_text(header + "r1,No,No,No,No,No,Abnormal\nr2,Yes,No,No,No,No,Abnormal\n", encoding="utf-8")
    bad = ck.Checks()
    ck.check_stepwise_rule(bad, path, 2, "t")
    assert len(bad.failed) == 1
