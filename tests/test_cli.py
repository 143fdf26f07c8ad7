import csv
import hashlib
import importlib
import json
import math
import os
import struct
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import normcharts
from normcharts.cli import main
from normcharts.experiments import (
    DEFAULT_SEEDS,
    EXPERIMENTS,
    PipelineConfig,
    data_file,
    load_config,
    load_csv_map,
    run_experiment,
    write_csv_map,
)
from normcharts.errors import ConfigError, DataError, NumericalError
from normcharts.growthchart import FpSpec, GrowthModel
from normcharts.labeling import Label
from normcharts.stepwise import FIXTURE_COLUMNS, FixtureAnswerSource


def read_metrics(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_default_config():
    cfg = load_config(None)
    assert cfg.seeds == DEFAULT_SEEDS
    assert cfg.pos_weight == 10.0
    assert cfg.dimension == 1 << 18


def test_config_round_trip(tmp_path):
    cfg = PipelineConfig(seeds=(1, 2), pos_weight=4.0, n_sessions=50,
                         out_dir=str(tmp_path), fp1_only=False)
    path = tmp_path / "cfg.ini"
    path.write_text(cfg.to_ini())
    back = load_config(str(path))
    assert back.seeds == (1, 2)
    assert back.pos_weight == 4.0
    assert back.n_sessions == 50
    assert back.fp1_only is False
    assert back.out_dir == str(tmp_path)


def test_config_missing_file_and_bad_value(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.ini"))
    bad = tmp_path / "bad.ini"
    bad.write_text("[train]\nepochs = three\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    empty_seeds = tmp_path / "seeds.ini"
    empty_seeds.write_text("[train]\nseeds = ,\n")
    with pytest.raises(ConfigError):
        load_config(str(empty_seeds))


def test_main_exit_codes(tmp_path, capsys):
    # missing input file -> config error
    assert main(["ingest", "--reports", str(tmp_path / "nope.jsonl")]) == 2
    # malformed data -> data error
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["ingest", "--reports", str(bad)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "expected a JSON object whose text is a string"),
    ('"abc"', "expected a JSON object whose text is a string"),
    ('{"id": "a", "text": 5}', "expected a JSON object whose text is a string"),
    ('{"id": "a", "text": "x", "age_days": 1.5e999}', "cannot convert float infinity to integer"),
    # True == 1 and 2015.0 == 2015, but true is no year and 2015.7 is no whole one
    ('{"id": "a", "text": "x", "exam_year": true}', "exam_year must be a whole number, got true"),
    ('{"id": "a", "text": "x", "exam_year": 2015.7}', "exam_year must be a whole number, got 2015.7"),
    ('{"id": "a", "text": "x", "age_days": false}', "age_days must be a whole number, got false"),
    ('{"id": "a", "text": "x", "age_days": 30.5}', "age_days must be a whole number, got 30.5"),
    # Python's int() also reads these; a digit string is an optional "-" and ASCII digits only
    ('{"id": "a", "text": "x", "exam_year": "20_15"}', 'exam_year must be a whole number, got "20_15"'),
    ('{"id": "a", "text": "x", "age_days": "\\u0661\\u0662"}',
     'age_days must be a whole number, got "\\u0661\\u0662"'),
    ('{"id": "a", "text": "x", "exam_year": " 2016 "}', 'exam_year must be a whole number, got " 2016 "'),
    ('{"id": "a", "text": "x", "age_days": "+7"}', 'age_days must be a whole number, got "+7"'),
])
def test_malformed_report_line_is_schema_error(tmp_path, capsys, line, message):
    bad = tmp_path / "reports.jsonl"
    bad.write_text('{"id": "ok", "text": "fine"}\n' + line + "\n")
    assert main(["ingest", "--reports", str(bad)]) == 3
    assert capsys.readouterr().err == f"data error: {bad}:2: {message}\n"


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def _zero_model(path):
    import numpy as np

    from normcharts.classifier import FeatureConfig, LinearModel, save_model

    save_model(LinearModel(weights=np.zeros(1 << 10), bias=0.0,
                           config=FeatureConfig(dimension=1 << 10), pos_weight=10.0),
               path)


@pytest.mark.parametrize("command", ["train", "eval", "run-experiment"])
def test_report_with_no_tokens_is_named(tmp_path, capsys, monkeypatch, command):
    texts = {f"r{i}": f"new mass number {i}" if i % 2 else f"unremarkable study {i}"
             for i in range(20)}
    texts["r7"] = "!!! ..."
    reports = tmp_path / "reports.jsonl"
    _write_jsonl(reports, [{"id": rid, "text": text} for rid, text in texts.items()])
    labels, split = tmp_path / "labels.csv", tmp_path / "split.csv"
    _write_csv(labels, ["report_id", "label"],
               [[rid, "Abnormal" if i % 2 else "Normal"] for i, rid in enumerate(texts)])
    subset = "Test" if command == "eval" else "Train"
    _write_csv(split, ["report_id", "subset"], [[rid, subset] for rid in texts])
    if command == "train":
        argv = ["train", "--reports", str(reports), "--labels", str(labels),
                "--split", str(split), "--epochs", "2", "--out", str(tmp_path / "m.bin")]
    elif command == "eval":
        _zero_model(tmp_path / "m.bin")
        argv = ["eval", "--model", str(tmp_path / "m.bin"), "--reports", str(reports),
                "--labels", str(labels), "--split", str(split), "--out", str(tmp_path / "e.csv")]
    else:
        _write_jsonl(tmp_path / "annotations.jsonl",
                     [{"report_id": rid, "grades": [0, 0, 0] if i % 2 else [2, 2, 2]}
                      for i, rid in enumerate(texts)])
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[paths]\nreports = {reports}\nannotations = {tmp_path / 'annotations.jsonl'}\n"
                       "[train]\nseeds = 1\nepochs = 2\n")
        monkeypatch.chdir(tmp_path)
        argv = ["run-experiment", "exp2_weighted", "--config", str(cfg)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"data error: {reports}: report 'r7' has no tokens after normalization\n"


def test_lone_surrogate_in_a_report_separates_tokens(tmp_path, monkeypatch):
    # JSON allows a lone surrogate escape; the featurizer reads it as a
    # separator, so the run is that of the text without it
    digests = {}
    for tag, extra in (("plain", ""), ("surrogate", "\ud800")):
        work = tmp_path / tag
        work.mkdir()
        texts = {f"r{i}": f"new mass{extra} number {i}" if i % 2 else f"unremarkable {extra}study {i}"
                 for i in range(20)}
        reports = work / "reports.jsonl"
        _write_jsonl(reports, [{"id": rid, "text": text} for rid, text in texts.items()])
        assert (b"\\ud800" in reports.read_bytes()) == bool(extra)
        _write_jsonl(work / "annotations.jsonl",
                     [{"report_id": rid, "grades": [0, 0, 0] if i % 2 else [2, 2, 2]}
                      for i, rid in enumerate(texts)])
        cfg = work / "cfg.ini"
        cfg.write_text(f"[paths]\nreports = {reports}\nannotations = {work / 'annotations.jsonl'}\n"
                       "[train]\nseeds = 1\nepochs = 2\n")
        monkeypatch.chdir(work)
        assert main(["run-experiment", "exp2_weighted", "--config", str(cfg)]) == 0
        (run_dir,) = (work / "runs").iterdir()
        digests[tag] = _sha256s(run_dir, ["metrics.csv", "model-seed1.bin"])
    assert digests["surrogate"] == digests["plain"]


@pytest.mark.parametrize("command", ["ingest", "label", "train", "eval", "triage"])
def test_repeated_report_id_is_rejected_at_its_line(tmp_path, capsys, command):
    bundled = data_file("edge_case_reports.jsonl").read_text().splitlines()
    reports = tmp_path / "reports.jsonl"
    reports.write_text("\n".join(bundled + [bundled[1]]) + "\n")
    gold = str(data_file("edge_case_gold.csv"))
    split = tmp_path / "split.csv"
    _write_csv(split, ["report_id", "subset"],
               [[row["report_id"], "Train"] for row in read_metrics(gold)])
    model = tmp_path / "m.bin"
    _zero_model(model)
    argv = {
        "ingest": ["ingest"],
        "label": ["label", "--out", str(tmp_path / "labels.csv")],
        "train": ["train", "--labels", gold, "--split", str(split), "--out", str(model)],
        "eval": ["eval", "--model", str(model), "--labels", gold, "--split", str(split),
                 "--subset", "Train", "--out", str(tmp_path / "e.csv")],
        "triage": ["triage", "--mode", "stepwise", "--out", str(tmp_path / "t.csv"),
                   "--fixture", str(data_file("edge_case_responses.tsv"))],
    }[command]
    assert main(argv + ["--reports", str(reports)]) == 3
    rid = json.loads(bundled[1])["id"]
    line = len(bundled) + 1
    assert capsys.readouterr().err == f"data error: {reports}:{line}: repeated report id {rid!r}\n"


def test_usage_error_exits_2_with_argparse_usage(tmp_path, capsys):
    # the one error that takes more than one stderr line: argparse's usage block
    out = tmp_path / "e.csv"
    with pytest.raises(SystemExit) as e:
        main(["eval", "--model", str(tmp_path / "m.bin"), "--reports", str(tmp_path / "r.jsonl"),
              "--labels", str(tmp_path / "g.csv"), "--out", str(out)])
    assert e.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "normcharts eval: error: the following arguments are required: --split"
    assert not out.exists()


def test_bundled_fixture_files_exist():
    for name in ("edge_case_reports.jsonl", "edge_case_gold.csv",
                 "edge_case_responses.tsv"):
        assert data_file(name).exists()


def test_classifier_pipeline_chain(tmp_path, capsys):
    from normcharts.synthcorpus import synth_reports

    reports, labels = synth_reports(seed=2, n=300, abnormal_fraction=0.92)
    reports_path = tmp_path / "reports.jsonl"
    with open(reports_path, "w") as f:
        for r in reports:
            f.write(json.dumps({
                "id": r.id, "text": r.raw_text, "exam_year": r.exam_year,
                "site": r.site, "age_days": r.age_days, "sex": r.sex.value,
                "procedure_description": r.procedure_description,
            }) + "\n")
    labels_path = tmp_path / "labels.csv"
    with open(labels_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["report_id", "label"])
        for rid, lab in labels.items():
            w.writerow([rid, lab.value])

    split_path = tmp_path / "split.csv"
    assert main(["split", "--reports", str(reports_path), "--labels",
                 str(labels_path), "--seed", "1", "--out", str(split_path)]) == 0
    with open(split_path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 300
    assert {r["subset"] for r in rows} == {"Train", "Val", "Test"}

    model_path = tmp_path / "model.bin"
    assert main(["train", "--reports", str(reports_path), "--labels",
                 str(labels_path), "--split", str(split_path), "--seed", "1",
                 "--epochs", "5", "--out", str(model_path)]) == 0

    eval_path = tmp_path / "eval.csv"
    assert main(["eval", "--model", str(model_path), "--reports",
                 str(reports_path), "--labels", str(labels_path), "--split",
                 str(split_path), "--out", str(eval_path)]) == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out
    rows = read_metrics(eval_path)
    assert {r["metric"] for r in rows} == {
        "accuracy", "sensitivity", "specificity", "precision", "f1",
    }


def test_triage_command_replays_fixture(tmp_path, capsys):
    out = tmp_path / "triage.csv"
    rc = main([
        "triage",
        "--reports", str(data_file("edge_case_reports.jsonl")),
        "--mode", "stepwise",
        "--fixture", str(data_file("edge_case_responses.tsv")),
        "--gold", str(data_file("edge_case_gold.csv")),
        "--out", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "accuracy: 0.7561" in printed
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 41
    assert set(rows[0]) == {"report_id", "Q1", "Q2", "Q3", "Q4", "Q5", "label"}


def test_cli_import_leaves_out_scipy_and_requests(tmp_path):
    # Each command starts a fresh interpreter, so import time is paid per command.
    # numpy.random is left out too, where a bare `import numpy` leaves it out
    # (numpy 1.24 imports it eagerly): only the growth fit's restarts and the
    # synthetic cohort draw random numbers.
    script = textwrap.dedent(f"""
        import sys
        import numpy
        random_with_numpy = "numpy.random" in sys.modules
        from normcharts.cli import main
        from normcharts.experiments import data_file
        loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "requests", "logging"))
        assert not loaded, loaded
        assert random_with_numpy or "numpy.random" not in sys.modules
        rc = main(["triage", "--reports", str(data_file("edge_case_reports.jsonl")),
                   "--mode", "stepwise", "--fixture", str(data_file("edge_case_responses.tsv")),
                   "--out", {str(tmp_path / "triage.csv")!r}])
        assert rc == 0, rc
        loaded = sorted({{"scipy.optimize", "requests", "urllib.request"}} & set(sys.modules))
        assert not loaded, loaded
    """)
    src = str(Path(normcharts.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_scoring_commands_leave_out_scipy(tmp_path):
    # the incomplete gamma, its inverse and the growth fit's Newton solver are numpy code
    from normcharts.experiments import _default_truth
    from normcharts.phenotype import write_phenotype_csv
    from normcharts.synthcorpus import synth_cohort

    phenotypes, model = str(tmp_path / "p.csv"), str(tmp_path / "gm.json")
    write_phenotype_csv(phenotypes, synth_cohort(seed=3, n_sessions=60,
                                                 truth=_default_truth(PipelineConfig(n_scanners=2))))
    Path(model).write_text(json.dumps(GOOD_GROWTH_MODEL))
    script = textwrap.dedent(f"""
        import sys
        from normcharts.cli import main
        for argv in (["aggregate", "--phenotypes", {phenotypes!r}, "--out", {str(tmp_path / "s.csv")!r}],
                     ["centiles", "--model", {model!r}, "--phenotypes", {phenotypes!r},
                      "--out", {str(tmp_path / "c.csv")!r}],
                     ["curves", "--model", {model!r}, "--out", {str(tmp_path / "curves.csv")!r}]):
            assert main(argv) == 0, argv
        import numpy as np
        from normcharts.growthchart import _trust_newton
        a, centre = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, 1.5])
        res = _trust_newton(lambda x: (0.5 * (x - centre) @ a @ (x - centre), a @ (x - centre), a),
                            np.array([0.0, 1.0]), gtol=0.0)
        assert res.success and np.allclose(res.x, centre), vars(res)
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
    """)
    src = str(Path(normcharts.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("case", ["bad_label", "missing_report", "uncertain_label"])
def test_triage_with_bad_gold_writes_nothing(tmp_path, capsys, case):
    gold = read_metrics(data_file("edge_case_gold.csv"))
    if case == "bad_label":
        gold[1]["label"] = "Weird"
    elif case == "uncertain_label":
        gold[0]["label"] = "Uncertain"
    else:
        del gold[1]
    bad = tmp_path / "gold.csv"
    _write_csv(bad, ["report_id", "label"], [[r["report_id"], r["label"]] for r in gold])
    out = tmp_path / "triage.csv"
    rc = main(["triage", "--reports", str(data_file("edge_case_reports.jsonl")),
               "--mode", "stepwise", "--fixture", str(data_file("edge_case_responses.tsv")),
               "--gold", str(bad), "--out", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: ") and captured.err.count("\n") == 1
    if case == "uncertain_label":
        assert gold[0]["report_id"] in captured.err
    assert not out.exists()


def test_triage_without_source_is_config_error(tmp_path):
    rc = main([
        "triage", "--reports", str(data_file("edge_case_reports.jsonl")),
        "--mode", "direct", "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 2


@pytest.mark.parametrize("column", ["report_id", "question_id", "response_text"])
def test_triage_fixture_without_a_column_is_schema_error(tmp_path, capsys, column):
    with open(data_file("edge_case_responses.tsv"), newline="") as f:
        rows = list(csv.reader(f, delimiter="\t"))
    drop = rows[0].index(column)
    fixture = tmp_path / "fixture.tsv"
    with open(fixture, "w", newline="") as f:
        csv.writer(f, delimiter="\t").writerows([r[:drop] + r[drop + 1:] for r in rows])
    out = tmp_path / "triage.csv"
    rc = main(["triage", "--reports", str(data_file("edge_case_reports.jsonl")),
               "--mode", "stepwise", "--fixture", str(fixture), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"data error: {fixture}:1: ") and column in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["repeated_row", "row_without_response_text"])
def test_triage_fixture_bad_row_is_schema_error_at_its_line(tmp_path, capsys, case):
    lines = data_file("edge_case_responses.tsv").read_text().splitlines()
    if case == "repeated_row":
        lines.insert(4, lines[2].split("\t", 2)[0] + "\t" + lines[2].split("\t", 2)[1] + "\tYes.")
    else:
        lines[4] = "\t".join(lines[4].split("\t")[:2])
    fixture = tmp_path / "fixture.tsv"
    fixture.write_text("\n".join(lines) + "\n")
    out = tmp_path / "triage.csv"
    rc = main(["triage", "--reports", str(data_file("edge_case_reports.jsonl")),
               "--mode", "stepwise", "--fixture", str(fixture), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {fixture}:5: ")
    assert ("repeated" if case == "repeated_row" else "expected 3 fields, got 2") in err
    assert err.count("\n") == 1 and not out.exists()


BAD_GRADES = "grades must be a non-empty list of 0, 1 or 2"


@pytest.mark.parametrize("line, message", [
    ('{"report_id": "a", "grades": [1e999]}', BAD_GRADES),
    ('{"report_id": "a", "grades": "22"}', BAD_GRADES),
    ('{"report_id": "a", "grades": [1.9, 1.9]}', BAD_GRADES),
    ('{"report_id": "a", "grades": [2.0, 2]}', BAD_GRADES),
    ('{"report_id": "a", "grades": [true, 2]}', BAD_GRADES),
    ('{"report_id": "a", "grades": []}', BAD_GRADES),
    ('{"report_id": "a", "grades": [3]}', BAD_GRADES),
    ('{"report_id": "a", "grades": 2}', BAD_GRADES),
    ('{"report_id": "a"}', BAD_GRADES),
    ('{"grades": [2]}', "missing key 'report_id'"),
    ('[2, 2]', "expected a JSON object"),
    ('{"report_id": "a", "grades": [2', "invalid JSON"),
])
def test_bad_annotation_line_is_data_error_at_its_line(tmp_path, capsys, line, message):
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text('{"report_id": "ok", "grades": [0, 1, 2]}\n' + line + "\n")
    out = tmp_path / "labels.csv"
    rc = main(["label", "--reports", str(data_file("edge_case_reports.jsonl")),
               "--annotations", str(annotations), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {annotations}:2: {message}")
    assert err.count("\n") == 1 and not out.exists()


def test_growth_pipeline_chain(tmp_path, capsys):
    from normcharts.experiments import _default_truth
    from normcharts.phenotype import write_phenotype_csv
    from normcharts.synthcorpus import synth_cohort

    cfg = PipelineConfig(n_scanners=5)
    records = synth_cohort(seed=4, n_sessions=120,
                           truth=_default_truth(cfg))
    ph_path = tmp_path / "phenotypes.csv"
    write_phenotype_csv(ph_path, records)

    qc_path = tmp_path / "qc.csv"
    assert main(["qc", "--phenotypes", str(ph_path), "--out", str(qc_path)]) == 0

    ses_path = tmp_path / "sessions.csv"
    assert main(["aggregate", "--phenotypes", str(ph_path),
                 "--out", str(ses_path)]) == 0

    model_path = tmp_path / "growth.json"
    assert main(["fit-growth", "--phenotypes", str(ph_path), "--region",
                 "vol_cortical_gm", "--fp1-only", "--no-sigma-age",
                 "--out", str(model_path)]) == 0

    cent_path = tmp_path / "centiles.csv"
    assert main(["centiles", "--model", str(model_path), "--phenotypes",
                 str(ph_path), "--out", str(cent_path)]) == 0

    curves_path = tmp_path / "curves.csv"
    assert main(["plot-data", "--model", str(model_path), "--points", "10",
                 "--out", str(curves_path)]) == 0
    with open(curves_path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 10
    assert list(rows[0]) == ["age_years", "p2.5", "p50", "p97.5"]

    capsys.readouterr()
    assert main(["compare", "--a", str(cent_path), "--b", str(cent_path)]) == 0
    assert "pearson_r: 1.000000" in capsys.readouterr().out


@pytest.mark.parametrize("damage", ["intact", "truncated", "padded", "bad_dimension", "trigrams",
                                    "nan_bias", "inf_bias", "nan_pos_weight", "inf_pos_weight"])
def test_eval_rejects_model_file_of_wrong_size(tmp_path, capsys, damage):
    import numpy as np

    from normcharts.classifier import _HEADER, FeatureConfig, LinearModel, save_model

    model_path = tmp_path / "model.bin"
    save_model(LinearModel(weights=np.zeros(1 << 10), bias=0.0,
                           config=FeatureConfig(dimension=1 << 10), pos_weight=10.0),
               model_path)
    blob = model_path.read_bytes()
    # consistent length, but a header dimension FeatureConfig rejects
    bad_dimension = _HEADER.pack(b"NCLM", 1, 1000, 1, 2, 1, 10.0) + bytes(8 * 1000 + 8)
    # the right length, but features of an n-gram range (1, 3) that featurize no longer builds
    trigrams = _HEADER.pack(b"NCLM", 1, 1 << 10, 1, 3, 1, 10.0) + blob[_HEADER.size:]
    # the trailing bias, or the header's pos_weight (its last 8 bytes), not finite
    def with_double(offset, value):
        return blob[:offset] + struct.pack("<d", value) + blob[offset + 8:]

    model_path.write_bytes({"intact": blob, "truncated": blob[:-1], "padded": blob + b"\0",
                            "bad_dimension": bad_dimension, "trigrams": trigrams,
                            "nan_bias": with_double(len(blob) - 8, math.nan),
                            "inf_bias": with_double(len(blob) - 8, -math.inf),
                            "nan_pos_weight": with_double(_HEADER.size - 8, math.nan),
                            "inf_pos_weight": with_double(_HEADER.size - 8, math.inf)}[damage])
    gold = data_file("edge_case_gold.csv")
    split_path = tmp_path / "split.csv"
    with open(split_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["report_id", "subset"])
        for row in read_metrics(gold):
            w.writerow([row["report_id"], "Test"])
    rc = main(["eval", "--model", str(model_path),
               "--reports", str(data_file("edge_case_reports.jsonl")),
               "--labels", str(gold), "--split", str(split_path),
               "--out", str(tmp_path / "eval.csv")])
    err = capsys.readouterr().err
    if damage == "intact":
        assert rc == 0
        return
    assert rc == 3
    assert err.count("\n") == 1
    assert err.startswith(f"data error: {model_path}: ") and "Traceback" not in err
    assert not (tmp_path / "eval.csv").exists()
    if damage == "trigrams":
        assert err == f"data error: {model_path}: n-gram range and case (1, 3, 1), expected (1, 2, 1)\n"


def test_eval_on_empty_subset_is_data_error(tmp_path, capsys):
    model_path = tmp_path / "model.bin"
    _zero_model(model_path)
    gold = data_file("edge_case_gold.csv")
    split_path = tmp_path / "split.csv"
    _write_csv(split_path, ["report_id", "subset"],
               [[row["report_id"], "Train"] for row in read_metrics(gold)])
    out = tmp_path / "eval.csv"
    rc = main(["eval", "--model", str(model_path),
               "--reports", str(data_file("edge_case_reports.jsonl")),
               "--labels", str(gold), "--split", str(split_path),
               "--subset", "Test", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "data error: empty evaluation\n"
    assert not out.exists()


@pytest.mark.parametrize("points", ["1", "0", "-3"])
def test_curves_rejects_fewer_than_two_points(tmp_path, capsys, points):
    rc = main(["curves", "--model", str(tmp_path / "absent.json"),
               "--points", points, "--out", str(tmp_path / "curves.csv")])
    assert rc == 2
    assert "--points" in capsys.readouterr().err
    assert not (tmp_path / "curves.csv").exists()


@pytest.mark.parametrize("flag", ["--age-min", "--age-max"])
@pytest.mark.parametrize("age", ["nan", "inf", "0", "-1"])
def test_curves_rejects_non_positive_or_non_finite_ages(tmp_path, capsys, flag, age):
    out = tmp_path / "curves.csv"
    rc = main(["curves", "--model", str(tmp_path / "absent.json"), flag, age, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"config error: {flag} must be a positive finite age")
    assert not out.exists()


@pytest.mark.parametrize("age_min, age_max", [("5", "1"), ("5", "5")])
def test_curves_rejects_ages_that_do_not_rise(tmp_path, capsys, age_min, age_max):
    # the model is absent: the ages are checked before it is read
    out = tmp_path / "curves.csv"
    rc = main(["curves", "--model", str(tmp_path / "absent.json"), "--age-min", age_min,
               "--age-max", age_max, "--points", "3", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"config error: --age-min must be below --age-max, got {float(age_min)} and {float(age_max)}\n"
    )
    assert not out.exists()


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


@pytest.mark.parametrize("case", [
    "unknown_label", "missing_label_column", "unknown_subset",
    "non_numeric_centile", "missing_centile_column", "nan_centile", "centile_above_one",
    "repeated_label", "repeated_subset", "repeated_centile",
])
def test_bad_csv_maps_are_data_errors(tmp_path, capsys, case):
    reports = str(data_file("edge_case_reports.jsonl"))
    gold = str(data_file("edge_case_gold.csv"))
    bad = tmp_path / "bad.csv"
    good = tmp_path / "good.csv"
    _write_csv(good, ["session_id", "centile"], [[f"s{i}", "0.5"] for i in range(4)])
    if case == "unknown_label":
        _write_csv(bad, ["report_id", "label"], [["r1", "Normal"], ["r2", "Weird"]])
        argv = ["split", "--reports", reports, "--labels", str(bad), "--out", str(tmp_path / "s.csv")]
    elif case == "missing_label_column":
        _write_csv(bad, ["report_id", "grade"], [["r1", "Normal"]])
        argv = ["split", "--reports", reports, "--labels", str(bad), "--out", str(tmp_path / "s.csv")]
    elif case == "unknown_subset":
        _write_csv(bad, ["report_id", "subset"], [["r1", "Train"], ["r2", "Dev"]])
        argv = ["train", "--reports", reports, "--labels", gold, "--split", str(bad),
                "--out", str(tmp_path / "m.bin")]
    elif case == "non_numeric_centile":
        _write_csv(bad, ["session_id", "centile"], [["s0", "0.1"], ["s1", "x"]])
        argv = ["compare", "--a", str(good), "--b", str(bad)]
    elif case == "nan_centile":
        _write_csv(bad, ["session_id", "centile"], [["s0", "0.1"], ["s1", "nan"]])
        argv = ["compare", "--a", str(good), "--b", str(bad)]
    elif case == "centile_above_one":
        _write_csv(bad, ["session_id", "centile"], [["s0", "0.1"], ["s1", "1.5"]])
        argv = ["compare", "--a", str(bad), "--b", str(good)]
    elif case == "repeated_label":
        _write_csv(bad, ["report_id", "label"], [["r1", "Normal"], ["r1", "Abnormal"]])
        argv = ["split", "--reports", reports, "--labels", str(bad), "--out", str(tmp_path / "s.csv")]
    elif case == "repeated_subset":
        _write_csv(bad, ["report_id", "subset"], [["r1", "Train"], ["r1", "Test"]])
        argv = ["train", "--reports", reports, "--labels", gold, "--split", str(bad),
                "--out", str(tmp_path / "m.bin")]
    elif case == "repeated_centile":
        _write_csv(bad, ["session_id", "centile"], [["s0", "0.1"], ["s0", "0.1"]])
        argv = ["compare", "--a", str(good), "--b", str(bad)]
    else:
        _write_csv(bad, ["session_id", "score"], [["s0", "0.1"]])
        argv = ["compare", "--a", str(bad), "--b", str(good)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    line = 1 if case.startswith("missing") else 3
    assert err.startswith(f"data error: {bad}:{line}: ")
    if case.startswith("repeated"):
        assert "repeated" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b_centiles, message", [
    (["0.5", "0.5", "0.5"], "Pearson r is "),
    (["0", "2e-160", "1e-160"], "Pearson r is "),
    (["0", "1e-160"], "only 2 shared sessions between the two files\n"),
], ids=["zero_variance", "underflow", "two_shared"])
def test_compare_without_a_finite_r_is_a_data_error(tmp_path, capsys, b_centiles, message):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_csv(a, ["session_id", "centile"], [["s0", "0"], ["s1", "1e-160"], ["s2", "2e-160"]])
    _write_csv(b, ["session_id", "centile"], [[f"s{i}", c] for i, c in enumerate(b_centiles)])
    assert main(["compare", "--a", str(a), "--b", str(b)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"data error: {message}") and captured.err.count("\n") == 1


def test_unknown_region_is_config_error_without_run_dir(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[growth]\nregion = vol_nope\n")
    with pytest.raises(ConfigError, match="vol_nope"):
        load_config(str(cfg_path))
    out = tmp_path / "runs"
    rc = main(["run-experiment", "exp6_growthcharts", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "vol_nope" in err
    assert not out.exists()


def test_ini_sections_cover_every_config_field():
    from dataclasses import fields

    # every field names its section, and the fields come in config.ini's order
    sections = [f.metadata["section"] for f in fields(PipelineConfig)]
    assert sections == ["paths"] * 6 + ["train"] * 9 + ["growth"] * 6


# Settings that used to fail only once a run was under way (a numerical
# failure, or a ZeroDivisionError for n_scanners = 0), or were accepted.
BAD_SETTINGS = [
    ("train", "dimension = 1000", "dimension"),
    ("train", "epochs = 0", "epochs"),
    ("train", "pos_weight = -1", "pos_weight"),
    ("train", "pos_weight = inf", "pos_weight"),
    ("train", "learning_rate = nan", "learning_rate"),
    ("train", "learning_rate = -50", "learning_rate"),
    ("train", "synth_n = 0", "synth_n"),
    ("train", "abnormal_fraction = 2", "abnormal_fraction"),
    ("growth", "n_sessions = 0", "n_sessions"),
    ("growth", "n_scanners = 0", "n_scanners"),
    ("growth", "ridge_lambda = -5", "ridge_lambda"),
    ("growth", "ridge_lambda = nan", "ridge_lambda"),
    ("growth", "ridge_lambda = 1e308", "ridge_lambda"),
    ("train", "seeds = 3,3", "seeds"),
    ("train", "seeds = -1,18446744073709551615", "seeds"),
]


@pytest.mark.parametrize("section, line, name", BAD_SETTINGS)
@pytest.mark.parametrize("experiment", ["exp2_weighted", "exp6_growthcharts"])
def test_bad_setting_exits_2_without_run_dir(tmp_path, capsys, section, line, name, experiment):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(f"[{section}]\n{line}\n")
    out = tmp_path / "runs"
    rc = main(["run-experiment", experiment, "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and name in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_dimension_with_no_room_for_its_weights_exits_2(tmp_path, capsys):
    # 2^48 doubles (2 PiB) exceed the user address space, so the allocation
    # of the weights fails at once and touches no memory
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[train]\ndimension = 281474976710656\nsynth_n = 60\nseeds = 1\nepochs = 1\n")
    out = tmp_path / "runs"
    rc = main(["run-experiment", "exp2_weighted", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: dimension 281474976710656")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(out.iterdir()) == []


def _all_reports_in(tmp_path, subset):
    """A split file that puts every edge-case report in `subset`."""
    split = tmp_path / "split.csv"
    _write_csv(split, ["report_id", "subset"],
               [[row["report_id"], subset] for row in read_metrics(data_file("edge_case_gold.csv"))])
    return str(split)


@pytest.mark.parametrize("flags", [["--epochs", "0"], ["--pos-weight", "-1"], ["--learning-rate", "inf"]])
def test_train_with_a_bad_setting_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "m.bin"
    rc = main(["train", "--reports", str(data_file("edge_case_reports.jsonl")),
               "--labels", str(data_file("edge_case_gold.csv")), "--split", _all_reports_in(tmp_path, "Train"),
               "--out", str(out), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and flags[0].lstrip("-").replace("-", "_") in err
    assert err.count("\n") == 1 and not out.exists()


def _cli_in_fresh_interpreter(*argv):
    """The CLI in a fresh interpreter, so that a numpy warning reaches stderr as a user sees it."""
    src = str(Path(normcharts.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "normcharts.cli", *argv], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("case", ["learning_rate", "pos_weight", "run_experiment"])
def test_training_that_overflows_fails_in_one_line(tmp_path, case):
    # the weights or the weighted loss overflow; numpy's warnings are not printed
    out = tmp_path / "m.bin"
    if case == "run_experiment":
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[train]\nlearning_rate = 1e308\nsynth_n = 200\nseeds = 1\n")
        out = tmp_path / "runs"
        argv = ["run-experiment", "exp2_weighted", "--config", str(cfg_path), "--out", str(out)]
    else:
        argv = ["train", "--reports", str(data_file("edge_case_reports.jsonl")),
                "--labels", str(data_file("edge_case_gold.csv")), "--split", _all_reports_in(tmp_path, "Train"),
                "--out", str(out), f"--{case.replace('_', '-')}", "1e308"]
    result = _cli_in_fresh_interpreter(*argv)
    assert result.returncode == 4
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: non-finite loss "), result.stderr
    assert not out.exists() or list(out.iterdir()) == []


def test_eval_of_a_model_whose_margins_overflow_fails_in_one_line(tmp_path):
    import numpy as np

    from normcharts.classifier import FeatureConfig, LinearModel, save_model

    # finite weights whose sums over a report's n-grams are +-inf or nan
    model_path = tmp_path / "model.bin"
    weights = np.where(np.arange(1 << 10) % 2 == 0, 1e308, -1e308)
    save_model(LinearModel(weights=weights, bias=0.0, config=FeatureConfig(dimension=1 << 10), pos_weight=10.0),
               model_path)
    out = tmp_path / "eval.csv"
    reports = data_file("edge_case_reports.jsonl")
    result = _cli_in_fresh_interpreter(
        "eval", "--model", str(model_path), "--reports", str(reports),
        "--labels", str(data_file("edge_case_gold.csv")), "--split", _all_reports_in(tmp_path, "Test"),
        "--out", str(out))
    assert result.returncode == 4
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    # the report is named by its id in the file, not by its index in the scored subset
    expected = f"numerical failure: {reports}: report 'edge-01' has non-finite margin "
    assert len(lines) == 1 and lines[0].startswith(expected), result.stderr
    assert not out.exists()


def test_percent_signs_are_kept_in_config_ini(tmp_path, capsys, monkeypatch):
    # config.ini has no % interpolation: a path is read back as written
    monkeypatch.chdir(tmp_path)
    assert main(["run-experiment", "exp5_stepwise", "--out", "runs%1"]) == 0
    run_dir = next((tmp_path / "runs%1").iterdir())
    assert load_config(str(run_dir / "config.ini")) == PipelineConfig(out_dir="runs%1")
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[paths]\nreports = my%20reports.jsonl\nout_dir = %(here)s\n")
    cfg = load_config(str(cfg_path))
    assert (cfg.reports_path, cfg.out_dir) == ("my%20reports.jsonl", "%(here)s")


# A path or site: no blank at either end (configparser strips them) and no
# line break; "%" and "$" included.
_INI_TEXT = st.text(alphabet="abcXYZ019/._-%${}() ", min_size=1, max_size=12).map(str.strip).filter(bool)


@settings(max_examples=60, deadline=None)
@given(
    paths=st.fixed_dictionaries({
        name: st.none() | _INI_TEXT
        for name in ("reports_path", "annotations_path", "phenotypes_path", "fixture_path", "gold_path")
    }),
    out_dir=_INI_TEXT,
    seeds=st.lists(st.integers(-(2**63), 2**64), min_size=1, max_size=5,
                   unique_by=lambda s: s % 2**64).map(tuple),
    pos_weight=st.floats(min_value=1e-300, max_value=1e300),
    epochs=st.integers(1, 10**6),
    learning_rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    dimension=st.sampled_from([1 << k for k in range(10, 49)]),
    cutoff_year=st.integers(-3000, 3000),
    holdout_site=st.none() | _INI_TEXT,
    synth_n=st.integers(1, 10**6),
    abnormal_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    n_sessions=st.integers(1, 10**6),
    n_scanners=st.integers(1, 1000),
    ridge_lambda=st.floats(min_value=0.0, max_value=1e300),
    sigma_age=st.booleans(),
    fp1_only=st.booleans(),
    region=st.sampled_from(["vol_cortical_gm", "vol_ventricles", "vol_tiv"]),
)
def test_config_ini_round_trip_property(tmp_path_factory, paths, **values):
    cfg = PipelineConfig(**paths, **values)
    path = tmp_path_factory.mktemp("ini") / "cfg.ini"
    path.write_text(cfg.to_ini())
    assert load_config(str(path)) == cfg


def test_run_experiment_rejects_unknown_name():
    with pytest.raises(ConfigError):
        run_experiment("exp0_nope", PipelineConfig())


def test_exp5_metrics_values(tmp_path):
    cfg = PipelineConfig(out_dir=str(tmp_path))
    run_dir = run_experiment("exp5_stepwise", cfg, timestamp="t0")
    assert run_dir == tmp_path / "exp5_stepwise-t0"
    assert (run_dir / "config.ini").exists()
    rows = read_metrics(run_dir / "metrics.csv")
    by_key = {(r["model"], r["metric"]): float(r["value"]) for r in rows}
    assert by_key[("stepwise", "accuracy")] == pytest.approx(31 / 41, abs=1e-6)
    assert by_key[("direct", "accuracy")] == pytest.approx(25 / 41, abs=1e-6)


def test_runs_are_byte_identical(tmp_path):
    cfg_a = PipelineConfig(out_dir=str(tmp_path / "a"), seeds=(3,),
                           synth_n=400, epochs=5)
    cfg_b = PipelineConfig(out_dir=str(tmp_path / "b"), seeds=(3,),
                           synth_n=400, epochs=5)
    dir_a = run_experiment("exp1_balanced", cfg_a, timestamp="t0")
    dir_b = run_experiment("exp1_balanced", cfg_b, timestamp="t0")
    assert (dir_a / "metrics.csv").read_bytes() == (dir_b / "metrics.csv").read_bytes()
    assert (dir_a / "model-seed3.bin").read_bytes() == (dir_b / "model-seed3.bin").read_bytes()


def test_same_stamp_runs_get_their_own_directories(tmp_path):
    cfg = PipelineConfig(out_dir=str(tmp_path))
    runs = [run_experiment("exp5_stepwise", cfg, timestamp="t0") for _ in range(3)]
    assert runs == [tmp_path / name for name in ("exp5_stepwise-t0", "exp5_stepwise-t0-1",
                                                  "exp5_stepwise-t0-2")]
    assert len({(run / "metrics.csv").read_bytes() for run in runs}) == 1


def test_out_that_is_a_dangling_link_is_config_error(tmp_path, capsys):
    out = tmp_path / "runs"
    out.symlink_to(tmp_path / "missing")
    assert main(["run-experiment", "exp5_stepwise", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs"]


def _fail_after(real, error):
    """`real`, which then raises `error`: the step's own output is written."""

    def step(*args, **kwargs):
        real(*args, **kwargs)
        raise error

    return step


# A step in the middle of each kind of protocol, the error it raises, and the
# exit code and stderr prefix of that error.
MID_PROTOCOL_FAILURES = {
    "exp2_weighted": ("classifier", "save_model", PermissionError("denied"), 2, "config error: "),
    "exp5_stepwise": ("stepwise", "evaluate_inquiry", DataError("no gold"), 3, "data error: "),
    "exp6_growthcharts": ("growthchart", "save_growth_model", NumericalError("nan"), 4,
                          "numerical failure: "),
}


@pytest.mark.parametrize("name", sorted(MID_PROTOCOL_FAILURES))
def test_a_failed_run_leaves_no_run_directory(tmp_path, capsys, monkeypatch, name):
    module, attr, error, code, prefix = MID_PROTOCOL_FAILURES[name]
    module = importlib.import_module(f"normcharts.{module}")
    monkeypatch.setattr(module, attr, _fail_after(getattr(module, attr), error))
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[train]\nsynth_n = 400\ndimension = 4096\n[growth]\nn_sessions = 300\n")
    out = tmp_path / "runs"
    rc = main(["run-experiment", name, "--config", str(cfg_path), "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (code, "", f"{prefix}{error}\n")
    assert list(out.iterdir()) == []


def test_exp6_with_a_phenotype_csv_without_columns_leaves_no_run_directory(tmp_path, capsys):
    phenotypes = tmp_path / "phenotypes.csv"
    phenotypes.write_text("session_id,age_days\ns1,100\n")
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(f"[paths]\nphenotypes = {phenotypes}\n")
    out = tmp_path / "runs"
    assert main(["run-experiment", "exp6_growthcharts", "--config", str(cfg_path),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {phenotypes}:1: missing columns ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


def _sha256s(run_dir, names):
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in names}


# Run with the default relative out_dir from inside tmp_path, so config.ini
# (which echoes out_dir) has the same bytes on every machine.
SMALL = {"seeds": (1, 2), "synth_n": 400, "dimension": 1 << 12}
# re-recorded when the unread [llm] section was dropped from config.ini
SMALL_CONFIG_INI = "2cbb0c83c05497b96e33779b4dc279166394d9d458e195c5a50b58b5b0350fec"

# sha256 of the artifacts below, recorded from the scalar-loop classifier; any
# change to hashing, the design matrix or the SGD arithmetic shows up here.
GOLDEN_EXP2 = {
    "metrics.csv": "8cebc2c482df82d05db4f3e9f473f224ba01553c0f84447839fb2588c780a141",
    "model-seed1.bin": "0f7350aa3d1f8a2547fd0ec076089b06ff9e54fc7fe8231774150f8a1d6c95a3",
    "model-seed2.bin": "4d35ca8c20361236117a83cf7a90c28e3ffe518b3465f459ee35ae206465d962",
    "config.ini": SMALL_CONFIG_INI,
}


def test_exp2_weighted_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_dir = run_experiment("exp2_weighted", PipelineConfig(**SMALL, epochs=20), timestamp="t0")
    assert _sha256s(run_dir, GOLDEN_EXP2) == GOLDEN_EXP2


# sha256 of every other protocol's artifacts, recorded before the experiment
# code in cli.py was folded into shared helpers. exp6's curves.csv and model
# files were re-recorded when the growth fit moved to standardized design
# columns, and again when each candidate's cold start became a trust-region
# Newton fit, each of which changes the fitted coefficients in their last digits.
# growth-model-b.json alone was re-recorded on 2026-10-20, when model B began
# each candidate at model A's optimum (its BIC moved by 1.5e-11, nu by 2e-9).
GOLDEN = {
    "exp1_balanced": (SMALL, {
        "metrics.csv": "bd0314a3286eecb1837eef9014783cc0572241ef01503bddafcbb953a17eac8d",
        "model-seed1.bin": "540f7c3b3a8c7c8e2d1561566ccd206ca5b86522ce5991fd42d3e39fcda73dc6",
        "model-seed2.bin": "1b66c21f61fc12f8af07c5085dab2a1bc048f600b4f27bb704e901ca6791f164",
        "config.ini": SMALL_CONFIG_INI,
    }),
    "exp3_ood": (SMALL, {
        "metrics.csv": "9512578e0c0400a36709c40b41fc4cd33137736e58e3490209df323fc5ca5da9",
        "model-seed1.bin": "811b4905c0b42e339efc8dde2bd4224be279154531fb301cc69919d1cbbaae73",
        "model-seed2.bin": "0836dd278f343f759a22b6f81b009c388b30ceb4a44f3f9cdc109656f0d93dd4",
        "config.ini": SMALL_CONFIG_INI,
    }),
    "exp4_impression": (SMALL, {
        "metrics.csv": "1d6648093a84c4fa9b0dd513c03f494d66f26b3e5443a27e6feec1959497f771",
        "model-seed1.bin": "3faf563835d8e17c2ee39659e9569819a19a4dfc04b88bb223e7d9f88dfb3ffe",
        "model-seed2.bin": "039980d9bb39fbb559898436634907431d19f901cc631987bae5809ac1f65af4",
        "config.ini": SMALL_CONFIG_INI,
    }),
    "exp5_stepwise": ({}, {
        "triage-direct.csv": "64e6b8caf1dd4003e4fde3a678c1f4fba31607826dab1bf7c991e305a40a6e26",
        "triage-stepwise.csv": "2190b686cc5cb0836f44e5a0dabcca2a3ad23d822a59553abac9787232b55b21",
        "metrics.csv": "a24a15dcdf3759e340ceebbac0bb659a738f3c4cd6d695554688b6463b6b0b93",
    }),
    "exp6_growthcharts": ({"n_sessions": 300}, {
        "curves.csv": "ba71e934ea4c0bc12914c58aef06da84cfe8403560822e8bfc05e9198c6a822f",
        "attrition.json": "0db70083dbc161b012f7a9ffa6875544954b045a0c841cf1a63490ab923dd816",
        "growth-model-a.json": "87ecebdf630f4c49da93b6180a9e5c2a222cadc1278aa76419519c2290266983",
        "growth-model-b.json": "f7c5e1c066bb12342b3c98637388eb2133462ac89c49af7c8a3b4b41755ffaa1",
        "metrics.csv": "4eefe866ad2a890feca02c7727427022c265f6d7aa221a9cf518cfda225d43e7",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_protocol_golden_digests(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    overrides, expected = GOLDEN[name]
    run_dir = run_experiment(name, PipelineConfig(**overrides), timestamp="t0")
    assert _sha256s(run_dir, expected) == expected


def test_training_design_sorts_the_union_once(monkeypatch):
    import numpy as np

    from normcharts import classifier
    from normcharts.experiments import _training_design
    from normcharts.report_text import InputMode, compose_input
    from normcharts.synthcorpus import synth_reports

    sorts = []
    training_order = classifier.training_order
    monkeypatch.setattr(classifier, "training_order", lambda ex: sorts.append(len(ex)) or training_order(ex))
    pool, labels = synth_reports(seed=0, n=300, abnormal_fraction=0.9)
    fcfg = classifier.FeatureConfig(dimension=1 << 12)
    ids = [r.id for r in pool]
    X, y, masks = _training_design("r.jsonl", pool, [ids[:200], ids[100:]], labels, InputMode.FULL_REPORT, fcfg)
    assert len(sorts) == 1
    # the same rows as design sorting the union itself
    known = [r for r in pool if labels.get(r.id) in (Label.NORMAL, Label.ABNORMAL)]
    own_X, own_y = classifier.design([(compose_input(r, InputMode.FULL_REPORT), labels[r.id]) for r in known], fcfg)
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(X, field), getattr(own_X, field)), field
    assert np.array_equal(y, own_y) and (masks[0] | masks[1]).all()


@pytest.mark.parametrize("name", ["exp1_balanced", "exp2_weighted", "exp4_impression"])
def test_each_seed_trains_on_its_own_rows_of_one_design(tmp_path, monkeypatch, name):
    import numpy as np

    from normcharts import classifier, corpus
    from normcharts.report_text import InputMode, compose_input
    from normcharts.synthcorpus import synth_reports

    fits, featurized = [], []
    train, featurize = classifier.train, classifier.featurize
    monkeypatch.setattr(classifier, "train", lambda X, y, cfg: fits.append((X, y)) or train(X, y, cfg))
    monkeypatch.setattr(classifier, "featurize", lambda texts, f: featurized.append(len(texts)) or featurize(texts, f))
    seeds, fcfg = (1, 2, 3), classifier.FeatureConfig(dimension=1 << 12)
    cfg = PipelineConfig(out_dir=str(tmp_path), seeds=seeds, synth_n=400, dimension=fcfg.dimension, epochs=1)
    run_experiment(name, cfg, timestamp="t0")

    pool, labels = synth_reports(seed=0, n=400, abnormal_fraction=0.92)
    mode = InputMode.IMPRESSION_ONLY if name == "exp4_impression" else InputMode.FULL_REPORT
    union = set()
    for seed, (X, y) in zip(seeds, fits, strict=True):
        train_ids = corpus.split(pool, seed, labels=labels).ids(corpus.Subset.TRAIN)
        if name == "exp1_balanced":
            train_ids = corpus.balance(train_ids, labels, seed)
        chosen = [r for r in pool if r.id in set(train_ids) and labels.get(r.id) in (Label.NORMAL, Label.ABNORMAL)]
        union.update(r.id for r in chosen)
        # the seed's own texts in train's canonical order
        examples = sorted(((compose_input(r, mode), labels[r.id]) for r in chosen), key=lambda e: (e[0], e[1].value))
        own = featurize([text for text, _ in examples], fcfg)
        assert (X.data.dtype, X.indices.dtype) == (np.uint8, np.int32)
        assert X.shape == own.shape
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(X, field), getattr(own, field)), field
        assert y.tolist() == [1.0 if label is Label.NORMAL else 0.0 for _, label in examples]
    # one featurize call for every seed's training reports; the others score test blocks
    assert featurized[0] == len(union)
    assert len(featurized) == 1 + len(seeds) and max(featurized[1:]) <= classifier._SCORE_BLOCK


# Each case gives reports that fall in the named subsets of seeds 1 and 2 a
# text, and runs the protocol.  A run splits every seed, then (exp1) balances
# every seed, in seed order; then checks the training inputs of all seeds
# together (composing, in corpus order, then the class check, then texts with
# no tokens, in training_order); then trains and scores seed by seed.  It fails
# on the first error it meets and leaves no run directory.
_T, _V, _E = "Train", "Val", "Test"
SEED_ERROR_CASES = {
    "tokenless_in_seed2_train": ("exp2_weighted", {(_V, _T): "!!! ..."},
                                 "{reports}: report 'r007' has no tokens after normalization"),
    "tokenless_in_seed1_test_first": ("exp2_weighted", {(_E, _E): "!!! ...", (_V, _T): "!!! ..."},
                                      "{reports}: report 'r007' has no tokens after normalization"),
    "no_impression_in_seed2_train": ("exp4_impression", {(_V, _T): "FINDINGS: new mass"},
                                     "{reports}: report 'r007' has no impression or preamble text"),
    # a tokenless report in no training or test set raises nothing
    "tokenless_in_val_only": ("exp2_weighted", {(_V, _V): "!!! ..."}, None),
}


def _run_with_edits(tmp_path, name, edits):
    """Run `name` on seeds 1 and 2 over 100 reports, `edits` applied: the exit code, the out
    dir and the reports file."""
    from normcharts import corpus
    from normcharts.report_text import load_reports_jsonl

    texts = {f"r{i:03d}": f"new mass number {i}" if i % 2 else f"unremarkable study {i}" for i in range(100)}
    reports = tmp_path / "reports.jsonl"
    _write_jsonl(reports, [{"id": rid, "text": text} for rid, text in texts.items()])
    annotations = tmp_path / "annotations.jsonl"
    _write_jsonl(annotations, [{"report_id": rid, "grades": [0, 0, 0] if i % 2 else [2, 2, 2]}
                               for i, rid in enumerate(texts)])
    pool = load_reports_jsonl(reports)
    labels = {r.id: Label.ABNORMAL if int(r.id[1:]) % 2 else Label.NORMAL for r in pool}
    subsets = [corpus.split(pool, seed, labels=labels).assignment for seed in (1, 2)]
    for (first, second), text in edits.items():
        rid = next(rid for rid in sorted(texts) if (subsets[0][rid].value, subsets[1][rid].value) == (first, second))
        texts[rid] = text
    _write_jsonl(reports, [{"id": rid, "text": text} for rid, text in texts.items()])
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[paths]\nreports = {reports}\nannotations = {annotations}\n"
                   "[train]\nseeds = 1,2\nepochs = 2\n")
    out = tmp_path / "runs"
    return main(["run-experiment", name, "--config", str(cfg), "--out", str(out)]), out, reports


@pytest.mark.parametrize("case", sorted(SEED_ERROR_CASES))
def test_first_error_over_seeds_is_named(tmp_path, capsys, case):
    name, edits, error = SEED_ERROR_CASES[case]
    rc, out, reports = _run_with_edits(tmp_path, name, edits)
    err = capsys.readouterr().err
    if error is None:
        assert (rc, err, len(list(out.iterdir()))) == (0, "", 1)
    else:
        assert (rc, err) == (3, f"data error: {error.format(reports=reports)}\n")
        assert list(out.iterdir()) == []


def test_a_bad_training_input_fails_before_any_seed_trains(tmp_path, monkeypatch, capsys):
    from normcharts import classifier

    fits = []
    train = classifier.train
    monkeypatch.setattr(classifier, "train", lambda X, y, cfg: fits.append(cfg.seed) or train(X, y, cfg))
    # a tokenless report in seed 2's training set only: seed 1 has nothing wrong
    rc, out, _ = _run_with_edits(tmp_path, "exp2_weighted", {(_V, _T): "!!! ..."})
    assert (rc, len(fits), list(out.iterdir())) == (3, 0, [])
    assert "report 'r007' has no tokens" in capsys.readouterr().err


def test_exp6_warns_once_per_model_that_did_not_converge(tmp_path, monkeypatch, caplog):
    from normcharts import growthchart

    overrides, expected = GOLDEN["exp6_growthcharts"]
    monkeypatch.chdir(tmp_path)
    with caplog.at_level("WARNING"):
        run_experiment("exp6_growthcharts", PipelineConfig(**overrides), timestamp="t0")
    assert caplog.records == []

    # one start per candidate, the cold one that converges above, now reported unconverged
    monkeypatch.setattr(growthchart, "_NU_STARTS", (1.0,))
    newton = growthchart._trust_newton

    def unconverged(*args, **kwargs):
        res = newton(*args, **kwargs)
        res.success = False
        return res

    monkeypatch.setattr(growthchart, "_trust_newton", unconverged)
    with caplog.at_level("WARNING"):
        run_dir = run_experiment("exp6_growthcharts", PipelineConfig(**overrides), timestamp="t1")
    region = PipelineConfig(**overrides).region
    assert [r.getMessage() for r in caplog.records] == [
        f"growth model {tag} for {region} did not converge (FP powers 0.5)" for tag in "AB"
    ]
    assert all(r.levelname == "WARNING" for r in caplog.records)
    for tag in "ab":
        assert json.loads((run_dir / f"growth-model-{tag}.json").read_text())["converged"] is False
    # the flag is the only change: every other artifact keeps its golden bytes
    others = {k: v for k, v in expected.items() if not k.startswith("growth-model-")}
    assert _sha256s(run_dir, others) == others


def test_exp6_draws_the_cohort_of_the_seed_modulo_2_64(tmp_path, capsys):
    """--seed -1 and [train] seeds = 2^64 - 1 draw the same cohort: a seed is
    taken modulo 2^64, as the report splits take it."""
    artifacts = ["attrition.json", "growth-model-a.json", "growth-model-b.json", "curves.csv"]
    runs = {
        "neg": ("", ["--seed", "-1"]),
        "max": ("[train]\nseeds = 18446744073709551615\n", []),
    }
    digests = []
    for name, (seeds, flags) in runs.items():
        cfg_path = tmp_path / f"{name}.ini"
        cfg_path.write_text(f"[growth]\nn_sessions = 60\n{seeds}")
        out = tmp_path / name
        rc = main(["run-experiment", "exp6_growthcharts", "--config", str(cfg_path),
                   "--out", str(out), *flags])
        assert rc == 0, capsys.readouterr().err
        (run_dir,) = out.iterdir()
        digests.append(_sha256s(run_dir, artifacts))
    assert digests[0] == digests[1]


# Selected location powers and BIC of both exp6 models, recorded from the fit
# that ran three cold L-BFGS starts per candidate on the raw design. A fit may
# change the coefficients' last digits but must keep the basis and may not
# end at a worse BIC.
EXP6_REFERENCE = {
    "fp1_300": ({"n_sessions": 300}, {
        "a": ([0.5], 6766.841411405923),
        "b": ([0.5], 6770.0389656764655),
    }),
    "full_search_2000": ({"n_sessions": 2000, "fp1_only": False}, {
        "a": ([0.5], 45343.458335383846),
        "b": ([0.5], 45379.002921919695),
    }),
}


@pytest.mark.parametrize("name", sorted(EXP6_REFERENCE))
def test_exp6_keeps_basis_and_bic(tmp_path, name):
    overrides, reference = EXP6_REFERENCE[name]
    cfg = PipelineConfig(out_dir=str(tmp_path), **overrides)
    run_dir = run_experiment("exp6_growthcharts", cfg, timestamp="t0")
    for tag, (powers, bic) in reference.items():
        doc = json.loads((run_dir / f"growth-model-{tag}.json").read_text())
        assert doc["fp_mu"]["powers"] == powers
        assert doc["converged"] is True
        assert doc["bic"] <= bic + 1e-6


@pytest.mark.parametrize("name", sorted(EXP6_REFERENCE))
def test_exp6_warm_b_ends_at_cold_b_bic_or_lower(tmp_path, monkeypatch, name):
    from normcharts import growthchart

    fits, real = [], growthchart.fit

    def recording(*args):
        fits.append((args, real(*args)))
        return fits[-1][1]

    monkeypatch.setattr(growthchart, "fit", recording)
    overrides, _ = EXP6_REFERENCE[name]
    run_experiment("exp6_growthcharts", PipelineConfig(out_dir=str(tmp_path), **overrides), timestamp="t0")
    (_, a), (args, b) = fits
    assert args[3] is a.search
    cold = real(*args[:3])
    assert b.fp_mu == cold.fp_mu
    for warm, record in zip(b.search, cold.search, strict=True):
        assert warm.start == "warm" and warm.model.converged
        assert warm.model.bic <= record.model.bic + 1e-6
    assert sum(r.nit for r in b.search) < sum(r.nit for r in cold.search)


# config.ini of a config with every field away from its default, recorded
# before to_ini/load_config were derived from the dataclass fields; the [llm]
# section was removed when its two unread fields were dropped.
FULL_CONFIG_INI = """\
[paths]
reports = r.jsonl
annotations = a.jsonl
phenotypes = p.csv
fixture = f.tsv
gold = g.csv
out_dir = out

[train]
seeds = 7,8
pos_weight = 2.5
epochs = 3
learning_rate = 0.25
dimension = 4096
cutoff_year = 2016
holdout_site = site-B
synth_n = 90
abnormal_fraction = 0.5

[growth]
n_sessions = 60
n_scanners = 3
ridge_lambda = 0.5
sigma_age = False
fp1_only = False
region = vol_ventricles

"""


def test_config_ini_with_every_field_set(tmp_path):
    cfg = PipelineConfig(
        reports_path="r.jsonl", annotations_path="a.jsonl", phenotypes_path="p.csv",
        fixture_path="f.tsv", gold_path="g.csv", out_dir="out", seeds=(7, 8),
        pos_weight=2.5, epochs=3, learning_rate=0.25, dimension=1 << 12,
        cutoff_year=2016, holdout_site="site-B", synth_n=90, abnormal_fraction=0.5,
        n_sessions=60, n_scanners=3, ridge_lambda=0.5, sigma_age=False, fp1_only=False,
        region="vol_ventricles",
    )
    assert cfg.to_ini() == FULL_CONFIG_INI
    path = tmp_path / "cfg.ini"
    path.write_text(FULL_CONFIG_INI)
    assert load_config(str(path)) == cfg


def test_config_with_an_llm_section_still_runs(tmp_path, monkeypatch, capsys):
    # config.ini files written before the [llm] section was dropped still load
    cfg_path = tmp_path / "old.ini"
    cfg_path.write_text("[train]\nseeds = 1\n\n[llm]\nendpoint = http://localhost:1/x\nmodel = m\n")
    assert load_config(str(cfg_path)) == PipelineConfig(seeds=(1,))
    monkeypatch.chdir(tmp_path)
    assert main(["run-experiment", "exp5_stepwise", "--config", str(cfg_path)]) == 0
    run_dir = next((tmp_path / "runs").iterdir())
    assert "[llm]" not in (run_dir / "config.ini").read_text()


def test_experiment_names():
    assert EXPERIMENTS == (
        "exp1_balanced", "exp2_weighted", "exp3_ood",
        "exp4_impression", "exp5_stepwise", "exp6_growthcharts",
    )


@pytest.mark.parametrize("case", ["missing_section_header", "duplicate_key"])
def test_unparsable_config_is_config_error(tmp_path, capsys, case):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text({
        "missing_section_header": "epochs = 3\n",
        "duplicate_key": "[train]\nepochs = 3\nepochs = 4\n",
    }[case])
    with pytest.raises(ConfigError, match=str(cfg_path)):
        load_config(str(cfg_path))
    out = tmp_path / "runs"
    rc = main(["run-experiment", "exp5_stepwise", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"config error: {cfg_path}: ")
    assert not out.exists()


GOOD_GROWTH_MODEL = {
    "region": "vol_cortical_gm",
    "fp_mu": {"order": 1, "powers": [0.5]},
    "mu_coef": [12.2, 0.12, -0.05],
    "fp_sigma": None,
    "sigma_coef": [-2.12],
    "nu": 1.5,
    "scanner_intercepts": {"scan-00": 0.0},
    "ridge_lambda": 1.0,
    "converged": True,
    "loglik": -10.0,
    "bic": 30.0,
}

_TOO_DEEP = "[" * 200_000 + "]" * 200_000  # json raises RecursionError on it

BAD_GROWTH_MODELS = {
    "region_only": '{"region": "vol_cortical_gm"}',
    "missing_nu": {k: v for k, v in GOOD_GROWTH_MODEL.items() if k != "nu"},
    "string_coefficients": {**GOOD_GROWTH_MODEL, "mu_coef": "abc"},
    "short_coefficients": {**GOOD_GROWTH_MODEL, "mu_coef": [12.2, 0.12]},
    "string_nu": {**GOOD_GROWTH_MODEL, "nu": "x"},
    "huge_integer_nu": {**GOOD_GROWTH_MODEL, "nu": 10**400},  # no float holds it
    "bad_fp_spec": {**GOOD_GROWTH_MODEL, "fp_mu": 3},
    "float_order": {**GOOD_GROWTH_MODEL, "fp_mu": {"order": 1.0, "powers": [0.5]}},
    "bool_order": {**GOOD_GROWTH_MODEL, "fp_mu": {"order": True, "powers": [0.5]}},
    "missing_fp_sigma": {k: v for k, v in GOOD_GROWTH_MODEL.items() if k != "fp_sigma"},
    "unknown_region": {**GOOD_GROWTH_MODEL, "region": "vol_nope"},
    "not_an_object": "[1, 2]",
    "invalid_json": '{"region": ',
    "nested_too_deep": _TOO_DEEP,
    "extra_key": {**GOOD_GROWTH_MODEL, "extra": 1},
    "extra_fp_key": {**GOOD_GROWTH_MODEL, "fp_mu": {**GOOD_GROWTH_MODEL["fp_mu"], "extra": 1}},
}


@pytest.mark.parametrize("command", ["curves", "centiles"])
@pytest.mark.parametrize("case", sorted(BAD_GROWTH_MODELS))
def test_malformed_growth_model_is_schema_error(tmp_path, capsys, command, case):
    doc = BAD_GROWTH_MODELS[case]
    model_path = tmp_path / "gm.json"
    model_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "out.csv"
    argv = ["curves", "--model", str(model_path), "--out", str(out)]
    if command == "centiles":
        argv = ["centiles", "--model", str(model_path), "--phenotypes",
                str(tmp_path / "p.csv"), "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"data error: {model_path}: ")
    assert not out.exists()


# A value of another JSON type than a good value, by the good value's type.
_WRONG_JSON_TYPE = {str: 3, int: "1", float: "1.5", bool: 1, list: {"0": 0.5}, dict: [0.0], type(None): 3.0}
_GOOD_FP_SIGMA = {**GOOD_GROWTH_MODEL, "fp_sigma": {"order": 1, "powers": [1.0]}, "sigma_coef": [-2.12, 0.0]}


def _wrong_typed_fields():
    """Per key path, GOOD_GROWTH_MODEL with a wrong-typed value there: one per
    key of GrowthModel (a field that takes part in equality), and one per
    field of FpSpec under fp_mu and fp_sigma."""
    for f in filter(lambda f: f.compare, fields(GrowthModel)):
        yield f.name, {**GOOD_GROWTH_MODEL, f.name: _WRONG_JSON_TYPE[type(GOOD_GROWTH_MODEL[f.name])]}
    for spec in ("fp_mu", "fp_sigma"):
        for f in fields(FpSpec):
            good = _GOOD_FP_SIGMA[spec]
            bad = {**good, f.name: _WRONG_JSON_TYPE[type(good[f.name])]}
            yield f"{spec}.{f.name}", {**_GOOD_FP_SIGMA, spec: bad}


WRONG_TYPED_FIELDS = dict(_wrong_typed_fields())


@pytest.mark.parametrize("key", sorted(WRONG_TYPED_FIELDS))
def test_each_growth_model_field_is_read_by_its_type(tmp_path, capsys, key):
    model_path = tmp_path / "gm.json"
    model_path.write_text(json.dumps(WRONG_TYPED_FIELDS[key]))
    assert main(["curves", "--model", str(model_path), "--out", str(tmp_path / "c.csv")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"data error: {model_path}: {key} must be ")


@pytest.mark.parametrize("case, key", [("extra_key", "extra"), ("extra_fp_key", "fp_mu.extra")])
def test_unknown_growth_model_key_is_named_by_its_path(tmp_path, capsys, case, key):
    model_path = tmp_path / "gm.json"
    model_path.write_text(json.dumps(BAD_GROWTH_MODELS[case]))
    assert main(["curves", "--model", str(model_path), "--out", str(tmp_path / "c.csv")]) == 3
    assert capsys.readouterr().err == f"data error: {model_path}: unknown key {key!r}\n"


def test_good_growth_model_document_loads(tmp_path, capsys):
    model_path = tmp_path / "gm.json"
    for doc in (GOOD_GROWTH_MODEL, _GOOD_FP_SIGMA):
        model_path.write_text(json.dumps(doc))
        assert main(["curves", "--model", str(model_path), "--points", "3",
                     "--out", str(tmp_path / "c.csv")]) == 0


def test_balanced_train_skips_unlabelled_reports(tmp_path, capsys):
    reports = str(data_file("edge_case_reports.jsonl"))
    gold = read_metrics(data_file("edge_case_gold.csv"))
    unlabelled = gold[0]["report_id"]
    labels_path = tmp_path / "labels.csv"
    _write_csv(labels_path, ["report_id", "label"],
               [[r["report_id"], r["label"]] for r in gold if r["report_id"] != unlabelled])
    models = {}
    for tag, ids in (("with", [r["report_id"] for r in gold]),
                     ("without", [r["report_id"] for r in gold if r["report_id"] != unlabelled])):
        split_path = tmp_path / f"split-{tag}.csv"
        _write_csv(split_path, ["report_id", "subset"], [[rid, "Train"] for rid in ids])
        models[tag] = tmp_path / f"model-{tag}.bin"
        assert main(["train", "--reports", reports, "--labels", str(labels_path),
                     "--split", str(split_path), "--balanced", "--epochs", "3",
                     "--out", str(models[tag])]) == 0
    assert models["with"].read_bytes() == models["without"].read_bytes()


# sha256 of the phenotype commands' outputs and stdout on a synthetic cohort,
# recorded from the per-record phenotype code before loading, QC and session
# medians became array operations. growth.json, centiles.csv and stdout were
# re-recorded when each candidate's cold start became a trust-region Newton fit.
GOLDEN_PHENOTYPE = {
    "cohort.csv": "75d3a0ea83a72a970be8840a4b95731ba2ce29f70deeea3c40f663a626f88e3f",
    "qc.csv": "37c1612486ebd90dda46679728bd6534b9feceb0c2ff2ce6913ea2858a231c86",
    "sessions-median.csv": "f19347e0e699754214e57a09710ca7073f1e91c2a12c4d65b071cfc58b3026b6",
    "sessions-mprage.csv": "317a0e73fe354f85d1006a460f48502785f20806eb403f9593e907d6765071a7",
    "growth.json": "1cc66a80b40c4720bbdcffd92c523483c715f1f0011746e5c4f6ff7647f2f792",
    "centiles.csv": "59aeeeb44eb974cd9b1eb6ce036a87dccfdbf20c9d6bda89f37653e1d82eab44",
    "stdout": "ffd4d101117d8d3f49eec6794eb84fae998759b76589c6ba5bd9c64d53860583",
}


def test_phenotype_commands_golden_digests(tmp_path, monkeypatch, capsys):
    from normcharts import synthcorpus
    from normcharts.experiments import _default_truth
    from normcharts.phenotype import write_phenotype_csv

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(synthcorpus, "QC_FAIL_RATE", 0.1)
    write_phenotype_csv("cohort.csv", synthcorpus.synth_cohort(
        seed=21, n_sessions=400,
        truth=_default_truth(PipelineConfig(n_scanners=5)),
    ))
    ph = ["--phenotypes", "cohort.csv"]
    for argv in (
        ["qc", *ph, "--out", "qc.csv"],
        ["aggregate", *ph, "--method", "median", "--out", "sessions-median.csv"],
        ["aggregate", *ph, "--method", "mprage", "--out", "sessions-mprage.csv"],
        ["fit-growth", *ph, "--region", "vol_cortical_gm", "--fp1-only", "--out", "growth.json"],
        ["centiles", "--model", "growth.json", *ph, "--out", "centiles.csv"],
    ):
        assert main(argv) == 0
    (tmp_path / "stdout").write_text(capsys.readouterr().out)
    assert _sha256s(tmp_path, GOLDEN_PHENOTYPE) == GOLDEN_PHENOTYPE


# sha256 of fit-growth's model file and stdout on the two design layouts the
# digests above leave out, recorded before the fit's parameter vector and its
# intercept-plus-basis designs were each defined in one place: a single-sex
# cohort (no sex column) without the scale basis, and the full FP1+FP2 search
# on a two-sex cohort with it. A misplaced slice of the vector changes both.
# Both were re-recorded when each candidate's cold start became a trust-region
# Newton fit, which also reads the vector through the same slices.
GOLDEN_FIT_LAYOUTS = {
    "one_sex_no_sigma_age": (["--fp1-only", "--no-sigma-age"], {
        "growth.json": "a5d0bb75f612398af064a67a097d5c18dea95af30a4c32cf2ba8bc051ca53f09",
        "stdout": "0f42664b37897cf99073dedcecf6110c959c19d8401965ef1a8c4b96eae51be1",
    }),
    "two_sex_full_search": ([], {
        "growth.json": "a79dfed580c6da15bca61b041ed9540de98d58a6e427d5bb2ec28fb0e6d43c19",
        "stdout": "2a8676a40213454c9d3a4aabfdd8985bb007a2f228c695d8a92db9e5c6d53247",
    }),
}


SINGLE_SEX_WARNING = "single-sex cohort: sex coefficient dropped"


@pytest.mark.parametrize("case", sorted(GOLDEN_FIT_LAYOUTS))
def test_fit_growth_layouts_golden_digests(tmp_path, monkeypatch, capsys, caplog, case):
    from normcharts.experiments import _default_truth
    from normcharts.phenotype import write_phenotype_csv
    from normcharts.synthcorpus import synth_cohort

    monkeypatch.chdir(tmp_path)
    flags, expected = GOLDEN_FIT_LAYOUTS[case]
    write_phenotype_csv("cohort.csv", synth_cohort(
        seed=5, n_sessions=300, truth=_default_truth(PipelineConfig(n_scanners=3)),
    ))
    one_sex = case.startswith("one_sex")
    if one_sex:
        with open("cohort.csv", newline="") as f:
            rows = list(csv.reader(f))
        sex = rows[0].index("sex")
        _write_csv("cohort.csv", rows[0], [row for row in rows[1:] if row[sex] == "F"])
    argv = ["fit-growth", "--phenotypes", "cohort.csv", "--region", "vol_cortical_gm", *flags,
            "--out", "growth.json"]
    with caplog.at_level("WARNING"):
        assert main(argv) == 0
    warned = [SINGLE_SEX_WARNING] if one_sex else []
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [("WARNING", w) for w in warned]
    (tmp_path / "stdout").write_text(capsys.readouterr().out)
    assert _sha256s(tmp_path, expected) == expected
    if one_sex:
        # outside pytest's log capture the warning is one stderr line, without a source line
        result = _cli_in_fresh_interpreter(*argv[:-1], "again.json")
        assert (result.returncode, result.stderr) == (0, SINGLE_SEX_WARNING + "\n")


def test_fit_growth_on_a_session_volume_that_is_not_finite_exits_4(tmp_path, monkeypatch, capsys):
    from dataclasses import replace

    from normcharts.experiments import _default_truth
    from normcharts.phenotype import Region, write_phenotype_csv
    from normcharts.synthcorpus import synth_cohort

    monkeypatch.chdir(tmp_path)
    # the cohort of GOLDEN_FIT_LAYOUTS with its cortical volumes near the largest double:
    # the CSV holds none that is inf, but the median of two overflows in 45 sessions
    table = synth_cohort(seed=5, n_sessions=300, truth=_default_truth(PipelineConfig(n_scanners=3)))
    volumes = table.volumes.copy()
    volumes[:, list(Region).index(Region.CORTICAL_GM)] *= 3e302
    write_phenotype_csv("cohort.csv", replace(table, volumes=volumes))
    argv = ["fit-growth", "--phenotypes", "cohort.csv", "--region", "vol_cortical_gm", "--fp1-only",
            "--out", "growth.json"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: vol_cortical_gm must be finite, got inf (45 of 298 values bad)\n"
    assert not Path("growth.json").exists()


def test_a_library_error_states_its_row_one_way():
    for cls in (ConfigError, DataError, NumericalError):
        plain, at_row = cls("has no tokens"), cls("has no tokens", row=7)
        assert (str(plain), plain.problem, plain.row) == ("has no tokens", "has no tokens", None)
        assert (str(at_row), at_row.problem, at_row.row) == ("row 7: has no tokens", "has no tokens", 7)
        assert str(cls("x", row=0)) == "row 0: x"


# Damage to the second data row (line 3) of a phenotype CSV, and the message
# the error must carry.
BAD_PHENOTYPE_ROWS = {
    "short_row": (lambda row: row[:10], "expected 20 fields, got 10"),
    "long_row": (lambda row: row + ["x"], "expected 20 fields, got 21"),
    "bad_number": (lambda row: row[:11] + ["abc"] + row[12:], "could not convert string to float: 'abc'"),
    "zero_age": (lambda row: row[:3] + ["0"] + row[4:], "age_days must be positive, got 0"),
    "age_past_int64": (lambda row: row[:3] + [str(2**63)] + row[4:], "Python int too large to convert to C long"),
    "unknown_sex": (lambda row: row[:4] + ["X"] + row[5:], "sex must be M or F, got 'X'"),
    "negative_volume": (lambda row: row[:6] + ["-5"] + row[7:],
                        "volume vol_cortical_gm must be positive and finite, got -5.0"),
    "infinite_volume": (lambda row: row[:9] + ["inf"] + row[10:],
                        "volume vol_ventricles must be positive and finite, got inf"),
}


@pytest.mark.parametrize("command", ["aggregate", "centiles", "qc", "fit-growth"])
@pytest.mark.parametrize("case", sorted(BAD_PHENOTYPE_ROWS))
def test_bad_phenotype_row_is_data_error_at_its_line(tmp_path, capsys, command, case):
    from normcharts.experiments import _default_truth
    from normcharts.phenotype import write_phenotype_csv
    from normcharts.synthcorpus import synth_cohort

    good = tmp_path / "good.csv"
    write_phenotype_csv(good, synth_cohort(seed=3, n_sessions=4,
                                           truth=_default_truth(PipelineConfig(n_scanners=1))))
    with open(good, newline="") as f:
        rows = list(csv.reader(f))
    damage, message = BAD_PHENOTYPE_ROWS[case]
    rows[2] = damage(rows[2])
    bad = tmp_path / "bad.csv"
    _write_csv(bad, rows[0], rows[1:])
    model_path = tmp_path / "gm.json"
    model_path.write_text(json.dumps(GOOD_GROWTH_MODEL))
    out = tmp_path / "out"
    argv = {
        "aggregate": ["aggregate"],
        "centiles": ["centiles", "--model", str(model_path)],
        "qc": ["qc"],
        "fit-growth": ["fit-growth", "--region", "vol_cortical_gm"],
    }[command] + ["--phenotypes", str(bad), "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err == f"data error: {bad}:3: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, value", [
    ("1", True), ("TRUE", True), ("Yes", True), (" true ", True),
    ("0", False), ("False", False), ("NO", False),
    ("ture", None), ("nope", None), ("", None), ("on", None), ("2", None),
])
def test_is_mprage_values_are_strict(tmp_path, capsys, text, value):
    from normcharts.experiments import _default_truth
    from normcharts.phenotype import write_phenotype_csv
    from normcharts.synthcorpus import synth_cohort

    good = tmp_path / "good.csv"
    write_phenotype_csv(good, synth_cohort(seed=3, n_sessions=3,
                                           truth=_default_truth(PipelineConfig(n_scanners=1))))
    with open(good, newline="") as f:
        rows = list(csv.reader(f))
    column = rows[0].index("is_mprage")
    for row in rows[1:]:
        row[column] = text
    bad = tmp_path / "ph.csv"
    _write_csv(bad, rows[0], rows[1:])
    out = tmp_path / "sessions.csv"
    rc = main(["aggregate", "--phenotypes", str(bad), "--method", "mprage", "--out", str(out)])
    captured = capsys.readouterr()
    if value is not None:
        assert rc == 0
        dropped = 0 if value else 3
        assert captured.out.endswith(f"{3 - dropped} out, 0 dropped by QC, {dropped} without MPRAGE\n")
        return
    assert rc == 3
    assert captured.err == (
        f"data error: {bad}:2: is_mprage must be one of 1/true/yes/0/false/no, got {text!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("text, value", [
    ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("False", False), ("NO", False),
    ("ture", None), ("nope", None), ("", None), ("on", None),
])
def test_boolean_config_values_are_strict(tmp_path, capsys, text, value):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(f"[growth]\nfp1_only = {text}\nsigma_age = {text}\n")
    if value is not None:
        cfg = load_config(str(cfg_path))
        assert (cfg.fp1_only, cfg.sigma_age) == (value, value)
        return
    with pytest.raises(ConfigError, match=f"must be one of 1/true/yes/0/false/no, got '{text}'"):
        load_config(str(cfg_path))
    out = tmp_path / "runs"
    rc = main(["run-experiment", "exp6_growthcharts", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _phenotype_argv(command, phenotypes, out, tmp_path):
    """argv running `command` on a phenotype CSV, with a good growth model for centiles."""
    model_path = tmp_path / "gm.json"
    model_path.write_text(json.dumps(GOOD_GROWTH_MODEL))
    return {
        "aggregate": ["aggregate"],
        "centiles": ["centiles", "--model", str(model_path)],
        "qc": ["qc"],
        "fit-growth": ["fit-growth", "--region", "vol_cortical_gm"],
    }[command] + ["--phenotypes", str(phenotypes), "--out", str(out)]


def test_centiles_that_fail_write_nothing(tmp_path, capsys):
    from normcharts.experiments import _default_truth
    from normcharts.phenotype import write_phenotype_csv
    from normcharts.synthcorpus import synth_cohort

    phenotypes = tmp_path / "p.csv"
    write_phenotype_csv(phenotypes, synth_cohort(seed=3, n_sessions=4,
                                                 truth=_default_truth(PipelineConfig(n_scanners=1))))
    model_path = tmp_path / "gm.json"
    # mu = exp(800) overflows to inf, which the scale parameter rejects
    model_path.write_text(json.dumps({**GOOD_GROWTH_MODEL, "mu_coef": [800.0, 0.12, -0.05]}))
    out = tmp_path / "out.csv"
    argv = ["centiles", "--model", str(model_path), "--phenotypes", str(phenotypes), "--out", str(out)]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not out.exists()


def _run_growth_command(tmp_path, command, model):
    """`command` (centiles or curves) on a 400-session cohort with `model`, in a
    fresh interpreter, so a numpy warning would be printed as it is for a user."""
    from normcharts.experiments import _default_truth
    from normcharts.phenotype import write_phenotype_csv
    from normcharts.synthcorpus import synth_cohort

    phenotypes = tmp_path / "p.csv"
    write_phenotype_csv(phenotypes, synth_cohort(seed=3, n_sessions=400,
                                                 truth=_default_truth(PipelineConfig(n_scanners=1))))
    model_path = tmp_path / "gm.json"
    model_path.write_text(json.dumps(model))
    argv = {
        "centiles": ["centiles", "--phenotypes", str(phenotypes)],
        "curves": ["curves"],
    }[command] + ["--model", str(model_path), "--out", str(tmp_path / "out.csv")]
    return _cli_in_fresh_interpreter(*argv)


@pytest.mark.parametrize("command", ["centiles", "curves"])
@pytest.mark.parametrize("change", [{"nu": 1e-200}, {"sigma_coef": [-400.0]}], ids=["nu", "sigma"])
def test_growth_model_whose_theta_is_not_finite_fails_in_one_line(tmp_path, command, change):
    # theta = 1/(sigma^2 nu^2) divides by zero once sigma nu underflows
    result = _run_growth_command(tmp_path, command, {**GOOD_GROWTH_MODEL, **change})
    assert result.returncode == 4
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: theta must be finite and > 0")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["centiles", "curves"])
def test_overflowing_growth_model_fails_in_one_line(tmp_path, command):
    result = _run_growth_command(tmp_path, command, {**GOOD_GROWTH_MODEL, "mu_coef": [800.0, 0.12, -0.05]})
    assert result.returncode == 4
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: mu must be finite and > 0")
    assert "values bad" in lines[0]
    assert not (tmp_path / "out.csv").exists()


# Two models whose quantile curves are not finite though theta is: mu * G^(1/nu)
# overflows in the multiply, and with nu = -800 a G that is 0 in double is
# raised to a negative power. Each with the first curve that fails.
INFINITE_QUANTILE_MODELS = {
    "overflow": ({**GOOD_GROWTH_MODEL, "mu_coef": [706.9, 0.0, 0.0], "sigma_coef": [1.0986],
                  "nu": 0.05}, "0.975"),
    "zero_to_negative_power": ({**GOOD_GROWTH_MODEL, "nu": -800.0}, "0.5"),
}


@pytest.mark.parametrize("case", sorted(INFINITE_QUANTILE_MODELS))
def test_curves_that_are_not_finite_fail_in_one_line(tmp_path, case):
    model, q = INFINITE_QUANTILE_MODELS[case]
    result = _run_growth_command(tmp_path, "curves", model)
    assert (result.returncode, result.stdout) == (4, "")
    # the default grid has 38 ages, and every one fails
    assert result.stderr == (
        f"numerical failure: the {q} quantile must be finite, got inf (38 of 38 values bad)\n"
    )
    assert not (tmp_path / "out.csv").exists()


def test_exp6_whose_curves_are_not_finite_leaves_no_run(tmp_path, monkeypatch, capsys):
    from normcharts import growthchart

    model = growthchart.model_from_dict(INFINITE_QUANTILE_MODELS["zero_to_negative_power"][0])
    monkeypatch.setattr(growthchart, "fit", lambda *args: model)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[growth]\nn_sessions = 60\n")
    out = tmp_path / "runs"
    rc = main(["run-experiment", "exp6_growthcharts", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure: the 0.5 quantile")
    assert list(out.iterdir()) == []


# sha256 of the centiles of the 400-session cohort under a location of exp(-745),
# recorded before the overflow to x = inf in gg_cdf was silenced.
CENTILES_AT_UNDERFLOWING_MU = "45b08dfbc1b46e487e9babedf10bbed6722c4ebebad8aa200e7e2498e7cb8e13"


@pytest.mark.parametrize("bad", [math.nan, -1e-3, 1.5])
def test_centiles_outside_unit_interval_fail_in_one_line(tmp_path, monkeypatch, capsys, bad):
    from normcharts import growthchart
    from normcharts.experiments import _default_truth
    from normcharts.phenotype import write_phenotype_csv
    from normcharts.synthcorpus import synth_cohort

    ratios = growthchart._gamma_ratios

    def broken(*args):
        p, q, log_d = ratios(*args)
        p[1::7], q[1::7] = bad, bad
        return p, q, log_d

    monkeypatch.setattr(growthchart, "_gamma_ratios", broken)
    phenotypes, model, out = tmp_path / "p.csv", tmp_path / "gm.json", tmp_path / "out.csv"
    write_phenotype_csv(phenotypes, synth_cohort(seed=3, n_sessions=60,
                                                 truth=_default_truth(PipelineConfig(n_scanners=1))))
    model.write_text(json.dumps(GOOD_GROWTH_MODEL))
    rc = main(["centiles", "--model", str(model), "--phenotypes", str(phenotypes), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.count("\n") == 1 and err.startswith(f"numerical failure: the cdf must be in [0, 1], got {bad} (")
    assert not out.exists()


def test_centiles_whose_cdf_argument_overflows_stay_silent(tmp_path):
    # mu = exp(-745) is the smallest positive double, so (y / mu)^nu overflows:
    # x = inf is the exact limit, where the centile is 1
    result = _run_growth_command(tmp_path, "centiles", {**GOOD_GROWTH_MODEL,
                                                        "mu_coef": [-745.0, 0.12, -0.05]})
    assert (result.returncode, result.stderr) == (0, "")
    digest = hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest()
    assert digest == CENTILES_AT_UNDERFLOWING_MU


@pytest.mark.parametrize("command", ["aggregate", "qc", "centiles"])
def test_header_only_phenotype_csv_writes_nothing_to_stderr(tmp_path, command):
    from normcharts.phenotype import PHENOTYPE_COLUMNS

    path = tmp_path / "empty.csv"
    path.write_text(",".join(PHENOTYPE_COLUMNS) + "\n")
    argv = _phenotype_argv(command, path, tmp_path / "out.csv", tmp_path)
    # a fresh interpreter, so a warning is printed as it would be for a user
    result = _cli_in_fresh_interpreter(*argv)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith(
        {"aggregate": "sessions: 0 in, 0 out, ", "qc": "kept 0 of 0 sequences",
         "centiles": "centiles for 0 sessions"}[command]
    )


@pytest.mark.parametrize("command", ["aggregate", "centiles", "qc", "fit-growth"])
def test_phenotype_csv_that_is_not_utf8_is_data_error(tmp_path, capsys, command):
    from normcharts.experiments import _default_truth
    from normcharts.phenotype import write_phenotype_csv
    from normcharts.synthcorpus import synth_cohort

    good = tmp_path / "good.csv"
    write_phenotype_csv(good, synth_cohort(seed=3, n_sessions=4,
                                           truth=_default_truth(PipelineConfig(n_scanners=1))))
    lines = good.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"ses-", b"s\xffs-", 1)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\n".join(lines))
    out = tmp_path / "out"
    assert main(_phenotype_argv(command, bad, out, tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err == f"data error: {bad}:3: not UTF-8: byte 0xff (invalid start byte)\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, argv", [
    ("--reports", ["ingest"]),
    ("--out", ["label", "--reports", str(data_file("edge_case_reports.jsonl"))]),
    ("--model", ["curves", "--out", "curves.csv"]),
    ("--phenotypes", ["aggregate", "--out", "sessions.csv"]),
])
def test_directory_for_a_file_is_config_error(tmp_path, monkeypatch, capsys, flag, argv):
    monkeypatch.chdir(tmp_path)
    folder = tmp_path / "folder"
    folder.mkdir()
    assert main([*argv, flag, str(folder)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("config error: ") and str(folder) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder"]


@pytest.mark.parametrize("case", ["symlink_loop", "long_reports_name", "long_out_name"])
def test_any_os_error_on_a_path_is_config_error(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    long_name = "x" * 300  # past NAME_MAX: open and mkdir raise ENAMETOOLONG
    if case == "symlink_loop":
        os.symlink("self", "self")  # ELOOP
    argv = {
        "symlink_loop": ["ingest", "--reports", "self"],
        "long_reports_name": ["ingest", "--reports", long_name],
        "long_out_name": ["run-experiment", "exp5_stepwise", "--out", long_name],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("config error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["self"] if case == "symlink_loop" else [])


def test_parser_is_built_once():
    from normcharts.cli import build_parser

    assert build_parser() is build_parser()


@pytest.mark.parametrize("command, line", [
    ("ingest", _TOO_DEEP),
    ("label", _TOO_DEEP),
    # json raises a plain ValueError on an integer past sys.get_int_max_str_digits()
    pytest.param("ingest", '{"id": "a", "text": "x", "exam_year": ' + "9" * 5000 + "}",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="no integer-digit limit before Python 3.11")),
], ids=["ingest_nested", "label_nested", "ingest_long_integer"])
def test_json_line_that_cannot_be_decoded_is_data_error(tmp_path, capsys, command, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n")
    out = tmp_path / "labels.csv"
    argv = {
        "ingest": ["ingest", "--reports", str(bad)],
        "label": ["label", "--reports", str(data_file("edge_case_reports.jsonl")),
                  "--annotations", str(bad), "--out", str(out)],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"data error: {bad}:1: invalid JSON (")
    assert not out.exists()


@pytest.mark.parametrize("command, rows, message", [
    # two sequences of one session: each volume's median (a + b) / 2 overflows to inf
    ("aggregate", [("q1", "1.7e308", "0.9"), ("q2", "1.7e308", "0.9")], "vol_cortical_gm of row 1 is inf"),
    ("qc", [("q1", "1000.0", "inf")], "qc_gwm of row 1 is inf"),
], ids=["aggregate_median_overflows", "qc_inf_score"])
def test_phenotype_number_that_is_not_finite_exits_4(tmp_path, capsys, command, rows, message):
    from normcharts.phenotype import PHENOTYPE_COLUMNS, QcCategory, Region

    phenotypes = tmp_path / "phenotypes.csv"
    phenotypes.write_text(",".join(PHENOTYPE_COLUMNS) + "\n" + "".join(
        ",".join(["ses-1", seq, "sc-1", "3650", "F", "true"] + [volume] * len(Region)
                 + [qc] * len(QcCategory)) + "\n"
        for seq, volume, qc in rows
    ))
    out = tmp_path / "out.csv"
    assert main([command, "--phenotypes", str(phenotypes), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == f"numerical failure: {out}: {message}, not a finite number\n"
    assert not out.exists()


def test_header_that_folds_to_a_known_one_is_read(tmp_path, capsys):
    # the header regex matches "İ" (U+0130) to "I"; upper() leaves it as it is
    reports = tmp_path / "reports.jsonl"
    _write_jsonl(reports, [{"id": "r1", "text": "FİNDINGS: resection cavity.\nImpreſſion: stable.",
                            "procedure_description": "MRI brain"}])
    assert main(["ingest", "--reports", str(reports)]) == 0
    assert capsys.readouterr().out == (
        "reports: 1\nsections[Findings]: 1\nsections[Impression]: 1\n"
    )
    out = tmp_path / "labels.csv"
    assert main(["label", "--reports", str(reports), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["report_id,label", "r1,Abnormal"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("file", ["reports", "annotations", "labels", "fixture"])
def test_file_that_is_not_utf8_is_data_error(tmp_path, capsys, file):
    reports = tmp_path / "reports.jsonl"
    reports.write_bytes(data_file("edge_case_reports.jsonl").read_bytes())
    labels = tmp_path / "labels.csv"
    labels.write_bytes(data_file("edge_case_gold.csv").read_bytes())
    fixture = tmp_path / "fixture.tsv"
    fixture.write_bytes(data_file("edge_case_responses.tsv").read_bytes())
    annotations = tmp_path / "annotations.jsonl"
    _write_jsonl(annotations, [{"report_id": "a", "grades": [2]}, {"report_id": "b", "grades": [0]}])
    bad = {"reports": reports, "annotations": annotations, "labels": labels, "fixture": fixture}[file]
    lines = bad.read_bytes().split(b"\n")
    lines[1] = lines[1][:5] + b"\xff" + lines[1][5:]
    bad.write_bytes(b"\n".join(lines))
    argv = {
        "reports": ["ingest", "--reports", str(reports)],
        "annotations": ["label", "--reports", str(data_file("edge_case_reports.jsonl")),
                        "--annotations", str(annotations), "--out", str(tmp_path / "l.csv")],
        "labels": ["split", "--reports", str(data_file("edge_case_reports.jsonl")),
                   "--labels", str(labels), "--out", str(tmp_path / "s.csv")],
        "fixture": ["triage", "--reports", str(data_file("edge_case_reports.jsonl")),
                    "--mode", "stepwise", "--fixture", str(fixture), "--out", str(tmp_path / "t.csv")],
    }[file]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"data error: {bad}:2: not UTF-8: byte 0xff (invalid start byte)\n"
    assert argv[-2] != "--out" or not Path(argv[-1]).exists()


_LONG_FIELD = "x" * 200_000  # over csv's default field_size_limit() of 131,072


def _damaged_table(tmp_path, file, damage):
    """Write an input of kind `file` with `damage` done to one row, and return
    (its path, the line of the damage, the argv that reads it).

    `damage` is "long_field", "extra_field" or "missing_field"; the header is
    damaged only for "phenotype_header".
    """
    from normcharts.experiments import _default_truth
    from normcharts.phenotype import write_phenotype_csv
    from normcharts.synthcorpus import synth_cohort

    def damaged(fields):
        if damage == "long_field":
            return fields[:-1] + [fields[-1] + _LONG_FIELD]
        return fields + ["extra"] if damage == "extra_field" else fields[:-1]

    reports, gold = str(data_file("edge_case_reports.jsonl")), str(data_file("edge_case_gold.csv"))
    bad, line = tmp_path / "bad.csv", 3
    if file.startswith("phenotype"):
        write_phenotype_csv(bad, synth_cohort(seed=3, n_sessions=4,
                                              truth=_default_truth(PipelineConfig(n_scanners=1))))
        lines = bad.read_text().split("\n")
        if file == "phenotype_header":
            lines[0] += "," + _LONG_FIELD
            line = 1
        elif damage == "long_field":
            # the C pass reads the long field; the bad age on line 4 sends the file to the row loop
            lines[2] = lines[2].replace("ses-", _LONG_FIELD, 1)
            fields = lines[3].split(",")
            fields[3] = "x"  # age_days
            lines[3] = ",".join(fields)
        else:
            lines[2] = ",".join(damaged(lines[2].split(",")))
        bad.write_text("\n".join(lines))
        argv = ["aggregate", "--phenotypes", str(bad), "--out", str(tmp_path / "out.csv")]
    elif file == "fixture":
        bad = tmp_path / "bad.tsv"
        rows = data_file("edge_case_responses.tsv").read_text().splitlines()
        rows[2] = "\t".join(damaged(rows[2].split("\t")))
        bad.write_text("\n".join(rows) + "\n")
        argv = ["triage", "--reports", reports, "--mode", "stepwise", "--fixture", str(bad),
                "--out", str(tmp_path / "t.csv")]
    else:
        # the real gold labels, so that each file but for its damage is one the command accepts
        with open(gold, newline="") as f:
            header, *rows = csv.reader(f)
        if file == "split":
            header, rows = ["report_id", "subset"], [[rid, "Train"] for rid, _ in rows]
        elif file == "centiles":
            header, rows = ["session_id", "centile"], [["s1", "0.1"], ["s2", "0.5"], ["s3", "0.9"]]
        rows[1] = damaged(rows[1])
        _write_csv(bad, header, rows)
        argv = {
            "labels": ["split", "--reports", reports, "--labels", str(bad)],
            "split": ["train", "--reports", reports, "--labels", gold, "--split", str(bad)],
            "gold": ["triage", "--reports", reports, "--mode", "stepwise", "--gold", str(bad),
                     "--fixture", str(data_file("edge_case_responses.tsv"))],
            "centiles": ["compare", "--a", str(bad), "--b", str(bad)],
        }[file] + ([] if file == "centiles" else ["--out", str(tmp_path / "out")])
    return bad, line, argv


@pytest.mark.parametrize("file", ["phenotypes", "phenotype_header", "labels", "split", "gold",
                                  "fixture", "centiles"])
def test_csv_field_over_the_limit_is_data_error(tmp_path, capsys, file):
    limit = csv.field_size_limit()
    bad, line, argv = _damaged_table(tmp_path, file, "long_field")
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"data error: {bad}:{line}: field larger than field limit (131072)\n"
    assert csv.field_size_limit() == limit
    assert argv[-2] != "--out" or not Path(argv[-1]).exists()


@pytest.mark.parametrize("damage", ["extra_field", "missing_field"])
@pytest.mark.parametrize("file", ["phenotypes", "labels", "split", "gold", "fixture", "centiles"])
def test_csv_row_of_the_wrong_length_is_data_error(tmp_path, capsys, file, damage):
    """Every CSV/TSV input has one row-shape rule: a non-blank row has as
    many fields as the header."""
    bad, line, argv = _damaged_table(tmp_path, file, damage)
    n = {"phenotypes": 20, "fixture": 3}.get(file, 2)
    assert main(argv) == 3
    err = capsys.readouterr().err
    got = n + 1 if damage == "extra_field" else n - 1
    assert err == f"data error: {bad}:{line}: expected {n} fields, got {got}\n"
    assert argv[-2] != "--out" or not Path(argv[-1]).exists()


# cell text that CSV quoting must carry through: delimiters, quotes, line
# breaks, blanks at either end, non-ASCII and the empty string. No NUL: the
# csv module before Python 3.11 rejects it.
_CELL_TEXT = st.text(
    st.sampled_from([",", '"', "\t", "\r", "\n", " ", "é", "中", "🙂"])
    | st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_CELL_TEXT, st.sampled_from(Label)))
@example({"": Label.NORMAL, ' a,"b"\t\r\n': Label.ABNORMAL, "é ": Label.NORMAL})
def test_csv_map_round_trip_property(tmp_path_factory, mapping):
    path = tmp_path_factory.mktemp("map") / "labels.csv"
    write_csv_map(path, "report_id", "label", mapping)
    assert load_csv_map(path, "report_id", "label", Label) == mapping


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(_CELL_TEXT, _CELL_TEXT), _CELL_TEXT))
@example({("", ""): "", ("r1", "Q1"): 'No\t"Yes, abnormal"\r\n ', ("é", "Q2 "): " 中"})
def test_fixture_round_trip_property(tmp_path_factory, responses):
    path = tmp_path_factory.mktemp("fixture") / "fixture.tsv"
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, delimiter="\t")
        w.writerow(FIXTURE_COLUMNS)
        w.writerows((*key, text) for key, text in responses.items())
    assert FixtureAnswerSource(path).responses == responses
