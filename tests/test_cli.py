import csv
import hashlib
import json

import pytest

from normcharts.cli import (
    DEFAULT_SEEDS,
    EXPERIMENTS,
    PipelineConfig,
    data_file,
    load_config,
    main,
    run_experiment,
)
from normcharts.errors import ConfigError


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


def test_bundled_fixture_files_exist():
    for name in ("edge_case_reports.jsonl", "edge_case_gold.csv",
                 "edge_case_responses.tsv"):
        assert data_file(name).exists()


def test_classifier_pipeline_chain(tmp_path, capsys):
    from normcharts.synthcorpus import synth_reports

    reports, labels = synth_reports(seed=2, n=300)
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


def test_triage_without_source_is_config_error(tmp_path):
    rc = main([
        "triage", "--reports", str(data_file("edge_case_reports.jsonl")),
        "--mode", "direct", "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 2


def test_growth_pipeline_chain(tmp_path, capsys):
    from normcharts.cli import _default_truth
    from normcharts.phenotype import synth_cohort, write_phenotype_csv

    cfg = PipelineConfig(n_scanners=5)
    records = synth_cohort(seed=4, n_sessions=120, n_scanners=5,
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


@pytest.mark.parametrize("damage", ["intact", "truncated", "padded"])
def test_eval_rejects_model_file_of_wrong_size(tmp_path, capsys, damage):
    import numpy as np

    from normcharts.classifier import FeatureConfig, LinearModel, save_model

    model_path = tmp_path / "model.bin"
    save_model(LinearModel(weights=np.zeros(1 << 10), bias=0.0,
                           config=FeatureConfig(dimension=1 << 10), pos_weight=10.0),
               model_path)
    blob = model_path.read_bytes()
    model_path.write_bytes({"intact": blob, "truncated": blob[:-1], "padded": blob + b"\0"}[damage])
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
    assert str(model_path) in err and "Traceback" not in err


@pytest.mark.parametrize("points", ["1", "0", "-3"])
def test_curves_rejects_fewer_than_two_points(tmp_path, capsys, points):
    rc = main(["curves", "--model", str(tmp_path / "absent.json"),
               "--points", points, "--out", str(tmp_path / "curves.csv")])
    assert rc == 2
    assert "--points" in capsys.readouterr().err
    assert not (tmp_path / "curves.csv").exists()


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


# sha256 of the artifacts below, recorded from the scalar-loop classifier; any
# change to hashing, the design matrix or the SGD arithmetic shows up here.
GOLDEN_EXP2 = {
    "metrics.csv": "8cebc2c482df82d05db4f3e9f473f224ba01553c0f84447839fb2588c780a141",
    "model-seed1.bin": "0f7350aa3d1f8a2547fd0ec076089b06ff9e54fc7fe8231774150f8a1d6c95a3",
    "model-seed2.bin": "4d35ca8c20361236117a83cf7a90c28e3ffe518b3465f459ee35ae206465d962",
}


def test_exp2_weighted_golden_digests(tmp_path):
    cfg = PipelineConfig(out_dir=str(tmp_path), seeds=(1, 2), synth_n=400,
                         dimension=1 << 12, epochs=20)
    run_dir = run_experiment("exp2_weighted", cfg, timestamp="t0")
    digests = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
               for name in GOLDEN_EXP2}
    assert digests == GOLDEN_EXP2


def test_experiment_names():
    assert EXPERIMENTS == (
        "exp1_balanced", "exp2_weighted", "exp3_ood",
        "exp4_impression", "exp5_stepwise", "exp6_growthcharts",
    )
