"""Command-line pipeline driver.

Subcommands cover each pipeline stage (ingest through compare) plus
run-experiment, which executes one of six named end-to-end protocols into a
timestamped run directory with the resolved configuration echoed alongside
the artifacts.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

import argparse
import configparser
import contextlib
import csv
import datetime
import io
import json
import sys
from dataclasses import Field, asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import classifier, corpus, growthchart, labeling, metrics, phenotype, stepwise
from .errors import ConfigError, DataError, EmptyInput, NormchartsError, NumericalError, located
from .labeling import Label
from .phenotype import BOOLEANS, AggregationMethod, Region
from .report_text import InputMode, Report, Sex, compose_input, load_reports_jsonl
from .synthcorpus import synth_reports

EXPERIMENTS = (
    "exp1_balanced",
    "exp2_weighted",
    "exp3_ood",
    "exp4_impression",
    "exp5_stepwise",
    "exp6_growthcharts",
)

DEFAULT_SEEDS = (11, 23, 37, 41, 53)


def data_file(name: str) -> Path:
    """Path of a bundled data file (edge-case fixture and friends)."""
    return Path(str(resources.files("normcharts").joinpath("data", name)))


# The three sections of config.ini, as the metadata of the PipelineConfig fields each holds.
_PATHS, _TRAIN, _GROWTH = ({"section": name} for name in ("paths", "train", "growth"))


@dataclass
class PipelineConfig:
    """The settings of run-experiment; the fields are declared in config.ini's order."""

    reports_path: Optional[str] = field(default=None, metadata=_PATHS)
    annotations_path: Optional[str] = field(default=None, metadata=_PATHS)
    phenotypes_path: Optional[str] = field(default=None, metadata=_PATHS)
    fixture_path: Optional[str] = field(default=None, metadata=_PATHS)
    gold_path: Optional[str] = field(default=None, metadata=_PATHS)
    out_dir: str = field(default="runs", metadata=_PATHS)
    seeds: tuple[int, ...] = field(default=DEFAULT_SEEDS, metadata=_TRAIN)
    pos_weight: float = field(default=classifier.TrainConfig.pos_weight, metadata=_TRAIN)
    epochs: int = field(default=classifier.TrainConfig.epochs, metadata=_TRAIN)
    learning_rate: float = field(default=classifier.TrainConfig.learning_rate, metadata=_TRAIN)
    dimension: int = field(default=classifier.FeatureConfig.dimension, metadata=_TRAIN)
    cutoff_year: int = field(default=2018, metadata=_TRAIN)
    holdout_site: Optional[str] = field(default=None, metadata=_TRAIN)
    synth_n: int = field(default=5000, metadata=_TRAIN)
    abnormal_fraction: float = field(default=0.92, metadata=_TRAIN)
    n_sessions: int = field(default=800, metadata=_GROWTH)
    n_scanners: int = field(default=5, metadata=_GROWTH)
    ridge_lambda: float = field(default=growthchart.FitOptions.ridge_lambda, metadata=_GROWTH)
    sigma_age: bool = field(default=growthchart.FitOptions.sigma_age, metadata=_GROWTH)
    fp1_only: bool = field(default=True, metadata=_GROWTH)
    region: str = field(default=Region.CORTICAL_GM.value, metadata=_GROWTH)

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.region not in {r.value for r in Region}:
            raise ConfigError(
                f"unknown region {self.region!r}; choose from {[r.value for r in Region]}"
            )
        if min(self.n_sessions, self.n_scanners) < 1:
            raise ConfigError(
                f"n_sessions and n_scanners must be >= 1, got {self.n_sessions} and {self.n_scanners}"
            )
        if self.synth_n < 1:
            raise ConfigError(f"synth_n must be >= 1, got {self.synth_n}")
        if not 0.0 < self.abnormal_fraction < 1.0:  # false for nan too
            raise ConfigError(f"abnormal_fraction must be in (0, 1), got {self.abnormal_fraction}")
        # the settings objects the protocols build check the rest, before any run directory exists
        classifier.TrainConfig(
            pos_weight=self.pos_weight, learning_rate=self.learning_rate, epochs=self.epochs
        )
        classifier.FeatureConfig(self.dimension)
        growthchart.FitOptions(sigma_age=self.sigma_age, ridge_lambda=self.ridge_lambda)

    def to_ini(self) -> str:
        cp = configparser.ConfigParser(interpolation=None)
        for section, key, f in _ini_fields():
            value = getattr(self, f.name)
            # an unset path is left out; an unset holdout_site is written as ""
            if value is not None or key == f.name:
                cp.read_dict({section: {key: _format_value(value)}})
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()


def _ini_fields() -> list[tuple[str, str, Field]]:
    """(section, key, field) per PipelineConfig field; a key is the name without "_path"."""
    return [(f.metadata["section"], f.name.removesuffix("_path"), f) for f in fields(PipelineConfig)]


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return "" if value is None else str(value)


def _parse_value(f: Field, text: str):
    """Read one INI value by the field's type; bad numbers or booleans raise ValueError."""
    if f.type == tuple[int, ...]:
        return tuple(int(s) for s in text.split(",")) if text else f.default
    if f.type is bool:
        if text.lower() not in BOOLEANS:
            raise ValueError(f"{f.name} must be one of {'/'.join(BOOLEANS)}, got {text!r}")
        return BOOLEANS[text.lower()]
    if f.type == Optional[str]:
        return text or None
    return f.type(text)


def load_config(path: Optional[str]) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    # no % interpolation: a value is read back exactly as to_ini wrote it
    cp = configparser.ConfigParser(interpolation=None)
    values = {}
    try:
        if not cp.read(path):
            raise ConfigError(f"config file not found: {path}")
        for section, key, f in _ini_fields():
            text = cp.get(section, key, fallback=None)
            if text is not None:
                values[f.name] = _parse_value(f, text)
    except configparser.Error as e:
        # configparser's messages span several lines; the CLI prints one
        raise ConfigError(f"{path}: {' '.join(str(e).split())}") from e
    except ValueError as e:
        raise ConfigError(f"bad config value: {e}") from e
    return PipelineConfig(**values)


def _load_csv_map(path, key: str, column: str, parse) -> dict:
    """Map each row's `key` to parse(its `column`); a bad or repeated row, a
    csv.Error or a byte that is not UTF-8 is a DataError at path:line."""
    out = {}
    with open(path, encoding="utf-8", newline="") as f, located(path, csv.DictReader(f)) as reader:
        missing = sorted({key, column} - set(reader.fieldnames or ()))
        if missing:
            raise DataError(f"{path}:1: missing column(s) {missing}")
        for row in reader:
            if row[key] in out:
                raise DataError(f"{path}:{reader.line_num}: repeated {key} {row[key]!r}")
            try:
                out[row[key]] = parse(row[column])
            except (TypeError, ValueError) as e:
                raise DataError(f"{path}:{reader.line_num}: {e}") from e
    return out


def _parse_centile(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # false for nan too
        raise ValueError(f"centile must be a number in [0, 1], got {text!r}")
    return value


def _load_labels_csv(path) -> dict[str, Label]:
    return _load_csv_map(path, "report_id", "label", Label)


def _write_csv_map(path, key: str, column: str, mapping: dict) -> None:
    """The file _load_csv_map reads: one row per key in sorted order, enum values."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow([key, column])
        for k in sorted(mapping):
            w.writerow([k, mapping[k].value])


def _write_triage_csv(path, records: list[stepwise.StepwiseRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["report_id"] + [q.value for q in stepwise.QuestionId] + ["label"])
        for rec in records:
            w.writerow(
                [rec.report_id]
                + [rec.answers[q].value for q in stepwise.QuestionId]
                + [rec.label.value]
            )


def _write_curves_csv(path, model: growthchart.GrowthModel, ages: list[float], sex: Sex) -> None:
    curves = growthchart.percentile_curves(model, ages, sex)
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(list(curves))
        columns = [c.tolist() for c in curves.values()]
        w.writerows([f"{v:.4f}" for v in row] for row in zip(*columns))


def _print_metrics(result: metrics.EvalResult) -> None:
    for name in metrics.METRIC_NAMES:
        value = result.metric(name)
        print(f"{name}: {'undefined' if value is None else f'{value:.4f}'}")


def _fit_options(fp1_only: bool, sigma_age: bool, ridge_lambda: float) -> growthchart.FitOptions:
    candidates = None
    if fp1_only:
        candidates = [growthchart.FpSpec(1, (p,)) for p in growthchart.FP_POWERS]
    return growthchart.FitOptions(
        fp_candidates=candidates, sigma_age=sigma_age, ridge_lambda=ridge_lambda
    )


def _examples(
    reports: list[Report],
    ids: set[str],
    labels: dict[str, Label],
    mode: InputMode,
) -> tuple[list[str], list[tuple[str, Label]]]:
    """Report ids and (input, label) pairs of the reports in `ids` labelled
    Normal or Abnormal, in corpus order."""
    known = (Label.NORMAL, Label.ABNORMAL)
    chosen = [r for r in reports if r.id in ids and labels.get(r.id) in known]
    return [r.id for r in chosen], [(compose_input(r, mode), labels[r.id]) for r in chosen]


@contextlib.contextmanager
def _naming_reports(path, report_ids: list[str]):
    """Name the report behind a classifier input that has no tokens."""
    try:
        yield
    except EmptyInput as e:
        if e.row is None:
            raise
        raise EmptyInput(
            f"{path}: report {report_ids[e.row]!r} has no tokens after normalization"
        ) from None


def _train(path, reports, ids, labels, mode, tcfg, fcfg=None) -> classifier.LinearModel:
    report_ids, examples = _examples(reports, ids, labels, mode)
    with _naming_reports(path, report_ids):
        return classifier.train(examples, tcfg, fcfg)


def _evaluate_model(path, model, reports, ids, labels, mode) -> metrics.EvalResult:
    report_ids, examples = _examples(reports, ids, labels, mode)
    with _naming_reports(path, report_ids):
        preds = classifier.classify(model, [text for text, _ in examples])
    return metrics.confusion(preds, [label for _, label in examples])


# ---------------------------------------------------------------------------
# experiment protocols


def _labels(reports: list[Report], annotations_path: Optional[str]) -> dict[str, Label]:
    """Reference labels of `reports`, with the annotations file if one is given."""
    annotations = labeling.load_annotations_jsonl(annotations_path) if annotations_path else []
    return labeling.label_reports(reports, annotations)


def _corpus_for(cfg: PipelineConfig):
    if cfg.reports_path:
        reports = load_reports_jsonl(cfg.reports_path)
        return reports, _labels(reports, cfg.annotations_path)
    return synth_reports(seed=0, n=cfg.synth_n, abnormal_fraction=cfg.abnormal_fraction)


def _classifier_experiment(name: str, cfg: PipelineConfig, run_dir: Path) -> list[metrics.MetricRow]:
    """exp1-exp4: per seed, split the training pool, train, save, and score the
    seed's test subset plus any fixed evaluation sets; then summarize each set."""
    balanced = name == "exp1_balanced"
    mode = InputMode.IMPRESSION_ONLY if name == "exp4_impression" else InputMode.FULL_REPORT
    keys = {
        "model": "linear",
        "experiment": name,
        "distribution": "balanced" if balanced else "unbalanced",
    }
    pool, labels = _corpus_for(cfg)
    fixed_sets = []
    if name == "exp3_ood":
        pool, ood = corpus.ood_partition(pool, cfg.cutoff_year, cfg.holdout_site)
        if not pool or not ood:
            raise DataError("OOD partition left one side empty; adjust cutoff_year")
        fixed_sets.append(("ood", ood, {r.id for r in ood}))
    rows: list[metrics.MetricRow] = []
    results: dict[str, list[metrics.EvalResult]] = {}
    for seed in cfg.seeds:
        assignment = corpus.split(pool, seed, labels=labels)
        train_ids = assignment.ids(corpus.Subset.TRAIN)
        if balanced:
            train_ids = corpus.balance(train_ids, labels, seed)
        tcfg = classifier.TrainConfig(
            pos_weight=1.0 if balanced else cfg.pos_weight,
            learning_rate=cfg.learning_rate,
            epochs=cfg.epochs,
            seed=seed,
        )
        fcfg = classifier.FeatureConfig(dimension=cfg.dimension)
        model = _train(cfg.reports_path, pool, set(train_ids), labels, mode, tcfg, fcfg)
        classifier.save_model(model, run_dir / f"model-seed{seed}.bin")
        test_set = ("test", pool, set(assignment.ids(corpus.Subset.TEST)))
        for eval_name, eval_pool, ids in [test_set] + fixed_sets:
            result = _evaluate_model(cfg.reports_path, model, eval_pool, ids, labels, mode)
            results.setdefault(eval_name, []).append(result)
            rows.extend(metrics.result_rows(result, **keys, evaluation_set=eval_name, seed=seed))
    for eval_name, bucket in results.items():
        rows.extend(
            metrics.summary_rows(metrics.seed_summary(bucket), **keys, evaluation_set=eval_name)
        )
    return rows


def _stepwise_experiment(cfg: PipelineConfig, run_dir: Path) -> list[metrics.MetricRow]:
    reports_path = cfg.reports_path or data_file("edge_case_reports.jsonl")
    fixture_path = cfg.fixture_path or data_file("edge_case_responses.tsv")
    gold_path = cfg.gold_path or data_file("edge_case_gold.csv")
    reports = load_reports_jsonl(reports_path)
    gold = _load_labels_csv(gold_path)
    source = stepwise.FixtureAnswerSource(fixture_path)
    rows: list[metrics.MetricRow] = []
    for mode in (stepwise.InquiryMode.DIRECT, stepwise.InquiryMode.STEPWISE):
        records = [stepwise.run_inquiry(r, mode, source) for r in reports]
        _write_triage_csv(run_dir / f"triage-{mode.value}.csv", records)
        rows.extend(
            metrics.result_rows(
                stepwise.evaluate_inquiry(records, gold),
                model=mode.value,
                experiment="exp5_stepwise",
                distribution="edge-cases",
                evaluation_set="referee",
                seed=0,
            )
        )
    return rows


def _default_truth(cfg: PipelineConfig) -> growthchart.GrowthModel:
    shifts = [0.06, -0.04, 0.02, -0.05, 0.01]
    scanners = {f"scan-{i:02d}": shifts[i % len(shifts)] for i in range(cfg.n_scanners)}
    mean_shift = sum(scanners.values()) / len(scanners)
    scanners = {k: v - mean_shift for k, v in scanners.items()}
    return growthchart.GrowthModel(
        region=Region(cfg.region),
        fp_mu=growthchart.FpSpec(1, (0.5,)),
        mu_coef=(12.2, 0.12, -0.05),
        fp_sigma=None,
        sigma_coef=(-2.12,),
        nu=1.5,
        scanner_intercepts=scanners,
    )


def _growth_experiment(cfg: PipelineConfig, run_dir: Path) -> list[metrics.MetricRow]:
    if cfg.phenotypes_path:
        table = phenotype.load_phenotype_csv(cfg.phenotypes_path)
    else:
        truth = _default_truth(cfg)
        table = phenotype.synth_cohort(
            seed=cfg.seeds[0],
            n_sessions=cfg.n_sessions,
            n_scanners=cfg.n_scanners,
            truth=truth,
        )
    sessions, attrition = phenotype.build_sessions(
        table, AggregationMethod.MEDIAN_ALL_SEQUENCES
    )
    with open(run_dir / "attrition.json", "w", encoding="utf-8") as f:
        json.dump({k.removeprefix("n_"): v for k, v in asdict(attrition).items()}, f, indent=2)
        f.write("\n")
    region = Region(cfg.region)
    # two overlapping subsets sharing 92% of sessions, as row indices
    n = len(sessions)
    n_shared = round(0.92 * n)
    shared, only_a, only_b = np.split(np.arange(n), [n_shared, n_shared + (n - n_shared) // 2])
    options = _fit_options(cfg.fp1_only, cfg.sigma_age, cfg.ridge_lambda)
    model_a = growthchart.fit(sessions.take(np.concatenate([shared, only_a])), region, options)
    model_b = growthchart.fit(sessions.take(np.concatenate([shared, only_b])), region, options)
    for tag, model in (("A", model_a), ("B", model_b)):
        if not model.converged:
            import logging  # here, so that importing the CLI stays as cheap as it is

            logging.getLogger(__name__).warning(
                "growth model %s for %s did not converge (FP powers %s)",
                tag, region.value, ", ".join(f"{q:g}" for q in model.fp_mu.powers),
            )
    growthchart.save_growth_model(run_dir / "growth-model-a.json", model_a)
    growthchart.save_growth_model(run_dir / "growth-model-b.json", model_b)
    r = growthchart.compare_centiles(
        growthchart.centile(model_a, sessions), growthchart.centile(model_b, sessions)
    )
    _write_curves_csv(run_dir / "curves.csv", model_a, [1.0 + i * 0.5 for i in range(38)], Sex.F)
    return [
        metrics.metric_row(
            model="growth",
            experiment="exp6_growthcharts",
            distribution="synthetic",
            evaluation_set="union",
            seed=cfg.seeds[0],
            metric="pearson_r",
            value=r,
        )
    ]


def run_experiment(name: str, cfg: PipelineConfig, timestamp: Optional[str] = None) -> Path:
    """Execute one named protocol; returns the run directory it wrote."""
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    stamp = timestamp or datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    run_dir = Path(cfg.out_dir) / f"{name}-{stamp}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.ini").write_text(cfg.to_ini(), encoding="utf-8")
    if name == "exp5_stepwise":
        rows = _stepwise_experiment(cfg, run_dir)
    elif name == "exp6_growthcharts":
        rows = _growth_experiment(cfg, run_dir)
    else:
        rows = _classifier_experiment(name, cfg, run_dir)
    metrics.write_results_csv(run_dir / "metrics.csv", rows)
    return run_dir


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args) -> int:
    reports = load_reports_jsonl(args.reports)
    kinds: dict[str, int] = {}
    for r in reports:
        for kind in r.sections:
            kinds[kind.value] = kinds.get(kind.value, 0) + 1
    print(f"reports: {len(reports)}")
    for kind in sorted(kinds):
        print(f"sections[{kind}]: {kinds[kind]}")
    return 0


def _cmd_label(args) -> int:
    reports = load_reports_jsonl(args.reports)
    labels = _labels(reports, args.annotations)
    _write_csv_map(args.out, "report_id", "label", labels)
    print(f"labeled {len(labels)} of {len(reports)} reports -> {args.out}")
    return 0


def _cmd_split(args) -> int:
    reports = load_reports_jsonl(args.reports)
    labels = _load_labels_csv(args.labels) if args.labels else None
    assignment = corpus.split(reports, args.seed, labels=labels)
    _write_csv_map(args.out, "report_id", "subset", assignment.assignment)
    for subset in corpus.Subset:
        print(f"{subset.value}: {len(assignment.ids(subset))}")
    return 0


def _subset_ids(split_path, subset: corpus.Subset) -> set[str]:
    split_map = _load_csv_map(split_path, "report_id", "subset", corpus.Subset)
    return {rid for rid, s in split_map.items() if s is subset}


def _cmd_train(args) -> int:
    reports = load_reports_jsonl(args.reports)
    labels = _load_labels_csv(args.labels)
    train_ids = _subset_ids(args.split, corpus.Subset.TRAIN)
    if args.balanced:
        train_ids = set(corpus.balance(sorted(train_ids), labels, args.seed))
    mode = InputMode(args.input_mode)
    tcfg = classifier.TrainConfig(
        pos_weight=args.pos_weight,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        seed=args.seed,
    )
    model = _train(args.reports, reports, train_ids, labels, mode, tcfg)
    classifier.save_model(model, args.out)
    print(f"trained on {len(train_ids)} reports, final loss {model.final_loss:.6f} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    reports = load_reports_jsonl(args.reports)
    labels = _load_labels_csv(args.labels)
    subset = corpus.Subset(args.subset)
    ids = _subset_ids(args.split, subset)
    model = classifier.load_model(args.model)
    mode = InputMode(args.input_mode)
    result = _evaluate_model(args.reports, model, reports, ids, labels, mode)
    rows = metrics.result_rows(
        result,
        model="linear",
        experiment="eval",
        distribution="as-given",
        evaluation_set=subset.value,
        seed="-",
    )
    metrics.write_results_csv(args.out, rows)
    _print_metrics(result)
    return 0


def _cmd_triage(args) -> int:
    reports = load_reports_jsonl(args.reports)
    gold = _load_labels_csv(args.gold) if args.gold else None
    if args.fixture:
        source = stepwise.FixtureAnswerSource(args.fixture)
    elif args.endpoint:
        source = stepwise.HttpAnswerSource(args.endpoint, args.model_name)
    else:
        raise ConfigError("triage needs --fixture or --endpoint")
    mode = stepwise.InquiryMode(args.mode)
    records = [stepwise.run_inquiry(r, mode, source) for r in reports]
    # a gold file that misses a report fails before --out is written
    scores = None if gold is None else stepwise.evaluate_inquiry(records, gold)
    _write_triage_csv(args.out, records)
    failed = sum(v is stepwise.Verdict.FAILED for rec in records for v in rec.answers.values())
    if failed:
        import logging  # here, so that importing the CLI stays as cheap as it is

        logging.getLogger(__name__).warning(
            "%d answers are Failed: every try at the endpoint was a transport error", failed
        )
    print(f"triaged {len(records)} reports -> {args.out}")
    if scores is not None:
        _print_metrics(scores)
    return 0


def _cmd_qc(args) -> int:
    table = phenotype.load_phenotype_csv(args.phenotypes)
    kept = phenotype.qc_filter(table)
    phenotype.write_phenotype_csv(args.out, kept)
    print(f"kept {len(kept)} of {len(table)} sequences -> {args.out}")
    return 0


def _sessions(args) -> tuple[phenotype.SessionTable, phenotype.AttritionReport]:
    """The sessions of the --phenotypes file, aggregated by --method."""
    table = phenotype.load_phenotype_csv(args.phenotypes)
    return phenotype.build_sessions(table, AggregationMethod(args.method))


def _cmd_aggregate(args) -> int:
    sessions, attrition = _sessions(args)
    phenotype.write_sessions_csv(args.out, sessions)
    print(
        f"sessions: {attrition.n_input_sessions} in, {attrition.n_output_sessions} out, "
        f"{attrition.dropped_qc} dropped by QC, {attrition.dropped_no_mprage} without MPRAGE"
    )
    return 0


def _cmd_fit_growth(args) -> int:
    sessions, _ = _sessions(args)
    options = _fit_options(args.fp1_only, not args.no_sigma_age, args.ridge_lambda)
    model = growthchart.fit(sessions, Region(args.region), options)
    growthchart.save_growth_model(args.out, model)
    print(
        f"fitted {args.region} on {len(sessions)} sessions: "
        f"powers {model.fp_mu.powers}, nu {model.nu:.4f}, bic {model.bic:.2f}, "
        f"converged {model.converged} -> {args.out}"
    )
    return 0


def _cmd_centiles(args) -> int:
    model = growthchart.load_growth_model(args.model)
    sessions, _ = _sessions(args)
    centiles = growthchart.centile(model, sessions).tolist()
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["session_id", "centile"])
        w.writerows([sid, f"{c:.6f}"] for sid, c in zip(sessions.session_id.tolist(), centiles))
    print(f"centiles for {len(sessions)} sessions -> {args.out}")
    return 0


def _cmd_curves(args) -> int:
    n = args.points
    if n < 2:
        raise ConfigError(f"--points must be at least 2, got {n}")
    for flag, age in (("--age-min", args.age_min), ("--age-max", args.age_max)):
        if not 0.0 < age < float("inf"):  # false for nan too
            raise ConfigError(f"{flag} must be a positive finite age in years, got {age}")
    model = growthchart.load_growth_model(args.model)
    ages = [args.age_min + i * (args.age_max - args.age_min) / (n - 1) for i in range(n)]
    _write_curves_csv(args.out, model, ages, Sex(args.sex))
    print(f"{n} grid points -> {args.out}")
    return 0


def _cmd_compare(args) -> int:
    a = _load_csv_map(args.a, "session_id", "centile", _parse_centile)
    b = _load_csv_map(args.b, "session_id", "centile", _parse_centile)
    shared = sorted(set(a) & set(b))
    if len(shared) < 3:
        raise DataError(f"only {len(shared)} shared sessions between the two files")
    r = growthchart.compare_centiles([a[s] for s in shared], [b[s] for s in shared])
    print(f"pearson_r: {r:.6f} over {len(shared)} shared sessions")
    return 0


def _cmd_run_experiment(args) -> int:
    cfg = load_config(args.config)
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seeds = (args.seed,)
    run_dir = run_experiment(args.name, cfg)
    print(f"run directory: {run_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normcharts",
        description="Report triage and normative growth-chart pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a reports JSONL file")
    p.add_argument("--reports", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("label", help="derive reference labels")
    p.add_argument("--reports", required=True)
    p.add_argument("--annotations")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("split", help="seeded train/val/test assignment")
    p.add_argument("--reports", required=True)
    p.add_argument("--labels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train the linear report classifier")
    p.add_argument("--reports", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pos-weight", type=float, default=classifier.TrainConfig.pos_weight)
    p.add_argument("--learning-rate", type=float, default=classifier.TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=classifier.TrainConfig.epochs)
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--input-mode", choices=[m.value for m in InputMode], default="full")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained classifier")
    p.add_argument("--model", required=True)
    p.add_argument("--reports", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--subset", choices=[s.value for s in corpus.Subset], default="Test")
    p.add_argument("--input-mode", choices=[m.value for m in InputMode], default="full")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("triage", help="run the direct or stepwise inquiry")
    p.add_argument("--reports", required=True)
    p.add_argument("--mode", choices=[m.value for m in stepwise.InquiryMode], required=True)
    p.add_argument("--fixture")
    p.add_argument("--endpoint")
    p.add_argument("--model-name", default="default")
    p.add_argument("--gold")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_triage)

    p = sub.add_parser("qc", help="drop sequences failing any QC category")
    p.add_argument("--phenotypes", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_qc)

    p = sub.add_parser("aggregate", help="collapse sequences to sessions")
    p.add_argument("--phenotypes", required=True)
    p.add_argument("--method", choices=[m.value for m in AggregationMethod], default="median")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("fit-growth", help="fit the normative growth model")
    p.add_argument("--phenotypes", required=True)
    p.add_argument("--region", choices=[r.value for r in Region], required=True)
    p.add_argument("--method", choices=[m.value for m in AggregationMethod], default="median")
    p.add_argument("--ridge-lambda", type=float, default=growthchart.FitOptions.ridge_lambda)
    p.add_argument("--no-sigma-age", action="store_true")
    p.add_argument("--fp1-only", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_growth)

    p = sub.add_parser("centiles", help="score sessions against a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--phenotypes", required=True)
    p.add_argument("--method", choices=[m.value for m in AggregationMethod], default="median")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_centiles)

    p = sub.add_parser(
        "curves", aliases=["plot-data"], help="emit percentile curve grid points"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--sex", choices=["M", "F"], default="F")
    p.add_argument("--age-min", type=float, default=0.5)
    p.add_argument("--age-max", type=float, default=19.0)
    p.add_argument("--points", type=int, default=38)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("compare", help="Pearson r between two centile files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("run-experiment", help="execute a named end-to-end protocol")
    p.add_argument("name", choices=EXPERIMENTS)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_run_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    except NormchartsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
