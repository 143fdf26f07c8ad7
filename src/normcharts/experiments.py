"""The named end-to-end protocols behind run-experiment, their settings, and
the file readers and writers they share with the subcommands."""

import configparser
import contextlib
import datetime
import io
import itertools
import json
import shutil
from dataclasses import Field, asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Collection, Optional

import numpy as np

from . import classifier, corpus, growthchart, labeling, metrics, phenotype, stepwise
from .errors import (
    ConfigError, DataError, EmptyInput, NumericalError, csv_rows, warn, write_number_csv, write_rows,
)
from .labeling import Label
from .phenotype import AggregationMethod, Region, parse_boolean
from .report_text import InputMode, Report, Sex, compose_input, load_reports_jsonl
from .synthcorpus import synth_cohort, synth_reports

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
        if len({seed & corpus.MASK64 for seed in self.seeds}) < len(self.seeds):
            raise ConfigError(f"seeds must differ modulo 2^64, got {_format_value(self.seeds)}")
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
        return parse_boolean(text, f.name)
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


# files the protocols and the subcommands both read or write


def load_csv_map(path, key: str, column: str, parse) -> dict:
    """Map each row's `key` to parse(its `column`); a row errors.csv_rows
    rejects, a repeated key or a value `parse` rejects is a DataError at
    path:line."""
    out = {}
    for line, (k, value) in csv_rows(path, (key, column)):
        if k in out:
            raise DataError(f"{path}:{line}: repeated {key} {k!r}")
        try:
            out[k] = parse(value)
        except ValueError as e:
            raise DataError(f"{path}:{line}: {e}") from e
    return out


def write_csv_map(path, key: str, column: str, mapping: dict) -> None:
    """The file load_csv_map reads: one row per key in sorted order, enum values."""
    write_rows(path, [key, column], ([k, mapping[k].value] for k in sorted(mapping)))


def load_labels_csv(path) -> dict[str, Label]:
    return load_csv_map(path, "report_id", "label", Label)


def write_triage_csv(path, records: list[stepwise.StepwiseRecord]) -> None:
    questions = list(stepwise.QuestionId)
    rows = ([rec.report_id, *(rec.answers[q].value for q in questions), rec.label.value] for rec in records)
    write_rows(path, ["report_id", *(q.value for q in questions), "label"], rows)


def write_curves_csv(path, model: growthchart.GrowthModel, ages: list[float], sex: Sex) -> None:
    curves = growthchart.percentile_curves(model, ages, sex)
    write_number_csv(path, list(curves), (), np.column_stack(list(curves.values())), ["%.4f"] * len(curves))


# steps the protocols and the subcommands share


def fit_options(fp1_only: bool, sigma_age: bool, ridge_lambda: float) -> growthchart.FitOptions:
    candidates = [spec for spec in growthchart.fp_candidates() if spec.order == 1] if fp1_only else None
    return growthchart.FitOptions(
        fp_candidates=candidates, sigma_age=sigma_age, ridge_lambda=ridge_lambda
    )


def _examples(
    path,
    reports: list[Report],
    ids: set[str],
    labels: dict[str, Label],
    mode: InputMode,
) -> tuple[list[str], list[tuple[str, Label]]]:
    """Report ids and (input, label) pairs of the reports in `ids` labelled
    Normal or Abnormal, in corpus order; a report with no input is named at `path`."""
    known = (Label.NORMAL, Label.ABNORMAL)
    chosen = [r for r in reports if r.id in ids and labels.get(r.id) in known]
    try:
        return [r.id for r in chosen], [(compose_input(r, mode), labels[r.id]) for r in chosen]
    except EmptyInput as e:
        raise EmptyInput(f"{path}: {e.problem}") from None


@contextlib.contextmanager
def _naming_reports(path, report_ids: list[str]):
    """Name the report behind a classifier input that has no tokens or a margin that is not finite."""
    try:
        yield
    except (EmptyInput, NumericalError) as e:
        if e.row is None:
            raise
        raise type(e)(f"{path}: report {report_ids[e.row]!r} {e.problem}") from None


def _training_design(path, reports, train_sets: list[Collection[str]], labels, mode, fcfg):
    """classifier.design over the union of the training sets, and each set's rows of it as a
    mask: the union is in classifier.training_order, so a set's rows, ascending, are its own
    design's."""
    report_ids, examples = _examples(path, reports, set().union(*train_sets), labels, mode)
    order = classifier.training_order(examples)
    with _naming_reports(path, report_ids):
        X, y = classifier.design(examples, fcfg, order)
    report_ids = [report_ids[i] for i in order]
    return X, y, [np.array([rid in ids for rid in report_ids], dtype=bool) for ids in map(set, train_sets)]


def train_classifier(path, reports, ids, labels, mode, tcfg) -> classifier.LinearModel:
    X, y, _ = _training_design(path, reports, [ids], labels, mode, classifier.FeatureConfig())
    return classifier.train(X, y, tcfg)


def evaluate_classifier(path, model, reports, ids, labels, mode) -> metrics.EvalResult:
    report_ids, examples = _examples(path, reports, ids, labels, mode)
    with _naming_reports(path, report_ids):
        preds = classifier.classify(model, [text for text, _ in examples])
    return metrics.confusion(preds, [label for _, label in examples])


# protocols: each takes its name, the settings and the run directory, writes
# its artifacts there and returns the rows of metrics.csv


def _corpus_for(cfg: PipelineConfig):
    if cfg.reports_path:
        reports = load_reports_jsonl(cfg.reports_path)
        annotations = labeling.load_annotations_jsonl(cfg.annotations_path) if cfg.annotations_path else []
        return reports, labeling.label_reports(reports, annotations)
    return synth_reports(seed=0, n=cfg.synth_n, abnormal_fraction=cfg.abnormal_fraction)


def _classifier_experiment(name: str, cfg: PipelineConfig, run_dir: Path) -> list[metrics.MetricRow]:
    """exp1-exp4, checked in one order: split every seed, and balance each for exp1; compose, check
    and featurize every seed's training reports at once; then per seed train on its rows, save,
    and score the seed's test subset plus any fixed evaluation sets.  Last, summarize each set."""
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
    fcfg = classifier.FeatureConfig(dimension=cfg.dimension)

    assignments = [corpus.split(pool, seed, labels=labels) for seed in cfg.seeds]
    train_sets = [assignment.ids(corpus.Subset.TRAIN) for assignment in assignments]
    if balanced:
        train_sets = [corpus.balance(ids, labels, seed) for ids, seed in zip(train_sets, cfg.seeds)]
    X, y, seed_rows = _training_design(cfg.reports_path, pool, train_sets, labels, mode, fcfg)
    rows: list[metrics.MetricRow] = []
    results: dict[str, list[metrics.EvalResult]] = {}
    for seed, assignment, own in zip(cfg.seeds, assignments, seed_rows):
        tcfg = classifier.TrainConfig(pos_weight=1.0 if balanced else cfg.pos_weight,
                                      learning_rate=cfg.learning_rate, epochs=cfg.epochs, seed=seed)
        model = classifier.train(X.take_rows(own), y[own], tcfg)
        classifier.save_model(model, run_dir / f"model-seed{seed}.bin")
        test_set = ("test", pool, set(assignment.ids(corpus.Subset.TEST)))
        for eval_name, eval_pool, ids in [test_set] + fixed_sets:
            result = evaluate_classifier(cfg.reports_path, model, eval_pool, ids, labels, mode)
            results.setdefault(eval_name, []).append(result)
            rows.extend(metrics.result_rows(result, **keys, evaluation_set=eval_name, seed=seed))
    for eval_name, bucket in results.items():
        rows.extend(
            metrics.summary_rows(metrics.seed_summary(bucket), **keys, evaluation_set=eval_name)
        )
    return rows


def _stepwise_experiment(name: str, cfg: PipelineConfig, run_dir: Path) -> list[metrics.MetricRow]:
    reports_path = cfg.reports_path or data_file("edge_case_reports.jsonl")
    fixture_path = cfg.fixture_path or data_file("edge_case_responses.tsv")
    gold_path = cfg.gold_path or data_file("edge_case_gold.csv")
    reports = load_reports_jsonl(reports_path)
    gold = load_labels_csv(gold_path)
    source = stepwise.FixtureAnswerSource(fixture_path)
    rows: list[metrics.MetricRow] = []
    for mode in (stepwise.InquiryMode.DIRECT, stepwise.InquiryMode.STEPWISE):
        records = [stepwise.run_inquiry(r, mode, source) for r in reports]
        write_triage_csv(run_dir / f"triage-{mode.value}.csv", records)
        rows.extend(
            metrics.result_rows(
                stepwise.evaluate_inquiry(records, gold),
                model=mode.value,
                experiment=name,
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


def _growth_experiment(name: str, cfg: PipelineConfig, run_dir: Path) -> list[metrics.MetricRow]:
    if cfg.phenotypes_path:
        table = phenotype.load_phenotype_csv(cfg.phenotypes_path)
    else:
        table = synth_cohort(cfg.seeds[0], cfg.n_sessions, _default_truth(cfg))
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
    options = fit_options(cfg.fp1_only, cfg.sigma_age, cfg.ridge_lambda)
    model_a = growthchart.fit(sessions.take(np.concatenate([shared, only_a])), region, options)
    # warm: B starts each candidate at A's optimum for its basis, where A's converged
    model_b = growthchart.fit(sessions.take(np.concatenate([shared, only_b])), region, options, model_a.search)
    for tag, model in (("A", model_a), ("B", model_b)):
        if not model.converged:
            warn(__name__, "growth model %s for %s did not converge (FP powers %s)",
                 tag, region.value, ", ".join(f"{q:g}" for q in model.fp_mu.powers))
    growthchart.save_growth_model(run_dir / "growth-model-a.json", model_a)
    growthchart.save_growth_model(run_dir / "growth-model-b.json", model_b)
    r = growthchart.compare_centiles(
        growthchart.centile(model_a, sessions), growthchart.centile(model_b, sessions)
    )
    write_curves_csv(run_dir / "curves.csv", model_a, [1.0 + i * 0.5 for i in range(38)], Sex.F)
    return [
        metrics.metric_row(
            model="growth",
            experiment=name,
            distribution="synthetic",
            evaluation_set="union",
            seed=cfg.seeds[0],
            metric="pearson_r",
            value=r,
        )
    ]


# The one list of protocols, in the order the CLI offers them.
PROTOCOLS = {
    "exp1_balanced": _classifier_experiment,
    "exp2_weighted": _classifier_experiment,
    "exp3_ood": _classifier_experiment,
    "exp4_impression": _classifier_experiment,
    "exp5_stepwise": _stepwise_experiment,
    "exp6_growthcharts": _growth_experiment,
}
EXPERIMENTS = tuple(PROTOCOLS)


def run_experiment(name: str, cfg: PipelineConfig, timestamp: Optional[str] = None) -> Path:
    """Execute one named protocol into a fresh run directory, which it returns:
    out_dir/<name>-<stamp>, or the first free <name>-<stamp>-1, -2, ... should
    another run hold that. A run that fails removes its directory."""
    if name not in PROTOCOLS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    stamp = timestamp or datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    run_dir = base = Path(cfg.out_dir) / f"{name}-{stamp}"
    for n in itertools.count(1):
        try:
            run_dir.mkdir(parents=True)
            break
        except FileExistsError:
            if not run_dir.parent.is_dir():  # out_dir is a dangling link, say
                raise
            run_dir = base.with_name(f"{base.name}-{n}")
    try:
        (run_dir / "config.ini").write_text(cfg.to_ini(), encoding="utf-8")
        rows = PROTOCOLS[name](name, cfg, run_dir)
        metrics.write_results_csv(run_dir / "metrics.csv", rows)
    except BaseException:
        shutil.rmtree(run_dir, ignore_errors=True)
        raise
    return run_dir
