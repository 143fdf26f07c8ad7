"""Command-line pipeline driver: parses arguments and maps errors to exit codes.

Subcommands cover each pipeline stage (ingest through compare) plus
run-experiment, which runs one of the named protocols in `experiments`.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

import argparse
import csv
import sys

from . import classifier, corpus, experiments, growthchart, labeling, metrics, phenotype, stepwise
from .errors import ConfigError, DataError, NormchartsError, NumericalError
from .phenotype import AggregationMethod, Region
from .report_text import InputMode, Sex, load_reports_jsonl


def _parse_centile(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # false for nan too
        raise ValueError(f"centile must be a number in [0, 1], got {text!r}")
    return value


def _print_metrics(result: metrics.EvalResult) -> None:
    for name in metrics.METRIC_NAMES:
        value = result.metric(name)
        print(f"{name}: {'undefined' if value is None else f'{value:.4f}'}")


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
    annotations = labeling.load_annotations_jsonl(args.annotations) if args.annotations else []
    labels = labeling.label_reports(reports, annotations)
    # one annotations file may cover several reports files
    skipped = {a.report_id for a in annotations}.difference(r.id for r in reports)
    if skipped:
        import logging  # here, so that importing the CLI stays as cheap as it is

        logging.getLogger(__name__).warning(
            "%d annotated report ids are not in %s; skipped", len(skipped), args.reports
        )
    experiments.write_csv_map(args.out, "report_id", "label", labels)
    print(f"labeled {len(labels)} of {len(reports)} reports -> {args.out}")
    return 0


def _cmd_split(args) -> int:
    reports = load_reports_jsonl(args.reports)
    labels = experiments.load_labels_csv(args.labels) if args.labels else None
    assignment = corpus.split(reports, args.seed, labels=labels)
    experiments.write_csv_map(args.out, "report_id", "subset", assignment.assignment)
    for subset in corpus.Subset:
        print(f"{subset.value}: {len(assignment.ids(subset))}")
    return 0


def _subset_ids(split_path, subset: corpus.Subset) -> set[str]:
    split_map = experiments.load_csv_map(split_path, "report_id", "subset", corpus.Subset)
    return {rid for rid, s in split_map.items() if s is subset}


def _cmd_train(args) -> int:
    reports = load_reports_jsonl(args.reports)
    labels = experiments.load_labels_csv(args.labels)
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
    model = experiments.train_classifier(args.reports, reports, train_ids, labels, mode, tcfg)
    classifier.save_model(model, args.out)
    print(f"trained on {len(train_ids)} reports, final loss {model.final_loss:.6f} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    reports = load_reports_jsonl(args.reports)
    labels = experiments.load_labels_csv(args.labels)
    subset = corpus.Subset(args.subset)
    ids = _subset_ids(args.split, subset)
    model = classifier.load_model(args.model)
    mode = InputMode(args.input_mode)
    result = experiments.evaluate_classifier(args.reports, model, reports, ids, labels, mode)
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
    gold = experiments.load_labels_csv(args.gold) if args.gold else None
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
    experiments.write_triage_csv(args.out, records)
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
    options = experiments.fit_options(args.fp1_only, not args.no_sigma_age, args.ridge_lambda)
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
    experiments.write_curves_csv(args.out, model, ages, Sex(args.sex))
    print(f"{n} grid points -> {args.out}")
    return 0


def _cmd_compare(args) -> int:
    a = experiments.load_csv_map(args.a, "session_id", "centile", _parse_centile)
    b = experiments.load_csv_map(args.b, "session_id", "centile", _parse_centile)
    shared = sorted(set(a) & set(b))
    if len(shared) < 3:
        raise DataError(f"only {len(shared)} shared sessions between the two files")
    r = growthchart.compare_centiles([a[s] for s in shared], [b[s] for s in shared])
    print(f"pearson_r: {r:.6f} over {len(shared)} shared sessions")
    return 0


def _cmd_run_experiment(args) -> int:
    cfg = experiments.load_config(args.config)
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seeds = (args.seed,)
    run_dir = experiments.run_experiment(args.name, cfg)
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
    p.add_argument("name", choices=experiments.EXPERIMENTS)
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
    except (ConfigError, FileExistsError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as e:
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
