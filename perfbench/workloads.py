"""The benchmark's workloads: seeded inputs, one pass of CLI commands, checks.

Each workload builds its inputs once per run (untimed), then every pass runs
the same commands on them.  The program is deterministic, so every pass must
write byte-identical outputs; `check` returns their digests for that test.
"""

import re
import threading
from pathlib import Path

import numpy as np

import checks as ck
import gen

METRIC_NAMES = ("accuracy", "sensitivity", "specificity", "precision", "f1")
SCANNERS = 5
F1_FLOOR = 0.8
CENTILE_R_FLOOR = 0.9
EXP6_AGES = [1.0 + i * 0.5 for i in range(38)]  # the grid exp6_growthcharts writes
# quality values a workload reports besides the gated `quality`
NAMED_UNITS = {
    "f1_normal": "ratio",
    "centile_r": "ratio",
    "fit_bic": "bic",
    "centiles_printed_as_0_or_1": "count",
}
CURVE_POINTS = 1000
CURVE_AGES = [0.5 + i * 18.5 / (CURVE_POINTS - 1) for i in range(CURVE_POINTS)]  # `curves` defaults


def _digests(paths) -> dict:
    return {Path(p).name: gen.sha256_file(p) for p in sorted(paths, key=str)}


def _write_label_split(path_labels, path_split, labels: dict, subset: str) -> None:
    ids = sorted(labels)
    gen.write_csv(path_labels, ("report_id", "label"), [(i, labels[i]) for i in ids])
    gen.write_csv(path_split, ("report_id", "subset"), [(i, subset) for i in ids])


def _cmd(log_dir: Path, name: str, argv: list, tag: str = "") -> dict:
    return {"name": name, "argv": argv, "log": str(log_dir / f"log-{tag or name}.txt")}


def _one_run_dir(pass_dir: Path, checks, label) -> Path:
    runs = sorted((pass_dir / "runs").iterdir()) if (pass_dir / "runs").is_dir() else []
    checks.expect(f"{label}: one run directory", len(runs) == 1, f"found {len(runs)}")
    return runs[0] if runs else pass_dir / "runs" / "missing"


class Workload:
    name = ""
    expected_spans: tuple = ()

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.inputs: dict = {}

    def _record_input(self, path: Path) -> None:
        self.inputs[path.name] = gen.sha256_file(path)

    def build(self, run_cli, checks) -> dict:
        """Write inputs and prepare models; returns facts to report."""
        raise NotImplementedError

    def commands(self, pass_dir: Path) -> list[dict]:
        raise NotImplementedError

    def check(self, pass_dir: Path, checks) -> dict:
        """Check one pass's outputs; returns its quality values and digests."""
        raise NotImplementedError


class TriageTrain(Workload):
    name = "triage_train"
    expected_spans = (
        "report_text.load_reports_jsonl", "labeling.label_reports", "corpus.split",
        "classifier.train", "classifier.featurize", "classifier.objective_and_gradient",
        "classifier.predict", "metrics.confusion", "cli.main",
    )
    n_reports = 5000

    def build(self, run_cli, checks) -> dict:
        reports, annotations, _ = gen.make_reports(self.seed, self.n_reports, 0.08, False, "rep")
        rpath, apath = self.work / "reports.jsonl", self.work / "annotations.jsonl"
        gen.write_jsonl(rpath, reports)
        gen.write_jsonl(apath, annotations)
        self.seeds = (2 * self.seed + 11, 2 * self.seed + 12)
        self.config = self.work / "exp2.ini"
        self.config.write_text(
            f"[paths]\nreports = {rpath}\nannotations = {apath}\n\n"
            f"[train]\nseeds = {','.join(map(str, self.seeds))}\n",
            encoding="utf-8",
        )
        for p in (rpath, apath):
            self._record_input(p)
        return {"ngrams.reports": gen.ngram_ratio(r["text"] for r in reports)}

    def commands(self, pass_dir):
        argv = ["run-experiment", "exp2_weighted", "--config", str(self.config), "--out", str(pass_dir / "runs")]
        return [_cmd(pass_dir, "run-experiment", argv)]

    def check(self, pass_dir, checks):
        run = _one_run_dir(pass_dir, checks, self.name)
        seeds = list(self.seeds) + ["mean", "std"]
        values = ck.check_metrics_csv(checks, run / "metrics.csv", seeds, METRIC_NAMES, self.name)
        f1 = values.get(("mean", "f1"), 0.0)
        checks.expect(f"{self.name}: mean test F1 >= {F1_FLOOR}", f1 >= F1_FLOOR, f"{f1:.4f}")
        models = [run / f"model-seed{s}.bin" for s in self.seeds]
        for m in models:
            checks.expect(f"{self.name}: {m.name} written", m.is_file() and m.stat().st_size > 0)
        return {
            "quality": f1,
            "f1_normal": f1,
            "digests": _digests([run / "metrics.csv"] + [m for m in models if m.is_file()]),
        }


class GrowthFit(Workload):
    name = "growth_fit"
    expected_spans = (
        "phenotype.load_phenotype_csv", "phenotype.build_sessions", "phenotype.qc_filter",
        "growthchart.fit", "growthchart.lbfgs", "growthchart.objective", "growthchart.centile",
        "growthchart.percentile_curves", "growthchart.gg_quantile", "cli.main",
    )
    n_sessions = 2000
    region = "vol_cortical_gm"

    def build(self, run_cli, checks) -> dict:
        rows, cohort = gen.make_cohort(self.seed, self.n_sessions, SCANNERS)
        path = self.work / "cohort.csv"
        gen.write_csv(path, gen.PHENOTYPE_HEADER, rows)
        self._record_input(path)
        self.config = self.work / "exp6.ini"
        self.config.write_text(
            f"[paths]\nphenotypes = {path}\n\n[train]\nseeds = {self.seed}\n\n"
            f"[growth]\nfp1_only = false\nregion = {self.region}\n",
            encoding="utf-8",
        )
        sessions = gen.session_medians(cohort)
        self.expect_qc = self.n_sessions - len(sessions)
        # model A is fit on the first 96% of sessions by id (92% shared + half the rest)
        ids = sorted(sessions)
        n_shared = round(0.92 * len(ids))
        subset = ids[: n_shared + (len(ids) - n_shared) // 2]
        shifts = gen.scanner_shifts(SCANNERS)
        self.bic_bound = ck.bic_bound(
            np.asarray([sessions[s]["volumes"][self.region] for s in subset]),
            np.asarray([sessions[s]["age_years"] for s in subset]),
            np.asarray([sessions[s]["is_female"] for s in subset], dtype=float),
            np.asarray([shifts[sessions[s]["scanner"]] for s in subset]),
            self.region,
            SCANNERS,
        )
        return {"truth_bic_model_a": self.bic_bound}

    def commands(self, pass_dir):
        argv = ["run-experiment", "exp6_growthcharts", "--config", str(self.config), "--out", str(pass_dir / "runs")]
        return [_cmd(pass_dir, "run-experiment", argv)]

    def check(self, pass_dir, checks):
        run = _one_run_dir(pass_dir, checks, self.name)
        att = ck.read_json(run / "attrition.json")
        ck.check_attrition(
            checks, att["input_sessions"], att["output_sessions"], att["dropped_qc"],
            att["dropped_no_mprage"], self.n_sessions, self.expect_qc, self.name,
        )
        model_a = ck.read_json(run / "growth-model-a.json")
        model_b = ck.read_json(run / "growth-model-b.json")
        for tag, model in (("a", model_a), ("b", model_b)):
            checks.expect(f"{self.name}: model {tag} converged", model["converged"] is True)
        bic = float(model_a["bic"])
        checks.expect(
            f"{self.name}: model A BIC within the bound of the true model",
            bic <= self.bic_bound + 1.0,
            f"{bic:.3f} > {self.bic_bound:.3f} + 1",
        )
        r = ck.check_metrics_csv(checks, run / "metrics.csv", [self.seed], ["pearson_r"], self.name)
        centile_r = r.get((str(self.seed), "pearson_r"), 0.0)
        checks.expect(f"{self.name}: centile_r >= {CENTILE_R_FLOOR}", centile_r >= CENTILE_R_FLOOR, f"{centile_r}")
        ck.check_curves_csv(checks, run / "curves.csv", EXP6_AGES, self.name, model_a, sex_female=True)
        outputs = ("metrics.csv", "growth-model-a.json", "growth-model-b.json", "curves.csv", "attrition.json")
        return {
            "quality": centile_r,
            "centile_r": centile_r,
            "fit_bic": bic,
            "digests": _digests([run / f for f in outputs]),
        }


_AGGREGATE_LINE = re.compile(
    r"sessions: (\d+) in, (\d+) out, (\d+) dropped by QC, (\d+) without MPRAGE"
)


class ChartScoring(Workload):
    name = "chart_scoring"
    expected_spans = (
        "phenotype.load_phenotype_csv", "phenotype.build_sessions", "phenotype.qc_filter",
        "growthchart.centile", "growthchart.percentile_curves", "growthchart.gg_quantile",
        "classifier.predict", "classifier.featurize", "report_text.load_reports_jsonl",
        "stepwise.run_inquiry", "stepwise.FixtureAnswerSource.answer", "stepwise.parse_answer",
        "cli.main",
    )
    n_sessions = 20000
    n_prep_sessions = 2000
    n_train_reports = 2000
    n_heldout = 5000
    scored_region = "vol_cortical_gm"

    def build(self, run_cli, checks) -> dict:
        w = self.work
        rows, _ = gen.make_cohort(self.seed + 7919, self.n_prep_sessions, SCANNERS, prefix="ref")
        prep_csv = w / "reference-cohort.csv"
        gen.write_csv(prep_csv, gen.PHENOTYPE_HEADER, rows)
        train, _, train_labels = gen.make_reports(self.seed, self.n_train_reports, 0.08, False, "trn")
        gen.write_jsonl(w / "train.jsonl", train)
        _write_label_split(w / "train-labels.csv", w / "train-split.csv", train_labels, "Train")

        # models prepared untimed, while the scored inputs are generated:
        # one classifier and one FP1 growth model per region
        self.classifier = w / "classifier.bin"
        prep = [
            _cmd(w, "train", [
                "train", "--reports", str(w / "train.jsonl"), "--labels", str(w / "train-labels.csv"),
                "--split", str(w / "train-split.csv"), "--seed", str(self.seed), "--out", str(self.classifier)]),
        ]
        for region in gen.REGIONS:
            prep.append(_cmd(w, "fit-growth", [
                "fit-growth", "--phenotypes", str(prep_csv), "--region", region, "--fp1-only",
                "--out", str(w / f"growth-{region}.json")], tag=f"fit-{region}"))
        preparing = threading.Thread(target=run_cli, args=("prep", prep))
        preparing.start()

        rows, cohort = gen.make_cohort(self.seed, self.n_sessions, SCANNERS)
        self.cohort_csv = w / "cohort.csv"
        gen.write_csv(self.cohort_csv, gen.PHENOTYPE_HEADER, rows)
        self.sessions = gen.session_medians(cohort)
        held, _, held_labels = gen.make_reports(self.seed, self.n_heldout, 0.08, True, "held")
        self.heldout = w / "heldout.jsonl"
        gen.write_jsonl(self.heldout, held)
        _write_label_split(w / "heldout-labels.csv", w / "heldout-split.csv", held_labels, "Test")
        for p in (self.cohort_csv, prep_csv, w / "train.jsonl", self.heldout):
            self._record_input(p)
        facts = {
            "ngrams.train": gen.ngram_ratio(r["text"] for r in train),
            "ngrams.heldout": gen.ngram_ratio(r["text"] for r in held),
        }
        preparing.join()

        self.models = {}
        for region in gen.REGIONS:
            path = w / f"growth-{region}.json"
            ok = checks.expect(f"{self.name}: prepared model {region} written", path.is_file())
            self.models[region] = ck.read_json(path) if ok else None
            if ok:
                checks.expect(
                    f"{self.name}: prepared model {region} converged",
                    self.models[region]["converged"] is True,
                )
        return facts

    def commands(self, pass_dir):
        w, data = self.work, self.root / "src" / "normcharts" / "data"
        cmds = [
            _cmd(pass_dir, "aggregate", [
                "aggregate", "--phenotypes", str(self.cohort_csv), "--out", str(pass_dir / "sessions.csv")]),
            _cmd(pass_dir, "centiles", [
                "centiles", "--model", str(w / f"growth-{self.scored_region}.json"),
                "--phenotypes", str(self.cohort_csv), "--out", str(pass_dir / "centiles.csv")]),
        ]
        for region in gen.REGIONS:
            for sex in ("F", "M"):
                cmds.append(_cmd(pass_dir, "curves", [
                    "curves", "--model", str(w / f"growth-{region}.json"), "--sex", sex,
                    "--points", str(CURVE_POINTS), "--out", str(pass_dir / f"curves-{region}-{sex}.csv")],
                    tag=f"curves-{region}-{sex}"))
        cmds.append(_cmd(pass_dir, "eval", [
            "eval", "--model", str(self.classifier), "--reports", str(self.heldout),
            "--labels", str(w / "heldout-labels.csv"), "--split", str(w / "heldout-split.csv"),
            "--subset", "Test", "--out", str(pass_dir / "eval.csv")]))
        cmds.append(_cmd(pass_dir, "triage", [
            "triage", "--reports", str(data / "edge_case_reports.jsonl"), "--mode", "stepwise",
            "--fixture", str(data / "edge_case_responses.tsv"), "--gold", str(data / "edge_case_gold.csv"),
            "--out", str(pass_dir / "triage.csv")]))
        return cmds

    def _check_sessions(self, pass_dir, checks):
        log = (pass_dir / "log-aggregate.txt").read_text(encoding="utf-8")
        m = _AGGREGATE_LINE.search(log)
        if not checks.expect(f"{self.name}: aggregate summary line", m is not None):
            return
        n_in, n_out, d_qc, d_mp = map(int, m.groups())
        ck.check_attrition(
            checks, n_in, n_out, d_qc, d_mp, self.n_sessions, self.n_sessions - len(self.sessions), self.name
        )
        rows = ck.read_csv(pass_dir / "sessions.csv")
        checks.expect(f"{self.name}: sessions.csv rows", len(rows) == len(self.sessions), f"{len(rows)}")
        worst = 0.0
        for row in rows[:: max(1, len(rows) // 200)]:
            ref = self.sessions.get(row["session_id"])
            if ref is None:
                worst = float("inf")
                break
            for region in gen.REGIONS:
                worst = max(worst, abs(float(row[region]) - ref["volumes"][region]) / ref["volumes"][region])
        checks.expect(f"{self.name}: session medians match the reference", worst < 1e-9, f"{worst:.3g}")

    def _check_centiles(self, pass_dir, checks) -> int:
        rows = ck.read_csv(pass_dir / "centiles.csv")
        refs = [self.sessions.get(r["session_id"]) for r in rows]
        written = [ck.to_float(r["centile"]) for r in rows]
        model = self.models[self.scored_region]
        known = len(rows) == len(self.sessions) and None not in refs and None not in written
        if not checks.expect(f"{self.name}: one centile per session", known and model is not None):
            return 0
        mu, sigma, nu = ck.model_params(
            model,
            np.asarray([ref["age_years"] for ref in refs]),
            np.asarray([ref["is_female"] for ref in refs]),
            [ref["scanner"] for ref in refs],
        )
        y = np.asarray([ref["volumes"][self.scored_region] for ref in refs])
        return ck.check_centiles(checks, written, ck.gg_cdf(y, mu, sigma, nu), self.name)

    def check(self, pass_dir, checks):
        self._check_sessions(pass_dir, checks)
        at_bound = self._check_centiles(pass_dir, checks)
        outputs = [pass_dir / "sessions.csv", pass_dir / "centiles.csv"]
        for region in gen.REGIONS:
            for sex in ("F", "M"):
                path = pass_dir / f"curves-{region}-{sex}.csv"
                outputs.append(path)
                ck.check_curves_csv(
                    checks, path, CURVE_AGES, f"{self.name}: curves {region} {sex}",
                    self.models[region], sex_female=(sex == "F"),
                )
        values = ck.check_metrics_csv(checks, pass_dir / "eval.csv", ["-"], METRIC_NAMES, self.name)
        f1 = values.get(("-", "f1"), 0.0)
        checks.expect(f"{self.name}: held-out F1 >= {F1_FLOOR}", f1 >= F1_FLOOR, f"{f1:.4f}")
        ck.check_stepwise_rule(checks, pass_dir / "triage.csv", 41, self.name)
        outputs += [pass_dir / "eval.csv", pass_dir / "triage.csv"]
        return {
            "quality": f1,
            "f1_normal": f1,
            "centiles_printed_as_0_or_1": at_bound,
            "digests": _digests(outputs),
        }


WORKLOADS = {w.name: w for w in (TriageTrain, GrowthFit, ChartScoring)}
