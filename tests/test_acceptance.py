"""End-to-end acceptance checks for both pipelines.

Each test prints one pass/fail line so a full run reads as a checklist.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest
from scipy import integrate

from normcharts import classifier, corpus, metrics
from normcharts.experiments import (
    PipelineConfig,
    _default_truth,
    data_file,
    load_labels_csv,
    run_experiment,
)
from normcharts.growthchart import (
    FP_POWERS,
    FitOptions,
    FpSpec,
    GGParams,
    _basis_matrix,
    _neg_penalized_loglik,
    _objective_args,
    fit,
    gg_cdf,
    gg_logpdf,
    gg_quantile,
    params_at,
)
from normcharts.labeling import Label
from normcharts.phenotype import (
    AggregationMethod,
    AttritionReport,
    PhenotypeTable,
    QcCategory,
    Region,
    build_sessions,
    qc_filter,
)
from normcharts.report_text import InputMode, Sex, compose_input, load_reports_jsonl
from normcharts.stepwise import (
    FixtureAnswerSource,
    InquiryMode,
    QuestionId,
    Verdict,
    aggregate_stepwise,
    evaluate_inquiry,
    run_inquiry,
)
from normcharts.synthcorpus import synth_cohort, synth_reports


def report_line(number, name, ok):
    print(f"\ncriterion {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


# --- 1: edge-case replay ---


def test_criterion_01_edge_case_replay():
    t0 = time.perf_counter()
    reports = load_reports_jsonl(data_file("edge_case_reports.jsonl"))
    gold = load_labels_csv(data_file("edge_case_gold.csv"))
    source = FixtureAnswerSource(data_file("edge_case_responses.tsv"))
    stepwise_recs = [run_inquiry(r, InquiryMode.STEPWISE, source) for r in reports]
    res = evaluate_inquiry(stepwise_recs, gold)
    direct_recs = [run_inquiry(r, InquiryMode.DIRECT, source) for r in reports]
    direct = evaluate_inquiry(direct_recs, gold)
    elapsed = time.perf_counter() - t0
    ok = (
        (res.tp, res.fp, res.tn, res.fn) == (7, 9, 24, 1)
        and abs(res.accuracy - 0.756) <= 6e-4
        and abs(res.specificity - 0.727) <= 6e-4
        and abs(res.sensitivity - 0.875) <= 6e-4
        and abs(res.precision - 0.437) <= 6e-4
        and abs(res.f1 - 0.583) <= 6e-4
        and direct.accuracy == pytest.approx(25 / 41)
        and abs(direct.accuracy - 0.609) <= 1e-3
        and elapsed < 1.0
    )
    report_line(1, "stepwise replay of the 41 edge cases", ok)


# --- 2: truth-table oracle ---


def brute_force_rule(values):
    q1, q2, q3, q4, q5 = values
    normal = (q1 == "No" or q2 == "Yes") and q3 == "No" and q4 == "No" and q5 == "No"
    return "Normal" if normal else "Abnormal"


def test_criterion_02_truth_table_oracle():
    t0 = time.perf_counter()
    all_match = True
    for tup in itertools.product(list(Verdict), repeat=5):
        got = aggregate_stepwise(dict(zip(QuestionId, tup)))
        if got.value != brute_force_rule([v.value for v in tup]):
            all_match = False
    normals = sum(
        aggregate_stepwise(dict(zip(QuestionId, tup))) is Label.NORMAL
        for tup in itertools.product((Verdict.YES, Verdict.NO), repeat=5)
    )
    elapsed = time.perf_counter() - t0
    report_line(2, "boolean rule vs 1,024-tuple brute force", all_match and normals == 3 and elapsed < 1.0)


# --- 3: metric recomputation ---


def test_criterion_03_metric_recomputation():
    rng = random.Random(99)
    ok = True
    for _ in range(1000):
        tp, fp, tn, fn = (rng.randint(0, 60) for _ in range(4))
        if tp + fp + tn + fn == 0:
            tp = 1
        r = metrics.EvalResult(tp=tp, fp=fp, tn=tn, fn=fn)
        checks = [
            (r.accuracy, tp + tn, tp + fp + tn + fn),
            (r.sensitivity, tp, tp + fn),
            (r.specificity, tn, tn + fp),
            (r.precision, tp, tp + fp),
        ]
        for got, num, den in checks:
            if den == 0:
                ok = ok and got is None
            else:
                ok = ok and abs(got - num / den) < 1e-12
        # f1 is undefined when either component is, or both are zero
        if tp + fp == 0 or tp + fn == 0 or tp == 0:
            ok = ok and r.f1 is None
        else:
            ok = ok and abs(r.f1 - 2 * tp / (2 * tp + fp + fn)) < 1e-12
    bert = metrics.EvalResult(tp=3, fp=10, tn=23, fn=5)
    ok = ok and abs(bert.accuracy - 0.634) <= 1e-3
    ok = ok and abs(bert.precision - 0.230) <= 1e-3
    ok = ok and abs(bert.f1 - 0.285) <= 1e-3
    report_line(3, "metrics vs count recomputation", ok)


# --- 4: weighted-training direction on the synthetic corpus ---


def _train_and_eval(reports, labels, seed, balanced, mode):
    assignment = corpus.split(reports, seed, labels=labels)
    train_ids = assignment.ids(corpus.Subset.TRAIN)
    if balanced:
        train_ids = corpus.balance(train_ids, labels, seed)
    tcfg = classifier.TrainConfig(pos_weight=1.0 if balanced else 10.0, seed=seed)
    by_id = {r.id: r for r in reports}
    examples = [
        (compose_input(by_id[rid], mode), labels[rid]) for rid in sorted(train_ids)
    ]
    model = classifier.train(*classifier.design(examples), tcfg)
    test_ids = assignment.ids(corpus.Subset.TEST)
    preds = classifier.classify(model, [compose_input(by_id[rid], mode) for rid in test_ids])
    return metrics.confusion(preds, [labels[rid] for rid in test_ids])


def test_criterion_04_weighted_training_direction():
    t0 = time.perf_counter()
    seeds = (11, 23, 37, 41, 53)
    prec_bal, prec_wt, sens_full, sens_impr = [], [], [], []
    per_seed_mode_ok = True
    for seed in seeds:
        reports, labels = synth_reports(seed=seed, n=5000, abnormal_fraction=0.92)
        bal = _train_and_eval(reports, labels, seed, True, InputMode.FULL_REPORT)
        wt = _train_and_eval(reports, labels, seed, False, InputMode.FULL_REPORT)
        impr = _train_and_eval(reports, labels, seed, False, InputMode.IMPRESSION_ONLY)
        prec_bal.append(bal.precision)
        prec_wt.append(wt.precision)
        sens_full.append(wt.sensitivity)
        sens_impr.append(impr.sensitivity)
        per_seed_mode_ok = per_seed_mode_ok and wt.sensitivity >= impr.sensitivity
    elapsed = time.perf_counter() - t0
    mean = lambda xs: sum(xs) / len(xs)
    ok = (
        mean(prec_bal) < mean(prec_wt)
        and mean(sens_full) >= mean(sens_impr)
        and per_seed_mode_ok
        and elapsed < 300.0
    )
    report_line(4, "balanced vs weighted precision, full vs impression sensitivity", ok)


# --- 5: gradient checks ---


def test_criterion_05_gradient_checks():
    # classifier objective
    texts = [
        "impression unremarkable brain mri for age",
        "findings extensive hemorrhage with midline shift noted",
        "impression stable postoperative changes no acute process",
        "findings new enhancing mass within the posterior fossa",
    ]
    fcfg = classifier.FeatureConfig(dimension=1 << 10)
    X = classifier.featurize(texts, fcfg)
    y = np.array([1, 0, 1, 0], dtype=float)
    rng = np.random.default_rng(3)
    w = rng.normal(0, 0.1, size=fcfg.dimension)
    b = 0.2
    loss, gw, gb = classifier.objective_and_gradient(X, y, w, b, 10.0, 1e-4)
    h = 1e-6
    clf_ok = True
    lb_up, _, _ = classifier.objective_and_gradient(X, y, w, b + h, 10.0, 1e-4)
    lb_dn, _, _ = classifier.objective_and_gradient(X, y, w, b - h, 10.0, 1e-4)
    clf_ok &= abs(gb - (lb_up - lb_dn) / (2 * h)) <= 1e-5 * max(1.0, abs(gb))
    active = np.argsort(-np.abs(gw))[:25]
    for k in active:
        up, dn = w.copy(), w.copy()
        up[k] += h
        dn[k] -= h
        lu, _, _ = classifier.objective_and_gradient(X, y, up, b, 10.0, 1e-4)
        ld, _, _ = classifier.objective_and_gradient(X, y, dn, b, 10.0, 1e-4)
        num = (lu - ld) / (2 * h)
        clf_ok &= abs(gw[k] - num) <= 1e-5 * max(1.0, abs(num))

    # growth-model penalized log-likelihood
    truth = _default_truth(PipelineConfig(n_scanners=2))
    truth = type(truth)(
        region=truth.region, fp_mu=truth.fp_mu, mu_coef=truth.mu_coef,
        fp_sigma=None, sigma_coef=truth.sigma_coef, nu=truth.nu,
        scanner_intercepts={"scan-00": 0.02, "scan-01": -0.02},
    )
    sessions, _ = build_sessions(
        synth_cohort(seed=17, n_sessions=50, truth=truth),
        AggregationMethod.MEDIAN_ALL_SEQUENCES,
    )
    logy = np.log(sessions.volume(Region.CORTICAL_GM))
    ages = sessions.age_years
    x_mu = np.column_stack([
        np.ones(len(sessions)),
        _basis_matrix(ages, FpSpec(1, (0.5,))),
        sessions.female.astype(float),
    ])
    x_sigma = np.ones((len(sessions), 1))
    idx = np.where(sessions.scanner_id == "scan-00", 0, 1)
    vec = np.array([12.1, 0.11, -0.03, 0.01, -0.01, -2.0, 1.4])
    args = _objective_args(logy, x_mu, x_sigma, idx, 2, 1.0)
    _, grad, _ = _neg_penalized_loglik(vec, *args)
    growth_ok = True
    for k in range(vec.size):
        up, dn = vec.copy(), vec.copy()
        up[k] += h
        dn[k] -= h
        fu = _neg_penalized_loglik(up, *args)[0]
        fd = _neg_penalized_loglik(dn, *args)[0]
        num = (fu - fd) / (2 * h)
        growth_ok &= abs(grad[k] - num) <= 1e-4 * max(1.0, abs(num))
    report_line(5, "analytic gradients vs central differences", bool(clf_ok and growth_ok))


# --- 6: distribution kernel ---


def test_criterion_06_distribution_kernel():
    triples = [
        (1.0, 0.3, -1.5), (2.0, 0.5, -1.5), (3.0, 0.2, -0.5), (0.8, 0.4, -0.5),
        (1.0, 0.3, 1.0), (5.0, 0.1, 1.0), (2.0, 1.0, 1.0),
        (4.0, 0.25, 2.5), (1.5, 0.6, 2.5), (10.0, 0.12, 2.5),
    ]
    ok = True
    for mu, sigma, nu in triples:
        p = GGParams(mu=mu, sigma=sigma, nu=nu)
        total, _ = integrate.quad(lambda t: math.exp(gg_logpdf(t, p)), 0.0, np.inf, limit=200)
        ok &= abs(total - 1.0) < 1e-8
        y = mu * 1.3
        area, _ = integrate.quad(lambda t: math.exp(gg_logpdf(t, p)), 0.0, y, limit=200)
        ok &= abs(gg_cdf(y, p) - area) < 1e-6
        for q in (0.025, 0.5, 0.975):
            ok &= abs(gg_cdf(gg_quantile(q, p), p) - q) < 1e-8
    expo = GGParams(mu=2.0, sigma=1.0, nu=1.0)
    ok &= abs(expo.theta - 1.0) < 1e-12
    for q in (0.2, 0.5, 0.8):
        ok &= abs(gg_quantile(q, expo) - (-expo.mu * math.log(1 - q))) < 1e-9
    report_line(6, "generalized gamma pdf/cdf/quantile kernel", bool(ok))


# --- 7: parameter recovery and BIC selection ---


def test_criterion_07_parameter_recovery():
    t0 = time.perf_counter()
    cfg = PipelineConfig(n_scanners=5)
    truth = _default_truth(cfg)
    sessions, _ = build_sessions(
        synth_cohort(seed=6, n_sessions=2000, truth=truth),
        AggregationMethod.MEDIAN_ALL_SEQUENCES,
    )
    options = FitOptions(
        fp_candidates=[FpSpec(1, (p,)) for p in FP_POWERS],
        sigma_age=False,
    )
    model = fit(sessions, Region.CORTICAL_GM, options)
    sigma_true = math.exp(truth.sigma_coef[0])
    sigma_fit = math.exp(model.sigma_coef[0])
    nu_ok = abs(model.nu - truth.nu) <= 0.15
    sigma_ok = abs(sigma_fit - sigma_true) / sigma_true <= 0.10
    grid = np.linspace(0.5, 19.0, 38)
    rel = []
    for age in grid:
        for sex in (Sex.M, Sex.F):
            want = gg_quantile(0.5, params_at(truth, age, sex is Sex.F))
            got = gg_quantile(0.5, params_at(model, age, sex is Sex.F))
            rel.append(abs(got - want) / want)
    median_ok = max(rel) <= 0.03

    freezes = 0
    for rep_seed in range(100, 150):
        rep_sessions, _ = build_sessions(
            synth_cohort(seed=rep_seed, n_sessions=300, truth=truth),
            AggregationMethod.MEDIAN_ALL_SEQUENCES,
        )
        rep_model = fit(rep_sessions, Region.CORTICAL_GM, options)
        if rep_model.fp_mu == truth.fp_mu:
            freezes += 1
    elapsed = time.perf_counter() - t0
    ok = nu_ok and sigma_ok and median_ok and freezes >= 40 and elapsed < 600.0
    report_line(7, "simulate-and-recover with BIC family selection", ok)


# --- 8: centile convergence on overlapping subsets ---


def test_criterion_08_centile_convergence(tmp_path):
    t0 = time.perf_counter()
    cfg = PipelineConfig(out_dir=str(tmp_path), sigma_age=False)
    run_dir = run_experiment("exp6_growthcharts", cfg, timestamp="t0")
    import csv

    with open(run_dir / "metrics.csv", newline="") as f:
        rows = {r["metric"]: float(r["value"]) for r in csv.DictReader(f)}
    elapsed = time.perf_counter() - t0
    report_line(8, "models on 92%-shared subsets agree on centiles",
                rows["pearson_r"] >= 0.98 and elapsed < 300.0)


# --- 9: QC and aggregation rules ---


def _row(session, seq, qc_value, vol, is_mprage=True):
    qc = {c: 0.9 for c in QcCategory}
    qc[QcCategory.BRAINSTEM] = qc_value
    return (session, seq, "sc", 400, Sex.F.value, is_mprage,
            (vol,) * len(Region), tuple(qc[c] for c in QcCategory))


def _sessions(rows, method):
    return build_sessions(PhenotypeTable.from_rows(rows), method)


def test_criterion_09_qc_and_aggregation():
    ok = True
    # strict-less-than exclusion boundary
    for v in (0.0, 0.3, 0.649, 0.6499999):
        ok &= len(qc_filter(PhenotypeTable.from_rows([_row("a", "q", v, 1.0)]))) == 0
    for v in (0.65, 0.651, 1.0):
        ok &= len(qc_filter(PhenotypeTable.from_rows([_row("a", "q", v, 1.0)]))) == 1
    # even-count median
    rows = [_row("a", f"q{i}", 0.9, v) for i, v in enumerate((10.0, 30.0, 20.0, 40.0))]
    agg, _ = _sessions(rows, AggregationMethod.MEDIAN_ALL_SEQUENCES)
    ok &= agg.volume(Region.CORTICAL_GM).tolist() == [25.0]
    # MPRAGE-only drop
    no_mprage = [_row("a", "q0", 0.9, 5.0, is_mprage=False)]
    ok &= len(_sessions(no_mprage, AggregationMethod.MPRAGE_ONLY)[0]) == 0
    # attrition balances exactly
    rows = (
        [_row("s1", "q0", 0.9, 1.0)]
        + [_row("s2", "q0", 0.1, 1.0)]
        + [_row("s3", "q0", 0.9, 1.0, is_mprage=False)]
    )
    _, att = _sessions(rows, AggregationMethod.MPRAGE_ONLY)
    ok &= att == AttritionReport(3, 1, 1, 1)
    ok &= att.n_output_sessions + att.dropped_qc + att.dropped_no_mprage == att.n_input_sessions
    report_line(9, "QC threshold, median, MPRAGE and attrition rules", bool(ok))


# --- 10: determinism ---


def test_criterion_10_determinism(tmp_path):
    reports, labels = synth_reports(seed=8, n=600, abnormal_fraction=0.92)
    a = corpus.split(reports, 4, labels=labels)
    b = corpus.split(list(reports), 4, labels=labels)
    splits_ok = all(a.ids(s) == b.ids(s) for s in corpus.Subset)

    cfg_a = PipelineConfig(out_dir=str(tmp_path / "a"), seeds=(5,), synth_n=500, epochs=5)
    cfg_b = PipelineConfig(out_dir=str(tmp_path / "b"), seeds=(5,), synth_n=500, epochs=5)
    dir_a = run_experiment("exp2_weighted", cfg_a, timestamp="t0")
    dir_b = run_experiment("exp2_weighted", cfg_b, timestamp="t0")
    bytes_ok = (
        (dir_a / "model-seed5.bin").read_bytes() == (dir_b / "model-seed5.bin").read_bytes()
        and (dir_a / "metrics.csv").read_bytes() == (dir_b / "metrics.csv").read_bytes()
    )
    report_line(10, "identical inputs give identical artifacts", splits_ok and bytes_ok)
