"""Span tracer for one benchmark pass, installed from outside the program.

Each wrapped public function of a `normcharts` module is rebound in every
`normcharts.*` namespace that holds it, so names imported with
`from .x import y` (as `cli` does) are traced too.  `scipy.optimize.minimize`
is wrapped as well: for the growth-chart objective it records one span per
L-BFGS start and one per objective evaluation, with no private name needed.

Spans are kept in memory as (name, parent, start, end, count, ok) and
written out when the pass ends; `summarize` turns them into per-layer totals.
"""

import functools
import importlib
import json
import sys
import time

LAYERS = (
    "report_text",
    "labeling",
    "corpus",
    "classifier",
    "metrics",
    "stepwise",
    "phenotype",
    "growthchart",
    "cli",
)

# Public functions wrapped per layer: those the workloads reach, so each
# layer's self time lands in that layer.  Hot inner helpers (the FNV hash, the
# tokenizer, the GG cdf) stay unwrapped: their cost lands in the caller's span.
WRAPPED = {
    "report_text": ("load_reports_jsonl", "compose_input"),
    "labeling": ("load_annotations_jsonl", "label_reports"),
    "corpus": ("split",),
    "classifier": (
        "featurize", "train", "objective_and_gradient", "predict", "classify",
        "save_model", "load_model",
    ),
    "metrics": ("confusion", "seed_summary", "write_results_csv", "result_rows", "summary_rows"),
    "stepwise": ("run_inquiry", "parse_answer", "evaluate_inquiry", "FixtureAnswerSource.answer"),
    "phenotype": ("load_phenotype_csv", "build_sessions", "qc_filter", "write_sessions_csv"),
    "growthchart": (
        "fit", "centile", "percentile_curves", "gg_quantile", "compare_centiles",
        "save_growth_model", "load_growth_model",
    ),
    "cli": ("main",),
}

LBFGS = "growthchart.lbfgs"
OBJECTIVE = "growthchart.objective"


def _session_drops(result):
    _, attrition = result
    return attrition.dropped_qc + attrition.dropped_no_mprage


# Item counts taken from a span's return value; other spans count 1 per call.
COUNTS = {
    "report_text.load_reports_jsonl": len,
    "phenotype.load_phenotype_csv": len,
    "phenotype.build_sessions": _session_drops,
    "stepwise.parse_answer": lambda verdict: int(verdict.value == "Unparsed"),
    LBFGS: lambda res: int(res.nit),
}


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            n, ok = 0, 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                n, ok = 1, 1
                return result
            finally:
                t1 = clock()
                stack.pop()
                if ok and count is not None:
                    n = count(result)
                    if name == LBFGS:
                        ok = int(bool(result.success))
                spans[idx] = (name, parent, t0, t1, n, ok)

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "missing": self.missing}, f)


def _program_modules():
    return [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "normcharts" and m]


def _rebind(original, replacement) -> None:
    for module in _program_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Recorder:
    """Wrap every function in WRAPPED and the minimizer; returns the recorder."""
    from scipy import optimize

    rec = Recorder()
    for layer in LAYERS:
        importlib.import_module(f"normcharts.{layer}")
    for layer, names in WRAPPED.items():
        module = sys.modules[f"normcharts.{layer}"]
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                rec.missing.append(f"{layer}.{qualname}")
                continue
            traced = rec.wrap(f"{layer}.{qualname}", original)
            if owner is module:
                _rebind(original, traced)
            else:
                setattr(owner, attr, traced)

    minimize = optimize.minimize
    start = rec.wrap(LBFGS, minimize)

    @functools.wraps(minimize)
    def traced_minimize(fun, x0, *args, **kwargs):
        if getattr(fun, "__module__", None) != "normcharts.growthchart":
            return minimize(fun, x0, *args, **kwargs)
        return start(rec.wrap(OBJECTIVE, fun), x0, *args, **kwargs)

    optimize.minimize = traced_minimize
    _rebind(minimize, traced_minimize)
    return rec


def summarize(spans) -> dict:
    """Per span name: calls, total and self seconds, summed count, ok calls.

    Self time is a span's duration minus the durations of its direct
    children.  Layer self times (`<layer>.self_s`) partition the time spent
    inside traced spans, so they add up to the traced commands' time.
    """
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, n, ok in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    by_name: dict[str, dict] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, (name, parent, t0, t1, n, ok) in enumerate(spans):
        entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0, "ok": 0})
        dur = t1 - t0
        entry["calls"] += 1
        if parent < 0 or spans[parent][0] != name:
            entry["total_s"] += dur
        entry["self_s"] += dur - child_time[i]
        entry["count"] += n
        entry["ok"] += ok
        layer_self[name.split(".")[0]] += dur - child_time[i]
    return {"spans": by_name, "layer_self_s": layer_self}


# Per-layer metric -> (span name, field of its summary entry).
PER_LAYER = {
    "classifier.featurize_s": ("classifier.featurize", "total_s"),
    "classifier.featurize_calls": ("classifier.featurize", "calls"),
    "classifier.sgd_s": ("classifier.objective_and_gradient", "total_s"),
    "classifier.sgd_steps": ("classifier.objective_and_gradient", "calls"),
    "classifier.train_self_s": ("classifier.train", "self_s"),
    "classifier.predict_s": ("classifier.predict", "total_s"),
    "classifier.predict_calls": ("classifier.predict", "calls"),
    "report_text.load_s": ("report_text.load_reports_jsonl", "total_s"),
    "report_text.reports_loaded": ("report_text.load_reports_jsonl", "count"),
    "corpus.split_s": ("corpus.split", "total_s"),
    "growthchart.fit_s": ("growthchart.fit", "total_s"),
    "growthchart.lbfgs_starts": (LBFGS, "calls"),
    "growthchart.lbfgs_iters": (LBFGS, "count"),
    "growthchart.objective_evals": (OBJECTIVE, "calls"),
    "growthchart.objective_s": (OBJECTIVE, "total_s"),
    "growthchart.quantile_s": ("growthchart.gg_quantile", "total_s"),
    "growthchart.quantile_calls": ("growthchart.gg_quantile", "calls"),
    "growthchart.curves_s": ("growthchart.percentile_curves", "total_s"),
    "growthchart.centile_s": ("growthchart.centile", "total_s"),
    "growthchart.centile_calls": ("growthchart.centile", "calls"),
    "phenotype.load_s": ("phenotype.load_phenotype_csv", "total_s"),
    "phenotype.records_loaded": ("phenotype.load_phenotype_csv", "count"),
    "phenotype.build_sessions_s": ("phenotype.build_sessions", "total_s"),
    "phenotype.qc_filter_s": ("phenotype.qc_filter", "total_s"),
    "phenotype.sessions_dropped": ("phenotype.build_sessions", "count"),
    "stepwise.inquiry_s": ("stepwise.run_inquiry", "total_s"),
    "stepwise.answer_calls": ("stepwise.FixtureAnswerSource.answer", "calls"),
    "stepwise.unparsed": ("stepwise.parse_answer", "count"),
}


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of one traced pass (0 for a layer left idle)."""
    spans = summary["spans"]
    out = {name: spans.get(span, {}).get(field, 0) for name, (span, field) in PER_LAYER.items()}
    lbfgs = spans.get(LBFGS, {"calls": 0, "ok": 0})
    out["growthchart.lbfgs_converged_ratio"] = lbfgs["ok"] / lbfgs["calls"] if lbfgs["calls"] else 0.0
    out.update({f"{layer}.self_s": s for layer, s in summary["layer_self_s"].items()})
    return out
