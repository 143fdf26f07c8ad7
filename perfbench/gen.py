"""Seeded input generator for the benchmark.

Writes radiology reports (JSONL), annotator grades (JSONL) and segmentation
phenotypes (CSV) in the formats the CLI documents.  It is written against
those formats only and shares no code with the program, so changes to the
program's own synthetic-data helpers cannot change the benchmark's inputs.
The same seed always gives byte-identical files.
"""

import csv
import hashlib
import json
import math
import re

import numpy as np

# ---------------------------------------------------------------------------
# reports

_NORMAL_FINDINGS = (
    "the ventricles and sulci are normal in size and configuration for age",
    "gray white matter differentiation is preserved",
    "there is no midline shift mass effect or extra axial collection",
    "myelination is appropriate for the stated age",
    "the posterior fossa structures are unremarkable",
    "there are no areas of restricted diffusion",
    "there is no abnormal parenchymal enhancement following contrast",
    "the major intracranial flow voids are preserved",
    "the pituitary gland and sella are within normal limits",
    "the craniocervical junction is normal",
    "the orbits are grossly unremarkable",
    "the visualized paranasal sinuses and mastoid air cells are clear",
    "the calvarium and skull base marrow signal is normal",
    "the corpus callosum is intact and normal in thickness",
    "the basal ganglia and thalami demonstrate normal signal",
    "the cerebellar tonsils are normally positioned",
    "there is no susceptibility artifact to suggest blood products",
    "the hippocampi are symmetric in size and signal",
)

_SOFT_FINDINGS = (
    "a few nonspecific punctate foci of signal in the subcortical white matter",
    "mild prominence of the extra axial spaces",
    "a small pineal cyst is noted",
    "mild mucosal thickening of the maxillary sinuses",
)

_CUES = (
    "lesion", "edema", "hemorrhage", "infarct", "mass", "hydrocephalus",
    "encephalomalacia", "gliosis", "contusion", "abscess", "cavernoma",
    "heterotopia", "polymicrogyria", "schizencephaly", "leukomalacia",
    "medulloblastoma", "ependymoma", "astrocytoma", "craniopharyngioma",
    "germinoma", "hamartoma", "dysplasia", "hematoma", "hygroma",
    "ventriculomegaly", "atrophy", "demyelination", "vasculopathy",
    "aneurysm", "malformation", "cyst", "thrombosis", "stenosis",
    "herniation", "microhemorrhage", "calcification", "enhancement",
    "effusion", "empyema", "meningioma",
)

_ADJECTIVES = (
    "enhancing", "nonenhancing", "heterogeneous", "lobulated", "expansile",
    "ill defined", "well circumscribed", "cystic", "solid", "infiltrative",
)

_LOCATIONS = (
    "left frontal lobe", "right frontal lobe", "left parietal lobe",
    "right parietal lobe", "left temporal lobe", "right temporal lobe",
    "occipital lobes", "posterior fossa", "cerebellar vermis", "brainstem",
    "pons", "periventricular white matter", "corpus callosum", "thalamus",
    "basal ganglia", "suprasellar region", "pineal region", "fourth ventricle",
)

_ABNORMAL_TEMPLATES = (
    "there is a {size} {adj} {cue} in the {loc}",
    "a {adj} {cue} involving the {loc} is again seen measuring {size}",
    "redemonstrated {cue} of the {loc} with surrounding {cue2}",
    "new {cue} is present within the {loc}",
    "postsurgical changes of the {loc} with residual {cue}",
)

_INDICATIONS = (
    "headache", "seizure", "developmental delay", "macrocephaly",
    "abnormal gait", "vomiting", "hearing loss", "syncope", "staring spells",
    "head trauma", "follow up", "hypotonia", "visual disturbance",
    "behavioral change", "short stature", "precocious puberty",
)

_TECHNIQUES = (
    "sagittal t1 axial and coronal t2 axial flair and axial diffusion weighted imaging on a 3 tesla system",
    "multiplanar multisequence mri of the brain without contrast on a 1.5 tesla system",
    "3d sagittal t1 gradient echo axial t2 axial flair susceptibility and diffusion imaging",
    "pre and post contrast multiplanar imaging of the brain on a 3 tesla system",
)

_NORMAL_IMPRESSIONS = (
    "unremarkable mri of the brain",
    "normal brain mri for age",
    "no intracranial abnormality is identified",
    "normal examination",
)

_SOFT_IMPRESSIONS = (
    "no acute intracranial abnormality",
    "no significant intracranial abnormality",
)

_PROCEDURES = (
    "MRI BRAIN WITHOUT CONTRAST",
    "MRI BRAIN WITHOUT AND WITH CONTRAST",
    "MRI BRAIN AND ORBITS",
)

_SITES = ("SITE-A", "SITE-B", "SITE-C")


def _zipf_weights(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1)
    return w / w.sum()


_CUE_W = _zipf_weights(len(_CUES))


def _rng(*keys) -> np.random.Generator:
    """Generator seeded by integer keys; any int seed, negative too, is accepted."""
    return np.random.default_rng([k % (1 << 64) for k in keys])


def _pick(rng, items, weights=None):
    return items[int(rng.choice(len(items), p=weights))]


def _size(rng, unique_tokens: bool) -> str:
    if unique_tokens:
        return f"{rng.integers(1000, 99999)} cubic mm"
    return f"{rng.integers(2, 40)} x {rng.integers(2, 40)} mm"


def _unique_header(rng) -> str:
    # accession, record and order numbers as they appear in raw exports:
    # tokens that occur in exactly one report
    return (
        f"Accession {rng.integers(10**9, 10**10)} MRN {rng.integers(10**7, 10**8)} "
        f"Order {rng.integers(10**8, 10**9)} Study {rng.integers(10**9, 10**10)}."
        f"{rng.integers(10**5, 10**6)}"
    )


def _unique_footer(rng) -> str:
    return (
        f"Electronically signed reference {rng.integers(10**9, 10**10)} "
        f"device {rng.integers(10**6, 10**7)} series {rng.integers(10**4, 10**5)}"
    )


def _abnormal_sentence(rng, unique_tokens: bool) -> str:
    template = _pick(rng, _ABNORMAL_TEMPLATES)
    return template.format(
        size=_size(rng, unique_tokens),
        adj=_pick(rng, _ADJECTIVES),
        cue=_pick(rng, _CUES, _CUE_W),
        cue2=_pick(rng, _CUES, _CUE_W),
        loc=_pick(rng, _LOCATIONS),
    )


def _report_text(rng, normal: bool, unique_tokens: bool) -> str:
    n_normal = int(rng.integers(4, 8))
    picks = rng.choice(len(_NORMAL_FINDINGS), size=n_normal, replace=False)
    findings = [_NORMAL_FINDINGS[i] for i in picks]
    if normal:
        if rng.random() < 0.15:
            findings.insert(int(rng.integers(0, len(findings) + 1)), _pick(rng, _SOFT_FINDINGS))
        impression = _pick(rng, _NORMAL_IMPRESSIONS + _SOFT_IMPRESSIONS)
        indication = _pick(rng, _INDICATIONS)
    else:
        subtle = rng.random() < 0.03
        if subtle:
            # a single soft finding with a reassuring impression: the hard cases
            findings.insert(int(rng.integers(0, len(findings) + 1)), _pick(rng, _SOFT_FINDINGS))
            impression = _pick(rng, _SOFT_IMPRESSIONS)
        else:
            for _ in range(int(rng.integers(1, 4))):
                findings.insert(
                    int(rng.integers(0, len(findings) + 1)), _abnormal_sentence(rng, unique_tokens)
                )
            impression = f"{_pick(rng, _CUES, _CUE_W)} in the {_pick(rng, _LOCATIONS)}"
        indication = _pick(rng, _INDICATIONS)
        if rng.random() < 0.5:
            indication = f"follow up of known {_pick(rng, _CUES, _CUE_W)}"
    comparison = "none" if rng.random() < 0.5 else f"prior brain mri from {rng.integers(2008, 2023)}"
    parts = []
    if unique_tokens:
        parts.append(_unique_header(rng))
    parts.append(impression.capitalize() + ".")
    parts.append(f"CLINICAL INDICATION: {indication.capitalize()}.")
    parts.append(f"TECHNIQUE: {_pick(rng, _TECHNIQUES).capitalize()}.")
    parts.append(f"COMPARISON: {comparison.capitalize()}.")
    parts.append("FINDINGS: " + " ".join(s.capitalize() + "." for s in findings))
    parts.append(f"IMPRESSION: {impression.capitalize()}. END OF IMPRESSION:")
    if unique_tokens:
        parts.append(_unique_footer(rng))
    return " ".join(parts)


def _grades(rng, normal: bool) -> list[int]:
    u = rng.random()
    if normal:
        return [2, 2, 2] if u < 0.85 else [2, 2, 1]
    if u < 0.80:
        return [0, 0, 0]
    if u < 0.98:
        return [0, 0, 1]
    return [0, 1, 1]  # mean 2/3: Uncertain, excluded downstream


def make_reports(seed: int, n: int, normal_fraction: float, unique_tokens: bool, prefix: str):
    """Reports, annotation sets and the generator's own labels.

    Returns (reports, annotations, labels): lists of JSON-ready dicts, and a
    dict of report id -> "Normal" / "Abnormal" / "Uncertain" computed from
    the annotator grades by the documented rule (mean > 1.5 Normal,
    mean < 0.5 Abnormal, otherwise Uncertain).
    """
    rng = _rng(seed, 1 if unique_tokens else 0, n)
    n_normal = round(normal_fraction * n)
    is_normal = np.zeros(n, dtype=bool)
    is_normal[rng.choice(n, size=n_normal, replace=False)] = True
    reports, annotations, labels = [], [], {}
    for i in range(n):
        rid = f"{prefix}-{i:05d}"
        normal = bool(is_normal[i])
        reports.append(
            {
                "id": rid,
                "text": _report_text(rng, normal, unique_tokens),
                "exam_year": int(rng.integers(2010, 2024)),
                "site": _pick(rng, _SITES),
                "age_days": int(rng.integers(30, 7000)),
                "sex": _pick(rng, ("M", "F", "Unknown")),
                "procedure_description": _pick(rng, _PROCEDURES),
            }
        )
        grades = _grades(rng, normal)
        annotations.append({"report_id": rid, "grades": grades})
        mean = sum(grades) / len(grades)
        labels[rid] = "Normal" if mean > 1.5 else "Abnormal" if mean < 0.5 else "Uncertain"
    return reports, annotations, labels


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


_TOKEN = re.compile(r"[a-z0-9]+")


def ngram_ratio(texts) -> dict:
    """Distinct/total word uni- and bigrams, the shape a hash cache sees."""
    counts: dict[str, int] = {}
    total = 0
    for text in texts:
        tokens = _TOKEN.findall(text.lower())
        grams = tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
        total += len(grams)
        for g in grams:
            counts[g] = counts.get(g, 0) + 1
    singletons = sum(1 for c in counts.values() if c == 1)
    return {
        "total": total,
        "distinct": len(counts),
        "distinct_ratio": len(counts) / total,
        "singleton_share": singletons / len(counts),
    }


# ---------------------------------------------------------------------------
# phenotypes

REGIONS = (
    "vol_cortical_gm",
    "vol_subcortical_gm",
    "vol_white_matter",
    "vol_ventricles",
    "vol_cerebellum",
    "vol_tiv",
)
QC_COLUMNS = (
    "qc_gwm",
    "qc_ggm",
    "qc_gcsf",
    "qc_cerebellum",
    "qc_brainstem",
    "qc_thalamus",
    "qc_putamen_pallidum",
    "qc_hippocampus_amygdala",
)
PHENOTYPE_HEADER = (
    ("session_id", "sequence_id", "scanner_id", "age_days", "sex", "is_mprage")
    + REGIONS
    + QC_COLUMNS
)
QC_THRESHOLD = 0.65

# Generating model per region: log mu = b0 + b1 * fp(age) + b_sex * [F] +
# scanner shift, log sigma = s0 + s1 * age, constant shape nu.  Each fp power
# is one of the fractional-polynomial powers the fitter searches.
#
# The shape is only seen through the skew of log volume, about sigma * nu,
# so with sigma near 0.1 its estimate is loose: about 0.6 standard deviation
# at 2,000 sessions and 0.8 at 1,000.  The fitter bounds nu to [0.05, 8], and
# a fit that ends on a bound can fail its convergence test.  Each nu sits at least
# six standard deviations from both bounds at the cohort sizes the workloads
# fit (2,000 sessions), so no seed puts the estimate on a bound; with nu near
# 1.5 and 1,000 sessions, about one fit in forty did.
TRUTH = {
    "vol_cortical_gm": dict(b0=12.55, power=0.5, b1=0.18, b_sex=-0.07, s0=-2.1, s1=-0.01, nu=4.0),
    "vol_subcortical_gm": dict(b0=10.45, power=0.0, b1=0.09, b_sex=-0.05, s0=-2.3, s1=0.0, nu=4.0),
    "vol_white_matter": dict(b0=12.10, power=0.5, b1=0.24, b_sex=-0.08, s0=-2.0, s1=-0.015, nu=4.0),
    "vol_ventricles": dict(b0=9.30, power=1.0, b1=0.02, b_sex=-0.10, s0=-1.2, s1=0.01, nu=1.5),
    "vol_cerebellum": dict(b0=11.75, power=-0.5, b1=-0.35, b_sex=-0.06, s0=-2.2, s1=0.0, nu=4.0),
    "vol_tiv": dict(b0=14.00, power=0.0, b1=0.08, b_sex=-0.09, s0=-2.4, s1=-0.005, nu=4.0),
}
SCANNER_SHIFTS = (0.05, -0.03, 0.02, -0.06, 0.02, 0.03, -0.04, 0.01)


def fp_term(x, power):
    return np.log(x) if power == 0.0 else x**power


def scanner_shifts(n_scanners: int) -> dict[str, float]:
    shifts = [SCANNER_SHIFTS[i % len(SCANNER_SHIFTS)] for i in range(n_scanners)]
    mean = sum(shifts) / n_scanners
    return {f"scan-{i:02d}": s - mean for i, s in enumerate(shifts)}


def truth_params(region: str, age_years, is_female, shift):
    """(mu, sigma, nu) of the generating model, elementwise over arrays."""
    t = TRUTH[region]
    log_mu = t["b0"] + t["b1"] * fp_term(age_years, t["power"]) + t["b_sex"] * is_female + shift
    log_sigma = t["s0"] + t["s1"] * age_years
    return np.exp(log_mu), np.exp(log_sigma), t["nu"]


def make_cohort(seed: int, n_sessions: int, n_scanners: int, prefix: str = "ses"):
    """Sequence-level phenotype rows plus the session table they came from.

    Volumes and QC scores are rounded to the precision written to the CSV,
    so the arrays returned equal what the program reads back.
    """
    rng = _rng(seed, n_sessions, n_scanners)
    shifts = scanner_shifts(n_scanners)
    scanner_ids = sorted(shifts)
    age_days = rng.integers(135, 7101, size=n_sessions)
    is_female = rng.random(n_sessions) < 0.5
    scanner = rng.integers(0, n_scanners, size=n_sessions)
    shift = np.asarray([shifts[scanner_ids[k]] for k in scanner])
    age_years = age_days / 365.25
    session_volume = {}
    for region in REGIONS:
        mu, sigma, nu = truth_params(region, age_years, is_female, shift)
        theta = 1.0 / (sigma**2 * nu**2)
        g = rng.gamma(theta)
        session_volume[region] = mu * (g / theta) ** (1.0 / nu)
    n_seq = rng.integers(1, 5, size=n_sessions)
    rows = []
    seq_session = np.repeat(np.arange(n_sessions), n_seq)
    m = seq_session.size
    jitter = np.exp(rng.normal(0.0, 0.01, size=(m, len(REGIONS))))
    qc = np.round(rng.uniform(0.70, 1.0, size=(m, len(QC_COLUMNS))), 4)
    fail = rng.random(m) < 0.03
    fail_col = rng.integers(0, len(QC_COLUMNS), size=m)
    qc[fail, fail_col[fail]] = np.round(rng.uniform(0.0, 0.649, size=int(fail.sum())), 4)
    edge = rng.random(m) < 0.005
    qc[edge, fail_col[edge]] = QC_THRESHOLD  # exactly at the threshold: kept
    is_mprage = rng.random(m) < 0.6
    volumes = np.empty((m, len(REGIONS)))
    for j, region in enumerate(REGIONS):
        volumes[:, j] = np.round(session_volume[region][seq_session] * jitter[:, j], 6)
    seq_index = np.concatenate([np.arange(k) for k in n_seq])
    for r in range(m):
        s = seq_session[r]
        sid = f"{prefix}-{s:05d}"
        rows.append(
            [sid, f"{sid}-seq-{seq_index[r]}", scanner_ids[scanner[s]], int(age_days[s]),
             "F" if is_female[s] else "M", "true" if is_mprage[r] else "false"]
            + [f"{v:.6f}" for v in volumes[r]]
            + [f"{q:.4f}" for q in qc[r]]
        )
    cohort = {
        "session_ids": [f"{prefix}-{s:05d}" for s in range(n_sessions)],
        "scanner": [scanner_ids[k] for k in scanner],
        "age_days": age_days,
        "is_female": is_female,
        "seq_session": seq_session,
        "volumes": volumes,
        "qc_pass": np.all(qc >= QC_THRESHOLD, axis=1),
    }
    return rows, cohort


def session_medians(cohort) -> dict[str, dict]:
    """Per-session median volume over QC-passing sequences, keyed by id.

    Sessions whose every sequence fails QC are absent.
    """
    out = {}
    keep = cohort["qc_pass"]
    order = np.argsort(cohort["seq_session"], kind="stable")
    sessions = cohort["seq_session"][order]
    bounds = np.flatnonzero(np.diff(sessions)) + 1
    for block in np.split(order, bounds):
        block = block[keep[block]]
        if block.size == 0:
            continue
        s = int(cohort["seq_session"][block[0]])
        out[cohort["session_ids"][s]] = {
            "scanner": cohort["scanner"][s],
            "age_years": float(cohort["age_days"][s]) / 365.25,
            "is_female": bool(cohort["is_female"][s]),
            "volumes": dict(zip(REGIONS, np.median(cohort["volumes"][block], axis=0).tolist())),
        }
    return out


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def gg_logpdf(y, mu, sigma, nu):
    """Generalized-gamma log density, elementwise (the documented form)."""
    from scipy import special

    theta = 1.0 / (sigma**2 * nu**2)
    w = np.log(y) - np.log(mu)
    z = np.exp(nu * w)
    return (
        math.log(abs(nu)) + theta * np.log(theta) + theta * nu * w - theta * z
        - special.gammaln(theta) - np.log(y)
    )
