"""Synthetic inputs of both pipelines: radiology reports with a gold label,
and phenotype cohorts drawn from a known growth model.

Real clinical text and scans cannot ship with the package, so the
self-contained protocols run on generated data with a known truth. Abnormal
reports carry their diagnostic cue words only in the Findings section; the
Impression is deliberately weak evidence, with hedged "unremarkable" wording
appearing in both classes at different rates. A long tail of rare cue words
makes small (class-balanced, downsampled) training sets lose coverage that
the full corpus retains.
"""

import math
import random

import numpy as np

from .corpus import MASK64
from .growthchart import GGParams, GrowthModel, gg_sample_one, linear_predictors
from .labeling import Label
from .phenotype import DAYS_PER_YEAR, PhenotypeTable, QcCategory, Region
from .report_text import Report, Sex

COMMON_CUES = ("lesion", "edema", "hemorrhage", "infarct", "hydrocephalus")

# long tail of entity names built from morphemes: a downsampled training set
# cannot cover this vocabulary, while the full corpus nearly does
_PREFIXES = (
    "micro", "macro", "leuko", "encephalo", "ventriculo",
    "glio", "angio", "neuro", "myelo", "cranio",
)
_MIDDLES = (
    "cortico", "fibro", "cysto", "vasculo", "meningo",
    "dendro", "astro", "spongio", "thalamo", "ependymo",
)
_SUFFIXES = ("pathy", "oma", "itis", "osis", "plasia", "malacia", "cele", "trophy")

RARE_CUES = tuple(
    f"{a}{b}{c}" for a in _PREFIXES for b in _MIDDLES for c in _SUFFIXES
)

_NORMAL_FINDINGS = (
    "the ventricles and sulci are age appropriate",
    "gray white differentiation is preserved",
    "the midline structures are intact",
    "myelination is appropriate for age",
    "the posterior fossa structures appear normal",
    "no extra axial fluid collection is identified",
)

_FILLER = (
    "the orbits are grossly unremarkable",
    "the visualized paranasal sinuses are clear",
    "the calvarium is intact",
    "there is preserved flow void within the basilar artery",
    "the sella and pituitary are within normal limits",
    "the craniocervical junction is normal in appearance",
    "mastoid air cells are well aerated",
)

_LOCATIONS = (
    "left frontal lobe",
    "right parietal lobe",
    "posterior fossa",
    "periventricular white matter",
    "left temporal lobe",
    "brainstem",
)

_BENIGN_OBSERVATIONS = (
    "physiologic myelination",
    "symmetric ventricular configuration",
    "expected parenchymal volume",
    "age appropriate sulcation",
    "normal gray white differentiation",
    "preserved midline position",
)

_GENERIC_IMPRESSION = (
    "findings as described above",
    "clinical correlation is recommended",
    "comparison with prior imaging is suggested",
    "stable examination",
)

_TECHNIQUES = (
    "Multiplanar multisequence MRI of the brain without contrast.",
    "Sagittal T1 axial T2 FLAIR and diffusion weighted imaging were obtained.",
)

_INDICATIONS = (
    "Headache.",
    "Seizure evaluation.",
    "Developmental delay.",
    "Follow up of known condition.",
    "Macrocephaly.",
)

_SITES = ("site-A", "site-B")


def _pick(rng: random.Random, pool) -> str:
    return pool[rng.randrange(len(pool))]


def _cue(rng: random.Random) -> str:
    if rng.random() < 0.2:
        return _pick(rng, COMMON_CUES)
    return _pick(rng, RARE_CUES)


def _findings(rng: random.Random, label: Label) -> str:
    # both classes share boilerplate and negated cue mentions, so the only
    # reliable separator is the positive-context cue phrase of abnormals
    lines = [_pick(rng, _FILLER) for _ in range(3)]
    lines.append(_pick(rng, _NORMAL_FINDINGS))
    lines.append(_pick(rng, _NORMAL_FINDINGS))
    for _ in range(rng.randrange(3)):
        lines.append(
            f"no evidence of {_cue(rng)} involving the {_pick(rng, _LOCATIONS)} is seen"
        )
    # identical sentence-count distribution in both classes; the cue replaces
    # one benign observation, so only cue-adjacent n-grams carry class signal
    observed = [_pick(rng, _BENIGN_OBSERVATIONS) for _ in range(2 + rng.randrange(2))]
    if label is Label.ABNORMAL:
        observed[rng.randrange(len(observed))] = _cue(rng)
    for noun in observed:
        lines.append(
            f"the examination demonstrates {noun} within the {_pick(rng, _LOCATIONS)}"
        )
    rng.shuffle(lines)
    return ". ".join(line.capitalize() for line in lines) + "."


def _impression(rng: random.Random, label: Label) -> str:
    # weak signal on purpose: hedged normal wording shows up in both classes
    unremarkable_rate = 0.55 if label is Label.NORMAL else 0.25
    parts = [_pick(rng, _GENERIC_IMPRESSION)]
    if rng.random() < unremarkable_rate:
        parts.insert(0, "essentially unremarkable examination for age")
    return ". ".join(p.capitalize() for p in parts) + "."


def synth_reports(
    seed: int,
    n: int,
    abnormal_fraction: float,
) -> tuple[list[Report], dict[str, Label]]:
    """Generate n reports with gold labels, deterministic per seed."""
    rng = random.Random(seed)
    reports = []
    gold = {}
    n_abnormal = round(n * abnormal_fraction)
    for i in range(n):
        label = Label.ABNORMAL if i < n_abnormal else Label.NORMAL
        rid = f"syn-{seed}-{i:05d}"
        text = (
            f"CLINICAL INDICATION: {_pick(rng, _INDICATIONS)}\n"
            f"TECHNIQUE: {_pick(rng, _TECHNIQUES)}\n"
            f"FINDINGS: {_findings(rng, label)}\n"
            f"IMPRESSION: {_impression(rng, label)}"
        )
        reports.append(
            Report(
                id=rid,
                raw_text=text,
                exam_year=2012 + rng.randrange(8),
                site=_pick(rng, _SITES),
                age_days=135 + rng.randrange(6966),
                sex=Sex.M if rng.random() < 0.5 else Sex.F,
                procedure_description="MRI brain without and with contrast",
            )
        )
        gold[rid] = label
    order = list(range(n))
    rng.shuffle(order)
    reports = [reports[i] for i in order]
    return reports, gold


AGE_RANGE_DAYS = (135.0, 7100.0)
QC_FAIL_RATE = 0.02
JITTER_SIGMA = 0.01

# Relative size of each region against the modeled one, so that every volume
# column of a synthetic cohort is populated.
_REGION_SCALE = {
    Region.CORTICAL_GM: 1.0,
    Region.SUBCORTICAL_GM: 0.12,
    Region.WHITE_MATTER: 0.80,
    Region.VENTRICLES: 0.04,
    Region.CEREBELLUM: 0.25,
    Region.TOTAL_INTRACRANIAL: 2.60,
}


def synth_cohort(seed: int, n_sessions: int, truth: GrowthModel) -> PhenotypeTable:
    """Draw a synthetic cohort from a known growth model.

    Ages are uniform over AGE_RANGE_DAYS, sexes fair-coin, the truth's
    scanners (sorted ids of its intercepts) assigned round-robin, and 1 to 4
    sequences per session scale the session draw by a jitter of
    exp(N(0, JITTER_SIGMA)). A QC_FAIL_RATE share of sequences get one QC
    category planted below the exclusion threshold. The generator is seeded
    with the low 64 bits of `seed`, as the report splits are.
    """
    rng = np.random.default_rng(seed & MASK64)
    scanner_ids = sorted(truth.scanner_intercepts)
    rows = []
    for i in range(n_sessions):
        age_days = max(1, int(round(rng.uniform(*AGE_RANGE_DAYS))))
        sex = Sex.M if rng.random() < 0.5 else Sex.F
        scanner = scanner_ids[i % len(scanner_ids)]
        eta_mu, eta_sigma = linear_predictors(truth, age_days / DAYS_PER_YEAR, sex is Sex.F)
        eta_mu += truth.scanner_intercepts[scanner]
        # libm's exp, not numpy's: they differ in the last bit for about one
        # argument in twenty, and the tests pin digests of cohorts drawn with libm.
        params = GGParams(math.exp(eta_mu), math.exp(eta_sigma), truth.nu)
        base = gg_sample_one(rng, params)
        n_seq = int(rng.integers(1, 5))
        for j in range(n_seq):
            jitter = float(np.exp(rng.normal(0.0, JITTER_SIGMA)))
            volumes = tuple(base * jitter * _REGION_SCALE[region] for region in Region)
            qc = [float(rng.uniform(0.70, 1.0)) for _ in QcCategory]
            if rng.random() < QC_FAIL_RATE:
                bad = int(rng.integers(0, len(QcCategory)))
                qc[bad] = float(rng.uniform(0.0, 0.649))
            is_mprage = bool(rng.random() < 0.6)
            rows.append((f"ses-{i:05d}", f"ses-{i:05d}-seq-{j}", scanner, age_days,
                         sex.value, is_mprage, volumes, qc))
    return PhenotypeTable.from_rows(rows)
