"""Deterministic seeded splits, class balancing, and OOD partitions."""

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

from .errors import DuplicateId, MissingClass
from .labeling import Label
from .report_text import Report

MASK64 = (1 << 64) - 1


class Subset(Enum):
    TRAIN = "Train"
    VAL = "Val"
    TEST = "Test"


class SplitMix64:
    """Tiny 64-bit PRNG (splitmix64).

    Chosen over platform RNGs so split assignments are bit-reproducible from
    the declared seed alone, on any platform.
    """

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = MASK64 - (MASK64 + 1) % n
        while True:
            x = self.next()
            if x <= limit:
                return x % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class SplitAssignment:
    assignment: Mapping[str, Subset]

    def ids(self, subset: Subset) -> list[str]:
        return [rid for rid, s in self.assignment.items() if s is subset]


def _cut(ids: list[str]) -> dict[str, Subset]:
    # 80/10/10 with val/test floored at 10% each; the remainder goes to Train.
    n = len(ids)
    n_val = n // 10
    n_test = n // 10
    n_train = n - n_val - n_test
    out = {}
    for i, rid in enumerate(ids):
        if i < n_train:
            out[rid] = Subset.TRAIN
        elif i < n_train + n_val:
            out[rid] = Subset.VAL
        else:
            out[rid] = Subset.TEST
    return out


def split(
    corpus: Sequence[Report],
    seed: int,
    labels: Optional[Mapping[str, Label]] = None,
) -> SplitAssignment:
    """Assign each report to Train/Val/Test by a seeded deterministic shuffle.

    Ids are sorted lexicographically, shuffled with splitmix64, and cut
    80/10/10.  When a label mapping is given, shuffling and cutting happen
    within each label stratum so class proportions carry over per subset.
    """
    ids = [r.id for r in corpus]
    if len(set(ids)) != len(ids):
        seen, dupes = set(), set()
        for rid in ids:
            (dupes if rid in seen else seen).add(rid)
        raise DuplicateId(f"duplicate report ids: {sorted(dupes)}")

    strata: dict[object, list[str]]
    if labels is None:
        strata = {None: sorted(ids)}
    else:
        strata = {}
        for rid in sorted(ids):
            strata.setdefault(labels.get(rid), []).append(rid)

    assignment: dict[str, Subset] = {}
    for key in sorted(strata, key=lambda k: "" if k is None else str(k)):
        stratum = strata[key]
        rng = SplitMix64(seed)
        # Decorrelate strata by folding the stratum into the stream position.
        for _ in range(sum(ord(c) for c in str(key)) % 17):
            rng.next()
        rng.shuffle(stratum)
        assignment.update(_cut(stratum))
    return SplitAssignment(assignment)


def balance(
    train_ids: Sequence[str],
    labels: Mapping[str, Label],
    seed: int,
) -> list[str]:
    """Equal-count subset: all minority-class ids plus a seeded sample of the majority.

    Ids without a Normal or Abnormal label, including ids `labels` does not
    cover, are left out.
    """
    normals = [rid for rid in train_ids if labels.get(rid) is Label.NORMAL]
    abnormals = [rid for rid in train_ids if labels.get(rid) is Label.ABNORMAL]
    if not normals or not abnormals:
        raise MissingClass("both classes must be present to balance")
    minority, majority = (normals, abnormals) if len(normals) <= len(abnormals) else (abnormals, normals)
    pool = sorted(majority)
    rng = SplitMix64(seed ^ 0xB7E151628AED2A6A)
    rng.shuffle(pool)
    selected = pool[: len(minority)]
    return sorted(minority) + sorted(selected)


def ood_partition(
    corpus: Sequence[Report],
    cutoff_year: int,
    holdout_site: Optional[str] = None,
) -> tuple[list[Report], list[Report]]:
    """Split into in-distribution and out-of-distribution reports.

    In-distribution means exam_year < cutoff_year and site != holdout_site;
    everything else is OOD.  The partition is exhaustive and disjoint.
    """
    in_dist, ood = [], []
    for r in corpus:
        if r.exam_year < cutoff_year and (holdout_site is None or r.site != holdout_site):
            in_dist.append(r)
        else:
            ood.append(r)
    return in_dist, ood
