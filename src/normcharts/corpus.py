"""Deterministic seeded splits, class balancing, and OOD partitions."""

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import DataError
from .labeling import Label
from .report_text import Report

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


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
        self.state = (self.state + _GAMMA) & MASK64
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
        """In-place Fisher-Yates shuffle.

        splitmix64 is counter-based: draw k mixes state + k * gamma.  So the
        draws of a whole shuffle are computed at once in wrapping uint64
        arithmetic, as `below` would make them when it rejects none; if any
        is rejected, the scalar loop runs instead.  Either way the
        permutation and the state afterwards are the same.
        """
        n = np.arange(len(items), 1, -1, dtype=np.uint64)  # draw k picks j in [0, n[k])
        z = np.arange(1, len(n) + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self.state)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        if _all_within_limits(z, n):
            self.state = (self.state + len(n) * _GAMMA) & MASK64
            picks = (z % n).tolist()
        else:
            picks = [self.below(k) for k in n.tolist()]
        for i, j in zip(range(len(items) - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]


def _all_within_limits(draws: np.ndarray, n: np.ndarray) -> bool:
    """Whether `below(n[k])` accepts every draws[k]: each is at most MASK64 - 2**64 % n[k]."""
    # 2**64 % n == (2**64 - n) % n, and 0 - n wraps to 2**64 - n
    return bool(np.all(draws <= np.uint64(MASK64) - (np.uint64(0) - n) % n))


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

    Sorted ids are grouped into strata (one per label, None for an id `labels`
    lacks; without `labels`, all in None), and each stratum is shuffled with
    splitmix64 and cut 80/10/10, so class proportions carry over per subset.
    """
    ids = [r.id for r in corpus]
    if len(set(ids)) != len(ids):
        seen, dupes = set(), set()
        for rid in ids:
            (dupes if rid in seen else seen).add(rid)
        raise DataError(f"duplicate report ids: {sorted(dupes)}")

    strata: dict[object, list[str]] = {}
    for rid in sorted(ids):
        strata.setdefault(None if labels is None else labels.get(rid), []).append(rid)

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
        raise DataError("both classes must be present to balance")
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
