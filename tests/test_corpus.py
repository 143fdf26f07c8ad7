import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcharts import corpus
from normcharts.corpus import MASK64, SplitMix64, Subset, balance, ood_partition, split
from normcharts.errors import DataError
from normcharts.labeling import Label
from normcharts.report_text import Report, Sex


def make_reports(n, year=2015, site="site-A"):
    return [
        Report(
            id=f"r{i:04d}", raw_text="FINDINGS: text.", exam_year=year, site=site,
            age_days=100 + i, sex=Sex.M, procedure_description="MRI brain",
        )
        for i in range(n)
    ]


# splitmix64 reference values from the public domain reference implementation
# seeded with 1234567
def test_splitmix64_reference_stream():
    rng = SplitMix64(1234567)
    assert rng.next() == 6457827717110365317
    assert rng.next() == 3203168211198807973
    assert rng.next() == 9817491932198370423


def test_splitmix64_below_bounds():
    rng = SplitMix64(9)
    for _ in range(1000):
        assert 0 <= rng.below(7) < 7


def test_shuffle_is_permutation_and_deterministic():
    a = list(range(50))
    b = list(range(50))
    SplitMix64(5).shuffle(a)
    SplitMix64(5).shuffle(b)
    assert a == b
    assert sorted(a) == list(range(50))


def _scalar_shuffle(rng, items):
    """Fisher-Yates one `below` call per swap: the reference for the array draws."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


_SIZES = (0, 1, 2, 3, 5, 64, 65, 200, 1000, 4097)


def _shuffle_matches_scalar_reference(seeds):
    for k, seed in enumerate(seeds):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        # a second shuffle of another size, then a plain draw, continue the same stream
        for size in (_SIZES[k % len(_SIZES)], _SIZES[(3 * k + 1) % len(_SIZES)]):
            items, expected = list(range(size)), list(range(size))
            rng.shuffle(items)
            _scalar_shuffle(ref, expected)
            assert items == expected, (seed, size)
            assert rng.state == ref.state, (seed, size)
        assert rng.next() == ref.next()


_draw_seed = random.Random(17).getrandbits
# about half of the random seeds have the top bit set too
_SEEDS = [0, 1, MASK64, 1 << 63, (1 << 63) + 5] + [_draw_seed(64) for _ in range(300)]


def test_shuffle_matches_scalar_fisher_yates():
    _shuffle_matches_scalar_reference(_SEEDS)


def test_shuffle_falls_back_to_scalar_draws_on_a_rejection(monkeypatch):
    calls = []

    def reject(draws, n):
        calls.append(len(n))
        return False

    monkeypatch.setattr(corpus, "_all_within_limits", reject)
    _shuffle_matches_scalar_reference(_SEEDS[:40])
    assert calls


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 2**32 + 1, 2**63 + 1, MASK64])
def test_rejection_limit_matches_below(n):
    limit = MASK64 - (MASK64 + 1) % n  # the largest draw `below(n)` accepts
    sizes = np.array([n], dtype=np.uint64)
    assert corpus._all_within_limits(np.array([limit], dtype=np.uint64), sizes)
    if limit < MASK64:
        assert not corpus._all_within_limits(np.array([limit + 1], dtype=np.uint64), sizes)


def test_split_sizes_80_10_10():
    reports = make_reports(100)
    a = split(reports, seed=1)
    assert len(a.ids(Subset.VAL)) == 10
    assert len(a.ids(Subset.TEST)) == 10
    assert len(a.ids(Subset.TRAIN)) == 80


def test_split_remainder_goes_to_train():
    reports = make_reports(105)
    a = split(reports, seed=1)
    assert len(a.ids(Subset.VAL)) == 10
    assert len(a.ids(Subset.TEST)) == 10
    assert len(a.ids(Subset.TRAIN)) == 85


def test_split_deterministic_and_seed_sensitive():
    reports = make_reports(60)
    assert split(reports, 3).assignment == split(reports, 3).assignment
    assert split(reports, 3).assignment != split(reports, 4).assignment


def test_split_duplicate_ids_raise():
    reports = make_reports(5) + make_reports(1)
    with pytest.raises(DataError, match=r"^duplicate report ids: \['r0000'\]$"):
        split(reports, 0)


def test_split_partition_is_exhaustive_and_disjoint():
    reports = make_reports(83)
    a = split(reports, 7)
    all_ids = a.ids(Subset.TRAIN) + a.ids(Subset.VAL) + a.ids(Subset.TEST)
    assert sorted(all_ids) == sorted(r.id for r in reports)


def test_stratified_split_preserves_class_shares():
    reports = make_reports(200)
    labels = {
        r.id: (Label.NORMAL if i < 20 else Label.ABNORMAL)
        for i, r in enumerate(reports)
    }
    a = split(reports, 11, labels=labels)
    test_ids = a.ids(Subset.TEST)
    normals = sum(1 for rid in test_ids if labels[rid] is Label.NORMAL)
    # 10% of each stratum: 2 of the 20 normals and 18 of the 180 abnormals
    assert normals == 2
    assert len(test_ids) == 20


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=10, max_value=120))
def test_split_property_sizes(seed, n):
    a = split(make_reports(n), seed)
    assert len(a.ids(Subset.VAL)) == n // 10
    assert len(a.ids(Subset.TEST)) == n // 10
    assert len(a.ids(Subset.TRAIN)) == n - 2 * (n // 10)


def test_balance_equal_counts():
    reports = make_reports(100)
    labels = {r.id: (Label.NORMAL if i < 10 else Label.ABNORMAL) for i, r in enumerate(reports)}
    picked = balance([r.id for r in reports], labels, seed=0)
    normals = [rid for rid in picked if labels[rid] is Label.NORMAL]
    abnormals = [rid for rid in picked if labels[rid] is Label.ABNORMAL]
    assert len(normals) == len(abnormals) == 10


def test_balance_missing_class_raises():
    reports = make_reports(10)
    labels = {r.id: Label.ABNORMAL for r in reports}
    with pytest.raises(DataError, match="^both classes must be present to balance$"):
        balance([r.id for r in reports], labels, seed=0)


def test_balance_deterministic():
    reports = make_reports(60)
    labels = {r.id: (Label.NORMAL if i < 6 else Label.ABNORMAL) for i, r in enumerate(reports)}
    ids = [r.id for r in reports]
    assert balance(ids, labels, seed=2) == balance(ids, labels, seed=2)


def test_ood_partition_by_year_and_site():
    old = make_reports(10, year=2014)
    new = [
        Report(id=f"n{i}", raw_text="FINDINGS: x.", exam_year=2019, site="site-A",
               age_days=1, sex=Sex.F, procedure_description="MRI brain")
        for i in range(4)
    ]
    held = [
        Report(id="h0", raw_text="FINDINGS: x.", exam_year=2014, site="site-B",
               age_days=1, sex=Sex.F, procedure_description="MRI brain")
    ]
    in_dist, ood = ood_partition(old + new + held, cutoff_year=2018, holdout_site="site-B")
    assert {r.id for r in in_dist} == {r.id for r in old}
    assert {r.id for r in ood} == {r.id for r in new} | {"h0"}
    assert len(in_dist) + len(ood) == 15
