import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from normcharts.classifier import (
    EPS,
    FeatureConfig,
    TrainConfig,
    classify,
    featurize,
    fnv1a_64,
    load_model,
    objective_and_gradient,
    predict,
    save_model,
    tokenize,
    train,
    _SCORE_BLOCK,
    _sigmoid,
)
from normcharts.corpus import SplitMix64
from normcharts.errors import EmptyInput, InvalidParams, MissingClass
from normcharts.labeling import Label


def test_fnv1a_64_known_vectors():
    # published FNV-1a 64-bit vectors
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_tokenize_alphanumeric_runs():
    assert tokenize("No acute infarct, age 7!") == ["no", "acute", "infarct", "age", "7"]


def test_tokenize_no_lowercase():
    assert tokenize("Acute MASS", lowercase=False) == ["Acute", "MASS"]


def test_featurize_counts_unigrams_and_bigrams():
    cfg = FeatureConfig()
    feats = featurize(["mass mass lesion"], cfg)
    # 2 unigram buckets (mass x2, lesion) and 2 bigrams (mass mass, mass lesion)
    assert feats.sum() == 5
    assert feats.max() == 2


def test_featurize_empty_raises():
    with pytest.raises(EmptyInput):
        featurize(["..."], FeatureConfig())


def test_text_with_no_tokens_is_named_by_its_row():
    texts = [f"word{i} stable" for i in range(2 * _SCORE_BLOCK)]
    texts[_SCORE_BLOCK + 3] = "!!! ..."
    with pytest.raises(EmptyInput, match=f"text {_SCORE_BLOCK + 3} has no tokens") as e:
        featurize(texts, FeatureConfig())
    assert e.value.row == _SCORE_BLOCK + 3
    m = train(_toy_examples(), TrainConfig(epochs=2, seed=0), FeatureConfig(dimension=1 << 10))
    with pytest.raises(EmptyInput) as e:
        predict(m, texts)
    assert e.value.row == _SCORE_BLOCK + 3
    # train sorts its examples; the row still indexes the examples as given
    examples = _toy_examples()
    examples[5] = ("!!! ...", examples[5][1])
    with pytest.raises(EmptyInput, match="text 5 has no tokens") as e:
        train(examples, TrainConfig(epochs=2, seed=0), FeatureConfig(dimension=1 << 10))
    assert e.value.row == 5


def test_feature_config_validation():
    with pytest.raises(InvalidParams):
        FeatureConfig(dimension=1000)  # not a power of two
    with pytest.raises(InvalidParams):
        FeatureConfig(dimension=512)  # below 2^10
    with pytest.raises(InvalidParams):
        FeatureConfig(dimension=1 << 49)  # a block row and a column no longer fit one uint64
    with pytest.raises(InvalidParams):
        FeatureConfig(ngram_min=2, ngram_max=1)


def _one_row_loss(y, p, pos_weight):
    """The weighted loss of one example scored p: a one-row objective, l2 = 0."""
    with np.errstate(divide="ignore"):
        bias = float(np.log(p) - np.log1p(-p))
    X = sparse.csr_matrix(np.ones((1, 1)))
    loss, _, _ = objective_and_gradient(X, np.array([float(y)]), np.zeros(1), bias, pos_weight, 0.0)
    return loss


def test_weighted_loss_hand_values():
    # -10 * ln(0.9) and -ln(0.5)
    assert _one_row_loss(1, 0.9, 10.0) == pytest.approx(1.0536051565782628, rel=1e-12)
    assert _one_row_loss(0, 0.5, 10.0) == pytest.approx(math.log(2), rel=1e-12)


def test_weighted_loss_clamps_extremes():
    assert math.isfinite(_one_row_loss(1, 0.0, 10.0))
    assert math.isfinite(_one_row_loss(0, 1.0, 10.0))


def test_sigmoid_matches_closed_form():
    for z in (-30.0, -2.0, 0.0, 1.5, 25.0):
        assert _sigmoid(z) == pytest.approx(1.0 / (1.0 + math.exp(-z)), rel=1e-12)


def _toy_matrix(seed=0, n=12, dim=1 << 10):
    rng = np.random.default_rng(seed)
    texts = [
        " ".join(rng.choice(["mass", "lesion", "normal", "stable", "clear"], size=6))
        for _ in range(n)
    ]
    fcfg = FeatureConfig(dimension=dim)
    return featurize(texts, fcfg), rng.integers(0, 2, size=n).astype(float), fcfg


def test_gradient_matches_central_differences():
    X, y, fcfg = _toy_matrix()
    rng = np.random.default_rng(1)
    w = rng.normal(0, 0.1, size=fcfg.dimension)
    b = 0.3
    _, gw, gb = objective_and_gradient(X, y, w, b, pos_weight=10.0, l2=1e-4)
    h = 1e-6
    # check bias and the 30 most active weight coordinates
    f = lambda wv, bv: objective_and_gradient(X, y, wv, bv, 10.0, 1e-4)[0]
    num_gb = (f(w, b + h) - f(w, b - h)) / (2 * h)
    assert gb == pytest.approx(num_gb, rel=1e-5, abs=1e-10)
    active = np.argsort(-np.abs(gw))[:30]
    for j in active:
        wp, wm = w.copy(), w.copy()
        wp[j] += h
        wm[j] -= h
        num = (f(wp, b) - f(wm, b)) / (2 * h)
        assert gw[j] == pytest.approx(num, rel=1e-5, abs=1e-10)


def _reference_counts(text, fcfg):
    """One text's hashed n-gram counts as a dict, gram by gram: the scalar reference."""
    tokens = tokenize(text, fcfg.lowercase)
    counts = {}
    for n in range(fcfg.ngram_min, fcfg.ngram_max + 1):
        for i in range(len(tokens) - n + 1):
            idx = fnv1a_64(" ".join(tokens[i : i + n]).encode("utf-8")) % fcfg.dimension
            counts[idx] = counts.get(idx, 0.0) + 1.0
    return counts


def _reference_design_matrix(texts, fcfg):
    """The scalar loop the array build replaced: one sorted count dict per row."""
    data, indices, indptr = [], [], [0]
    for text in texts:
        feats = _reference_counts(text, fcfg)
        for idx in sorted(feats):
            indices.append(idx)
            data.append(feats[idx])
        indptr.append(len(indices))
    return np.asarray(data), np.asarray(indices), np.asarray(indptr)


@pytest.mark.parametrize(
    "fcfg",
    [
        FeatureConfig(dimension=1 << 10),
        FeatureConfig(dimension=1 << 18),
        FeatureConfig(dimension=1 << 10, ngram_min=1, ngram_max=3, lowercase=False),
        FeatureConfig(dimension=1 << 12, ngram_min=2, ngram_max=2),
        FeatureConfig(dimension=1 << 48, ngram_min=1, ngram_max=3),
    ],
)
def test_design_matrix_matches_featurize_dicts(fcfg):
    rng = np.random.default_rng(4)
    vocab = ["Mass", "mass", "lesion", "normal", "stable", "clear", "7", "T2"]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 30))) for _ in range(50)]
    X = featurize(texts, fcfg)
    data, indices, indptr = _reference_design_matrix(texts, fcfg)
    assert X.shape == (len(texts), fcfg.dimension)
    assert np.array_equal(X.indptr, indptr)
    assert np.array_equal(X.indices, indices)
    assert np.array_equal(X.data, data)


# Words of few bytes and of many, mixed case, digits, the Kelvin sign (which
# lowercases to ASCII "k") and other non-ASCII letters that tokenize drops.
_PIECES = ["mass", "Mass", "MASS", "lesion", "7", "T2", "a", "\u212a", "\u212aelvin",
           "\u00e9dema", "na\u00efve", "x" * 40, "!!!"]


@settings(max_examples=40, deadline=None)
@given(
    pieces=st.lists(
        st.lists(st.sampled_from(_PIECES), min_size=1, max_size=7),
        min_size=1, max_size=12,
    ),
    separators=st.lists(st.sampled_from([" ", "  ", ", ", "\n", "-", ""]), min_size=1, max_size=4),
    n_texts=st.integers(1, 2 * _SCORE_BLOCK + 40),
    ngrams=st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 3), (3, 3)]),
    lowercase=st.booleans(),
    dimension=st.sampled_from([1 << 10, 1 << 18]),
)
@example(pieces=[["mass"]], separators=[" "], n_texts=2 * _SCORE_BLOCK + 1,
         ngrams=(3, 3), lowercase=True, dimension=1 << 10)
@example(pieces=[["\u212a", "Mass", "\u212aelvin"]], separators=[" "], n_texts=3,
         ngrams=(1, 3), lowercase=True, dimension=1 << 18)
def test_featurize_matches_scalar_reference_property(pieces, separators, n_texts, ngrams, lowercase, dimension):
    # every text keeps an ASCII token, so none is empty under either case rule
    distinct = [separators[i % len(separators)].join(p) + " w" for i, p in enumerate(pieces)]
    texts = [distinct[i % len(distinct)] for i in range(n_texts)]
    fcfg = FeatureConfig(dimension=dimension, ngram_min=ngrams[0], ngram_max=ngrams[1], lowercase=lowercase)
    X = featurize(texts, fcfg)
    data, indices, indptr = _reference_design_matrix(texts, fcfg)
    assert X.shape == (n_texts, dimension)
    assert np.array_equal(X.indptr, indptr)
    assert np.array_equal(X.indices, indices)
    assert np.array_equal(X.data, data)


def _reference_train(examples, cfg, fcfg):
    """The full-width SGD loop: every step updates all `dimension` weights."""
    ordered = sorted(examples, key=lambda e: (e[0], e[1].value))
    X = featurize([t for t, _ in ordered], fcfg)
    y = np.array([1.0 if lab is Label.NORMAL else 0.0 for _, lab in ordered])
    w, b = np.zeros(fcfg.dimension), 0.0
    rng = SplitMix64(cfg.seed ^ 0x1F2E3D4C5B6A7988)
    order = list(range(len(ordered)))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            _, gw, gb = objective_and_gradient(X[batch], y[batch], w, b, cfg.pos_weight, cfg.l2)
            w -= cfg.learning_rate * gw
            b -= cfg.learning_rate * gb
    return w, b


@pytest.mark.parametrize("l2", [0.0, 1e-6, 1e-2])
@pytest.mark.parametrize("dim", [1 << 10, 1 << 16])
def test_train_on_used_columns_matches_full_width_bitwise(l2, dim):
    rng = np.random.default_rng(6)
    vocab = ["mass", "lesion", "normal", "stable", "clear", "edema", "no", "acute"]
    # shared words repeat columns within a batch; one rare word per text gives
    # columns used once
    examples = [
        (" ".join([*rng.choice(vocab, size=rng.integers(2, 12)), f"rare{i}"]),
         Label.NORMAL if i % 3 == 0 else Label.ABNORMAL)
        for i in range(90)
    ]
    cfg = TrainConfig(epochs=4, seed=2, l2=l2, batch_size=16)
    fcfg = FeatureConfig(dimension=dim)
    model = train(examples, cfg, fcfg)
    w, b = _reference_train(examples, cfg, fcfg)
    assert model.weights.tobytes() == w.tobytes()  # signs of zero included
    assert model.bias == b


def test_gram_hash_cache_stays_bounded():
    # 2^17 distinct grams in one text, hashed with no per-gram cache
    fcfg = FeatureConfig(dimension=1 << 12)
    text = " ".join(f"w{i}" for i in range(1 << 16))
    X = featurize([text], fcfg)
    assert dict(zip(X.indices.tolist(), X.data.tolist())) == _reference_counts(text, fcfg)


def _toy_examples(n=40, seed=0):
    rng = np.random.default_rng(seed)
    ex = []
    for i in range(n):
        if i % 4 == 0:
            ex.append(("unremarkable stable normal examination", Label.NORMAL))
        else:
            word = rng.choice(["mass", "lesion", "hemorrhage"])
            ex.append((f"new {word} identified in the brain", Label.ABNORMAL))
    return ex


def test_train_is_deterministic_and_order_invariant():
    ex = _toy_examples()
    cfg = TrainConfig(epochs=5, seed=3)
    fcfg = FeatureConfig(dimension=1 << 10)
    m1 = train(ex, cfg, fcfg)
    m2 = train(list(reversed(ex)), cfg, fcfg)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias


def test_train_learns_separable_toy_problem():
    m = train(_toy_examples(), TrainConfig(epochs=20, seed=0), FeatureConfig(dimension=1 << 10))
    assert classify(m, [
        "unremarkable stable normal examination", "new mass identified in the brain",
    ]) == [Label.NORMAL, Label.ABNORMAL]


def test_train_requires_both_classes():
    ex = [("all good", Label.NORMAL)] * 5
    with pytest.raises(MissingClass):
        train(ex, TrainConfig())


def test_classify_tie_goes_abnormal():
    m = train(_toy_examples(), TrainConfig(epochs=2, seed=0), FeatureConfig(dimension=1 << 10))
    # threshold 1.0 can never be exceeded, so everything is Abnormal
    assert classify(m, ["unremarkable stable normal examination"], threshold=1.0 - EPS) == [Label.ABNORMAL]
    # a probability exactly at the threshold is a tie
    texts = ["unremarkable stable normal examination", "new mass identified in the brain"]
    p = predict(m, texts)
    assert classify(m, texts, threshold=p[0]) == [Label.ABNORMAL, Label.ABNORMAL]


def test_predict_in_open_interval():
    m = train(_toy_examples(), TrainConfig(epochs=5, seed=0), FeatureConfig(dimension=1 << 10))
    p = predict(m, ["anything at all"])
    assert p.shape == (1,)
    assert 0.0 < p[0] < 1.0


def test_predict_in_blocks_matches_per_text_dict_sum():
    m = train(_toy_examples(), TrainConfig(epochs=5, seed=0), FeatureConfig(dimension=1 << 10))
    rng = np.random.default_rng(8)
    vocab = ["unremarkable", "stable", "normal", "new", "mass", "lesion", "brain", "x7"]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 25))) for _ in range(2 * _SCORE_BLOCK + 37)]
    reference = []
    for text in texts:
        z = m.bias + sum(m.weights[i] * c for i, c in _reference_counts(text, m.config).items())
        reference.append(float(np.clip(_sigmoid(z), EPS, 1.0 - EPS)))
    p = predict(m, texts)
    assert p.shape == (len(texts),)
    assert np.max(np.abs(p - reference)) <= 1e-14
    assert classify(m, texts) == [Label.NORMAL if r > 0.5 else Label.ABNORMAL for r in reference]


def test_predict_on_no_texts_is_empty():
    m = train(_toy_examples(), TrainConfig(epochs=2, seed=0), FeatureConfig(dimension=1 << 10))
    assert predict(m, []).shape == (0,)
    assert classify(m, []) == []


def test_model_round_trip(tmp_path):
    m = train(_toy_examples(), TrainConfig(epochs=4, seed=9), FeatureConfig(dimension=1 << 11))
    path = tmp_path / "model.bin"
    save_model(m, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.weights, m.weights)
    assert loaded.bias == m.bias
    assert loaded.config == m.config
    assert loaded.pos_weight == m.pos_weight


def test_model_bytes_deterministic(tmp_path):
    ex = _toy_examples()
    for name in ("a.bin", "b.bin"):
        save_model(train(ex, TrainConfig(epochs=4, seed=9), FeatureConfig(dimension=1 << 11)), tmp_path / name)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="abc xyz", min_size=1, max_size=40))
def test_featurize_deterministic_property(text):
    cfg = FeatureConfig(dimension=1 << 10)
    try:
        f1 = featurize([text], cfg)
    except EmptyInput:
        assert not tokenize(text)
        return
    f2 = featurize([text], cfg)
    assert np.array_equal(f1.indices, f2.indices) and np.array_equal(f1.data, f2.data)
    assert all(0 <= k < cfg.dimension for k in f1.indices)
