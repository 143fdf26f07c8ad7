import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from normcharts import classifier
from normcharts.classifier import (
    EPS,
    CsrMatrix,
    PaddedRows,
    FeatureConfig,
    LinearModel,
    TrainConfig,
    classify,
    design,
    featurize,
    load_model,
    objective_and_gradient,
    predict,
    save_model,
    train,
    _SCORE_BLOCK,
    _sigmoid,
)
from normcharts.corpus import SplitMix64
from normcharts.errors import ConfigError, DataError, EmptyInput, NumericalError
from normcharts.labeling import Label
from normcharts.synthcorpus import synth_reports


def fnv1a_64(data: bytes) -> int:
    """FNV-1a 64-bit hash, byte by byte: the scalar reference for featurize's uint64 arrays."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & ((1 << 64) - 1)
    return h


def tokenize(text: str) -> list[str]:
    """The runs of ASCII letters and digits after lowercasing: the regex reference
    for featurize's byte mask."""
    return re.findall(r"[a-zA-Z0-9]+", text.lower())


def test_fnv1a_64_known_vectors():
    # published FNV-1a 64-bit vectors
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_tokenize_alphanumeric_runs():
    assert tokenize("No acute infarct, age 7!") == ["no", "acute", "infarct", "age", "7"]


def test_featurize_counts_unigrams_and_bigrams():
    cfg = FeatureConfig()
    feats = featurize(["mass mass lesion"], cfg)
    # 2 unigram buckets (mass x2, lesion) and 2 bigrams (mass mass, mass lesion)
    assert feats.data.sum() == 5
    assert feats.data.max() == 2


def test_featurize_stores_compact_dtypes():
    # counts in the smallest unsigned type of the largest, ids signed for np.bincount
    X = featurize(["mass mass lesion"], FeatureConfig(dimension=1 << 31))
    assert (X.data.dtype, X.indices.dtype, X.indptr.dtype) == (np.uint8, np.int32, np.int64)
    X = featurize(["lesion", " ".join(["mass"] * 300)], FeatureConfig(dimension=1 << 32))
    assert (X.data.dtype, X.indices.dtype) == (np.uint16, np.int64)
    assert sorted(X.data.tolist()) == [1, 299, 300]


def test_featurize_empty_raises():
    with pytest.raises(EmptyInput):
        featurize(["..."], FeatureConfig())


def test_text_with_no_tokens_is_named_by_its_row():
    texts = [f"word{i} stable" for i in range(2 * _SCORE_BLOCK)]
    texts[_SCORE_BLOCK + 3] = "!!! ..."
    with pytest.raises(EmptyInput, match=f"^row {_SCORE_BLOCK + 3}: has no tokens after normalization$") as e:
        featurize(texts, FeatureConfig())
    assert e.value.row == _SCORE_BLOCK + 3
    m = train(*design(_toy_examples(), FeatureConfig(dimension=1 << 10)), TrainConfig(epochs=2, seed=0))
    with pytest.raises(EmptyInput) as e:
        predict(m, texts)
    assert e.value.row == _SCORE_BLOCK + 3
    # design sorts its examples; the row still indexes the examples as given
    examples = _toy_examples()
    examples[5] = ("!!! ...", examples[5][1])
    with pytest.raises(EmptyInput, match="^row 5: has no tokens after normalization$") as e:
        train(*design(examples, FeatureConfig(dimension=1 << 10)), TrainConfig(epochs=2, seed=0))
    assert e.value.row == 5


def test_feature_config_validation():
    with pytest.raises(ConfigError):
        FeatureConfig(dimension=1000)  # not a power of two
    with pytest.raises(ConfigError):
        FeatureConfig(dimension=512)  # below 2^10
    with pytest.raises(ConfigError):
        FeatureConfig(dimension=1 << 49)  # a block row and a column no longer fit one uint64
    with pytest.raises(TypeError):
        FeatureConfig(ngram_min=2, ngram_max=1)  # the n-gram range is fixed at (1, 2)


@pytest.mark.parametrize("kwargs", [
    {"epochs": 0}, {"pos_weight": 0.0}, {"pos_weight": -1.0}, {"pos_weight": math.inf},
    {"pos_weight": math.nan}, {"learning_rate": math.inf}, {"learning_rate": math.nan},
    {"learning_rate": 0.0}, {"learning_rate": -50.0},
])
def test_train_config_validation(kwargs):
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        TrainConfig(**kwargs)


def _from_scipy(m) -> CsrMatrix:
    """The CsrMatrix of a scipy.sparse matrix (or of a dense array)."""
    m = sparse.csr_matrix(m)
    return CsrMatrix(m.data, m.indices, m.indptr, m.shape)


def _to_scipy(X: CsrMatrix) -> sparse.csr_matrix:
    return sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)


def _one_row_loss(y, p, pos_weight):
    """The weighted loss of one example scored p: a one-row objective, l2 = 0."""
    with np.errstate(divide="ignore"):
        bias = float(np.log(p) - np.log1p(-p))
    X = _from_scipy(np.ones((1, 1)))
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


_VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _csr_products(draw):
    """A random CsrMatrix, empty rows included, a vector for each of its products, and rows to take.

    It holds float64 values and int64 columns, or uint8 counts and int32
    columns, the types `featurize` stores."""
    n_rows = draw(st.just(classifier._BATCH_SIZE) | st.integers(0, 70))
    n_cols = draw(st.integers(1, 30))
    row_cols = draw(st.lists(
        st.lists(st.integers(0, n_cols - 1), unique=True, max_size=6).map(sorted),
        min_size=n_rows, max_size=n_rows,
    ))
    nnz = sum(map(len, row_cols))
    compact = draw(st.booleans())
    values = st.lists(st.integers(0, 255) if compact else _VALUES, min_size=nnz, max_size=nnz)
    data = np.array(draw(values), dtype=np.uint8 if compact else float)
    indices = np.array([j for cols in row_cols for j in cols], dtype=np.int32 if compact else np.int64)
    indptr = np.cumsum([0] + [len(cols) for cols in row_cols], dtype=np.int64)
    w = np.array(draw(st.lists(_VALUES, min_size=n_cols, max_size=n_cols)))
    c = np.array(draw(st.lists(_VALUES, min_size=n_rows, max_size=n_rows)))
    which = draw(st.lists(st.integers(0, n_rows - 1), max_size=70) if n_rows else st.just([]))
    which = np.array(which, dtype=np.int64)
    return CsrMatrix(data, indices, indptr, (n_rows, n_cols)), w, c, which


@settings(max_examples=80, deadline=None)
@given(case=_csr_products())
def test_csr_matrix_equals_scipy_bitwise(case):
    X, w, c, which = case
    # compact counts give the bits of their float64 matrix
    reference = _to_scipy(X._replace(data=X.data.astype(float)))
    assert X.matvec(w).tobytes() == (reference @ w).tobytes()
    assert X.rmatvec(c).tobytes() == (reference.T @ c).tobytes()
    taken, expected = X.take_rows(which), _from_scipy(reference[which])
    assert taken.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(taken, name), getattr(expected, name)), name
    assert (taken.data.dtype, taken.indices.dtype) == (X.data.dtype, X.indices.dtype)


@st.composite
def _masked_rows(draw):
    """A `_csr_products` matrix and a boolean mask over its rows: all False, all True or drawn."""
    X = draw(_csr_products())[0]
    n = X.shape[0]
    drawn = st.lists(st.booleans(), min_size=n, max_size=n).map(lambda m: np.array(m, dtype=bool))
    return X, draw(st.sampled_from([np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]) | drawn)


@settings(max_examples=80, deadline=None)
@given(case=_masked_rows())
def test_take_rows_by_mask_equals_index_and_scipy_bitwise(case):
    X, mask = case
    taken, by_index, expected = X.take_rows(mask), X.take_rows(np.flatnonzero(mask)), _to_scipy(X)[mask]
    assert taken.shape == by_index.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(taken, name), getattr(by_index, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
        # scipy keeps the counts' type and picks its own index type
        assert a.tobytes() == getattr(expected, name).astype(a.dtype).tobytes(), name
    assert (taken.data.dtype, taken.indices.dtype) == (X.data.dtype, X.indices.dtype)


@pytest.fixture(scope="module")
def synthetic_design():
    """The design of the labelled reports of a 3,000-report synthetic corpus."""
    reports, labels = synth_reports(seed=3, n=3000, abnormal_fraction=0.92)
    known = (Label.NORMAL, Label.ABNORMAL)
    return design([(r.raw_text, labels[r.id]) for r in reports if labels.get(r.id) in known])


def _traced_peak(call):
    """call()'s result and the peak of the memory tracemalloc traces while it runs."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_take_rows_by_mask_holds_no_index_per_nonzero(synthetic_design):
    X, _ = synthetic_design
    mask = np.arange(X.shape[0]) % 3 != 0
    taken, peak = _traced_peak(lambda: X.take_rows(mask))
    # over the output: one bool per source nonzero, the int64 lengths of the
    # source and the taken rows, and 4 KiB of array objects; an int64 index
    # per taken nonzero would add 8 bytes each
    slack = 8 * (X.shape[0] + taken.shape[0]) + 4096
    assert peak <= sum(a.nbytes for a in taken[:3]) + len(X.data) + slack


def test_train_holds_no_full_width_gradient_nor_float64_per_nonzero(synthetic_design):
    X, y = synthetic_design
    model, peak = _traced_peak(lambda: train(X, y, TrainConfig(epochs=1)))
    # over the full-width weights train returns, less than one more
    # full-width float64 array (a gradient) and one float64 per nonzero
    assert peak < model.weights.nbytes + 8 * min(X.shape[1], len(X.data))
    # scored over many row blocks, the final loss is the full objective's
    assert X.shape[0] > 4 * _SCORE_BLOCK
    full, _, _ = objective_and_gradient(X, y, model.weights, model.bias, model.pos_weight, classifier._L2)
    assert model.final_loss == full


def _values(rng, size):
    """Signed zeros, and numbers of magnitudes from 1e-6 to 1e6 whose sums round."""
    values = rng.normal(size=size) * 10.0 ** rng.integers(-6, 7, size=size)
    zeros = rng.random(size) < 0.2
    values[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return values


@st.composite
def _padded_products(draw):
    """A CsrMatrix whose rows take 0 to 24 nonzeros, vectors for its products, and a batch.

    numpy sums 8 or more values pairwise where it reduces along a contiguous
    axis, so rows are long enough to show that order.  Hypothesis draws the
    shapes; the values come from a drawn seed.  The matrix holds float64
    values and int64 columns, or uint8 or uint16 counts and int32 columns."""
    n_rows = draw(st.sampled_from([1, classifier._BATCH_SIZE]) | st.integers(0, 70))
    n_cols = draw(st.integers(1, 40))
    lengths = draw(st.lists(st.integers(0, min(n_cols, 24)), min_size=n_rows, max_size=n_rows))
    n_taken = draw(st.sampled_from([1, classifier._BATCH_SIZE]) | st.integers(0, 70))
    which = draw(st.lists(st.integers(0, n_rows - 1), min_size=n_taken, max_size=n_taken) if n_rows else st.just([]))
    counts = draw(st.sampled_from([np.float64, np.uint8, np.uint16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indices = np.array([j for n in lengths for j in np.sort(rng.choice(n_cols, n, replace=False))],
                       dtype=np.int64 if counts is np.float64 else np.int32)
    indptr = np.cumsum([0, *lengths], dtype=np.int64)
    if counts is np.float64:
        data = _values(rng, len(indices))
    else:
        data = rng.integers(0, np.iinfo(counts).max, len(indices), dtype=counts, endpoint=True)
    X = CsrMatrix(data, indices, indptr, (n_rows, n_cols))
    return X, _values(rng, n_cols), _values(rng, n_rows), np.array(which, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(case=_padded_products())
# Row 1's pad lands in column 0, which no row uses, under a negative c and a
# negative weight: 0.0 times each is -0.0, added to sums at +0.0.
@example(case=(CsrMatrix(np.array([2.0]), np.array([1]), np.array([0, 1, 1]), (2, 2)),
               np.array([-1.5, 2.0]), np.array([3.0, -0.5]), np.array([1, 0])))
def test_padded_rows_equal_scipy_bitwise(case):
    X, w, c, which = case
    reference = _to_scipy(X._replace(data=X.data.astype(float)))
    padded = classifier._pad_rows(X)
    assert (padded.data.dtype, padded.ids.dtype) == (X.data.dtype, X.indices.dtype)
    assert padded.matvec(w).tobytes() == (reference @ w).tobytes()
    assert padded.rmatvec(c).tobytes() == (reference.T @ c).tobytes()
    batch, expected = padded.take_rows(which), reference[which]
    # trimmed to the batch's longest row, which may be the longest of all
    assert batch.data.shape == (len(which), max(np.diff(expected.indptr), default=0))
    assert batch.matvec(w).tobytes() == (expected @ w).tobytes()
    c = c[which]
    assert batch.rmatvec(c).tobytes() == (expected.T @ c).tobytes()
    # integer counts give the float64 padding's bits
    float_batch = classifier._pad_rows(X._replace(data=X.data.astype(float))).take_rows(which)
    assert batch.matvec(w).tobytes() == float_batch.matvec(w).tobytes()
    assert batch.rmatvec(c).tobytes() == float_batch.rmatvec(c).tobytes()


def _textbook_objective(A, y, w, bias, pos_weight, l2):
    """objective_and_gradient as first written, a new array per expression, with
    scipy's CSR products: the oracle for the bits of its in-place arrays."""
    p = np.clip(0.5 * (1.0 + np.tanh(0.5 * (A @ w + bias))), EPS, 1.0 - EPS)
    sample_w = np.where(y == 1, pos_weight, 1.0)
    coef = sample_w * (p - y) / A.shape[0]
    loss = -np.mean(sample_w * (y * np.log(p) + (1 - y) * np.log(1.0 - p)))
    return float(loss + l2 * float(w @ w)), A.T @ coef + 2.0 * l2 * w, float(np.sum(coef))


def _bits(loss, grad, grad_bias):
    return np.float64(loss).tobytes(), grad.tobytes(), np.float64(grad_bias).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    case=_padded_products(),
    # a margin of +-40 or more puts p at 1 - EPS or EPS
    bias=st.sampled_from([0.0, 0.3, -40.0, 40.0]),
    pos_weight=st.sampled_from([1.0, 10.0, 0.37]),
    l2=st.sampled_from([0.0, 1e-6, 1e-2]),
)
# one-row batches of 9 nonzeros, which numpy would sum pairwise, at each clamp;
# the -0.0 weight of column 0, which no row uses, meets the pads there
@example(case=(CsrMatrix(np.arange(1.0, 10.0), np.arange(1, 10), np.array([0, 9]), (1, 10)),
               np.array([-0.0, *np.linspace(-0.5, 0.7, 9)]), np.array([1.0]), np.array([0])),
         bias=40.0, pos_weight=10.0, l2=0.0)
@example(case=(CsrMatrix(np.arange(1.0, 10.0), np.arange(1, 10), np.array([0, 9]), (1, 10)),
               np.array([-0.0, *np.linspace(-0.5, 0.7, 9)]), np.array([-1.0]), np.array([0])),
         bias=-40.0, pos_weight=10.0, l2=1e-2)
def test_objective_equals_textbook_expressions_bitwise(case, bias, pos_weight, l2):
    X, w, c, which = case
    assume(len(which) > 0)
    y = (c[which] > 0).astype(float)
    A = _to_scipy(X._replace(data=X.data.astype(float)))[which]
    expected = _bits(*_textbook_objective(A, y, w, bias, pos_weight, l2))
    weights = w.tobytes()
    for batch in (X.take_rows(which), classifier._pad_rows(X).take_rows(which)):
        assert _bits(*objective_and_gradient(batch, y, w, bias, pos_weight, l2)) == expected
    assert w.tobytes() == weights  # the weights are read, not written


def test_pad_rows_fill_holds_no_nonzero_sized_index():
    # the fill's temporaries, over what it returns, peak at the row-major mask:
    # an int64 index per nonzero would add over half the padding's bytes
    reports, _ = synth_reports(seed=3, n=3000, abnormal_fraction=0.92)
    X = featurize([r.raw_text for r in reports], FeatureConfig())
    used, ids = np.unique(X.indices, return_inverse=True)
    design = X._replace(indices=ids.astype(np.min_scalar_type(len(used))), shape=(X.shape[0], len(used)))
    # a design that train pads
    assert X.shape[0] * np.diff(X.indptr).max() <= classifier._PAD_BOUND * len(X.data)
    tracemalloc.start()
    try:
        padded = classifier._pad_rows(design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * sum(a.nbytes for a in (padded.data, padded.ids, padded.lengths))


def _reference_counts(text, fcfg):
    """One text's hashed 1- and 2-gram counts as a dict, gram by gram: the scalar reference."""
    tokens = tokenize(text)
    counts = {}
    for n in (1, 2):
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
        FeatureConfig(dimension=1 << 11),
        FeatureConfig(dimension=1 << 12),
        FeatureConfig(dimension=1 << 48),
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
# lowercases to ASCII "k"), the dotted capital I (which lowercases to "i" and a
# combining dot), other non-ASCII letters that tokenize drops, a lone surrogate
# (which JSON allows), and a NUL and a newline, neither of which ends a text.
_PIECES = ["mass", "Mass", "MASS", "lesion", "7", "T2", "a", "\u212a", "\u212aelvin",
           "\u00e9dema", "na\u00efve", "x" * 40, "!!!", "\ud800", "\u0130", "\x00", "\n"]


@settings(max_examples=40, deadline=None)
@given(
    pieces=st.lists(
        st.lists(st.sampled_from(_PIECES), min_size=1, max_size=7),
        min_size=1, max_size=12,
    ),
    separators=st.lists(st.sampled_from([" ", "  ", ", ", "\n", "-", ""]), min_size=1, max_size=4),
    n_texts=st.integers(1, 2 * _SCORE_BLOCK + 40),
    dimension=st.sampled_from([1 << 10, 1 << 18]),
)
@example(pieces=[["mass"]], separators=[" "], n_texts=2 * _SCORE_BLOCK + 1, dimension=1 << 10)
@example(pieces=[["\u212a", "Mass", "\u212aelvin"]], separators=[" "], n_texts=3, dimension=1 << 18)
@example(pieces=[["mass\ud800", "\u0130", "\x00lesion", "\n"]], separators=[""], n_texts=3, dimension=1 << 10)
# a token too long for the 16-bit sort keys that order tokens by length
@example(pieces=[["abc", "x" * ((1 << 16) + 3)]], separators=[" "], n_texts=2, dimension=1 << 10)
def test_featurize_matches_scalar_reference_property(pieces, separators, n_texts, dimension):
    # every text keeps an ASCII token, so none is empty
    distinct = [separators[i % len(separators)].join(p) + " w" for i, p in enumerate(pieces)]
    texts = [distinct[i % len(distinct)] for i in range(n_texts)]
    fcfg = FeatureConfig(dimension=dimension)
    X = featurize(texts, fcfg)
    data, indices, indptr = _reference_design_matrix(texts, fcfg)
    assert X.shape == (n_texts, dimension)
    assert np.array_equal(X.indptr, indptr)
    assert np.array_equal(X.indices, indices)
    assert np.array_equal(X.data, data)


def _reference_train(examples, cfg, fcfg):
    """The full-width SGD loop: every step updates all `dimension` weights.

    Returns the weights, the bias and the final loss."""
    ordered = sorted(examples, key=lambda e: (e[0], e[1].value))
    # scipy selects each mini-batch's rows
    X = _to_scipy(featurize([t for t, _ in ordered], fcfg))
    y = np.array([1.0 if lab is Label.NORMAL else 0.0 for _, lab in ordered])
    w, b = np.zeros(fcfg.dimension), 0.0
    rng = SplitMix64(cfg.seed ^ 0x1F2E3D4C5B6A7988)
    order = list(range(len(ordered)))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), classifier._BATCH_SIZE):
            batch = order[start : start + classifier._BATCH_SIZE]
            _, gw, gb = objective_and_gradient(
                _from_scipy(X[batch]), y[batch], w, b, cfg.pos_weight, classifier._L2
            )
            w -= cfg.learning_rate * gw
            b -= cfg.learning_rate * gb
    final, _, _ = objective_and_gradient(_from_scipy(X), y, w, b, cfg.pos_weight, classifier._L2)
    return w, b, final


def _train_matches_full_width(l2, dim, gather, monkeypatch):
    """train's model, one objective call per step and none more, equals the full-width loop's bit for bit."""
    monkeypatch.setattr(classifier, "_L2", l2)
    monkeypatch.setattr(classifier, "_BATCH_SIZE", 16)
    rng = np.random.default_rng(6)
    vocab = ["mass", "lesion", "normal", "stable", "clear", "edema", "no", "acute"]
    # shared words repeat columns within a batch; one rare word per text gives
    # columns used once; 97 texts end each epoch on a one-row batch
    examples = [
        (" ".join([*rng.choice(vocab, size=rng.integers(2, 12)), f"rare{i}"]),
         Label.NORMAL if i % 3 == 0 else Label.ABNORMAL)
        for i in range(97)
    ]
    # past _PAD_BOUND, each batch is taken from the CSR arrays
    if gather == "long_text":
        examples.append((" ".join(f"word{i}" for i in range(400)), Label.ABNORMAL))
    if gather == "bound":
        monkeypatch.setattr(classifier, "_PAD_BOUND", 1)
    # train looks the objective up on the module at each step, where a tracer can wrap it
    seen = []
    objective = classifier.objective_and_gradient

    def counted(X, *rest):
        seen.append(type(X))
        return objective(X, *rest)

    monkeypatch.setattr(classifier, "objective_and_gradient", counted)
    cfg = TrainConfig(epochs=4, seed=2)
    fcfg = FeatureConfig(dimension=dim)
    model = train(*design(examples, fcfg), cfg)
    steps = cfg.epochs * math.ceil(len(examples) / 16)
    # the final loss is scored with no gradient, so no further call
    assert seen == [PaddedRows if gather == "padded" else CsrMatrix] * steps
    w, b, final = _reference_train(examples, cfg, fcfg)
    assert model.weights.tobytes() == w.tobytes()  # signs of zero included
    assert model.bias == b
    assert model.final_loss == final


@pytest.mark.parametrize("l2", [0.0, 1e-6, 1e-2])
@pytest.mark.parametrize("dim", [1 << 10, 1 << 16])
def test_train_on_used_columns_matches_full_width_bitwise(l2, dim, monkeypatch):
    _train_matches_full_width(l2, dim, "padded", monkeypatch)


# the same with each batch taken from the CSR arrays
@pytest.mark.parametrize("l2", [0.0, 1e-2])
@pytest.mark.parametrize("dim", [1 << 10, 1 << 16])
@pytest.mark.parametrize("gather", ["long_text", "bound"])
def test_train_on_csr_batches_matches_full_width_bitwise(l2, dim, gather, monkeypatch):
    _train_matches_full_width(l2, dim, gather, monkeypatch)


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
    m1 = train(*design(ex, fcfg), cfg)
    m2 = train(*design(list(reversed(ex)), fcfg), cfg)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias


def test_train_learns_separable_toy_problem():
    m = train(*design(_toy_examples(), FeatureConfig(dimension=1 << 10)), TrainConfig(epochs=20, seed=0))
    assert classify(m, [
        "unremarkable stable normal examination", "new mass identified in the brain",
    ]) == [Label.NORMAL, Label.ABNORMAL]


def test_train_requires_both_classes():
    ex = [("all good", Label.NORMAL)] * 5
    with pytest.raises(DataError, match="^training needs both Normal and Abnormal examples$"):
        train(*design(ex), TrainConfig())
    # design makes train's checks before it featurizes
    with pytest.raises(DataError, match="^training needs both"):
        design([("!!! ...", Label.NORMAL)] * 5)
    # and train checks the rows it is given
    X, y = design([("all good", Label.NORMAL), ("new mass", Label.ABNORMAL)])
    with pytest.raises(DataError, match="^training needs both"):
        train(X.take_rows(np.array([1])), y[[1]], TrainConfig())


def test_classify_tie_goes_abnormal():
    texts = ["unremarkable stable normal examination", "new mass identified in the brain"]
    # an all-zero model scores p = 0.5 exactly: a tie
    tie = LinearModel(weights=np.zeros(1 << 10), bias=0.0,
                      config=FeatureConfig(dimension=1 << 10), pos_weight=10.0)
    assert predict(tie, texts).tolist() == [0.5, 0.5]
    assert classify(tie, texts) == [Label.ABNORMAL, Label.ABNORMAL]
    # the smallest step above 0.5 is Normal
    above = LinearModel(weights=np.zeros(1 << 10), bias=1e-15,
                        config=FeatureConfig(dimension=1 << 10), pos_weight=10.0)
    assert predict(above, texts)[0] > 0.5
    assert classify(above, texts) == [Label.NORMAL, Label.NORMAL]


def test_predict_in_open_interval():
    m = train(*design(_toy_examples(), FeatureConfig(dimension=1 << 10)), TrainConfig(epochs=5, seed=0))
    p = predict(m, ["anything at all"])
    assert p.shape == (1,)
    assert 0.0 < p[0] < 1.0


def test_predict_in_blocks_matches_per_text_dict_sum():
    m = train(*design(_toy_examples(), FeatureConfig(dimension=1 << 10)), TrainConfig(epochs=5, seed=0))
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


def test_non_finite_margin_is_named_by_its_row():
    # a count of 2 times a finite weight of 1e308 overflows, with no numpy warning
    fcfg = FeatureConfig(dimension=1 << 10)
    weights = np.zeros(fcfg.dimension)
    weights[featurize(["boom"], fcfg).indices] = 1e308
    m = LinearModel(weights=weights, bias=0.0, config=fcfg, pos_weight=10.0)
    texts = ["stable"] * (_SCORE_BLOCK + 5)
    assert np.all(predict(m, texts) == 0.5)
    texts[_SCORE_BLOCK + 3] = "boom boom"
    with pytest.raises(NumericalError, match=f"^row {_SCORE_BLOCK + 3}: has non-finite margin inf$"):
        predict(m, texts)


def test_predict_on_no_texts_is_empty():
    m = train(*design(_toy_examples(), FeatureConfig(dimension=1 << 10)), TrainConfig(epochs=2, seed=0))
    assert predict(m, []).shape == (0,)
    assert classify(m, []) == []


def test_model_round_trip(tmp_path):
    m = train(*design(_toy_examples(), FeatureConfig(dimension=1 << 11)), TrainConfig(epochs=4, seed=9))
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
        save_model(train(*design(ex, FeatureConfig(dimension=1 << 11)), TrainConfig(epochs=4, seed=9)), tmp_path / name)
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
