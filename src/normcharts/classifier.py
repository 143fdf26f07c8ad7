"""Reference text classifier: hashed 1- and 2-gram features of lowercased tokens,
sigmoid linear model, weighted cross-entropy with a configurable minority-class penalty.

The design matrix is a `CsrMatrix`: the three compressed-sparse-row arrays
`data`, `indices` and `indptr`, and the shape; each nonzero's row is derived
from `indptr`.  Its two products are `np.bincount` sums over the nonzeros in
storage order, starting from 0.  That is the order in which scipy.sparse's
CSR kernel adds up `X @ w` and its CSC kernel adds up `X.T @ c`, so both
agree with scipy bit for bit, and a trained model's bytes do not depend on
which one computed it.

`train` takes each SGD batch from `PaddedRows` (ELLPACK): two `(rows, width)`
arrays, counts and columns, in which a row shorter than the longest is padded
with count 0 in column 0.  The counts keep the design's type (uint8 on report
text), promoted to float64 in each product as `CsrMatrix`'s are.  A batch is
then two row gathers, trimmed to its longest row.  Its products keep the
bincount sums:
- `matvec` adds down axis 0 of the C-contiguous transpose of the products.
  numpy adds such an array one operand row at a time into the output, so each
  output is its row's products summed in order from +0.0.  On a transposed
  view, or a lone row, numpy sums pairwise instead, which rounds differently.
- `rmatvec` is the same row-major `np.bincount`; the pads add 0.0 times c to
  column 0's bin.
A pad adds a signed zero to a sum that starts at +0.0, which changes none of
its bits: such a sum is never -0.0.  The padding takes `rows * width` cells;
past `_PAD_BOUND` cells per nonzero (a corpus with a few very long texts),
`train` gathers each batch from its CSR design instead, which bounds its memory.
"""

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .corpus import SplitMix64
from .errors import ConfigError, DataError, EmptyInput, NumericalError
from .labeling import Label

EPS = 1e-12

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# Rows per step of every blocked loop here: featurized inside `featurize` and
# per `featurize` call in `predict`, padded in `_pad_rows`, scored for `train`'s
# final loss.  One matrix over a whole 5,000-report subset raised the peak RSS
# of `eval` by over 30 MB; blocks of 256 add about 2 MB.
_SCORE_BLOCK = 256
# The l2 penalty on the weights and the SGD mini-batch size of `train`.
_L2 = 1e-6
_BATCH_SIZE = 64
# `train` pads its rows when that takes at most this many cells per nonzero.
# A padded cell holds a count and a column id in the design's types, at most 12
# bytes (3 on report text), so the padding takes at most 24 bytes per nonzero.
_PAD_BOUND = 2


@dataclass(frozen=True)
class FeatureConfig:
    dimension: int = 1 << 18

    def __post_init__(self):
        # featurize packs a row number within a block and a column into one uint64 sort key
        if not (1 << 10) <= self.dimension <= (1 << 48) or self.dimension & (self.dimension - 1):
            raise ConfigError(f"dimension must be a power of two in [2^10, 2^48], got {self.dimension}")


@dataclass(frozen=True)
class TrainConfig:
    pos_weight: float = 10.0
    learning_rate: float = 0.5
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.pos_weight < math.inf:
            raise ConfigError(f"pos_weight must be positive and finite, got {self.pos_weight}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")


# Byte value -> whether it is a token byte: ASCII letters and digits.  Every
# byte of a multi-byte UTF-8 sequence is >= 0x80, so no token byte.
_TOKEN_BYTE = np.zeros(256, dtype=bool)
_TOKEN_BYTE[list(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")] = True


def _no_tokens(row: int) -> EmptyInput:
    return EmptyInput(f"text {row} has no tokens after normalization", row=row)


def _block_counts(texts: Sequence[str], config: FeatureConfig, first_row: int):
    """Hashed 1- and 2-gram counts of one block of texts: (nonzeros per row, columns, counts).
    Columns are int32 (int64 past a dimension of 2^31) and counts the smallest
    unsigned type of the largest (uint8 on report text), each exact.

    The block is one byte buffer: each text lowercased and UTF-8 encoded,
    one separator byte before, between and after them.  `surrogatepass`
    encodes a lone surrogate (which JSON's \\ud800 escape allows) as three
    non-token bytes, so it separates tokens as the regex `[a-zA-Z0-9]+` of
    the scalar reference in the tests does.  Tokens are the runs of
    `_TOKEN_BYTE`, found from the edges of its mask, and a token's row comes
    from the texts' byte offsets, so a text may hold any byte.

    A gram's column is the 64-bit FNV-1a hash of its space-joined tokens mod
    the dimension; the tests hash byte by byte as the reference.  FNV-1a is a
    left fold over bytes, so the hash of the bigram ending at token j
    continues the unigram at token j-1: xor in the joining space, multiply,
    then fold token j's bytes.  Every gram of the block is hashed at
    once in wrapping uint64 arithmetic; no gram string is built.
    """
    encoded = [text.lower().encode("utf-8", "surrogatepass") for text in texts]
    buf = np.frombuffer(b"\n".join([b"", *encoded, b""]), dtype=np.uint8)
    # Each text and the separator before it; a text starts after that byte.
    spans = np.fromiter(map(len, encoded), dtype=np.int64, count=len(texts)) + 1
    offsets = np.cumsum(spans) - spans + 1
    is_token = _TOKEN_BYTE[buf]
    # The buffer starts and ends with a separator, so edges pair up: a token
    # starts at each even edge and ends at the odd one after it.
    edges = np.flatnonzero(is_token[1:] != is_token[:-1]) + 1
    token_starts, token_ends = edges[0::2], edges[1::2]
    row = np.searchsorted(offsets, token_starts, side="right") - 1
    per_row = np.bincount(row, minlength=len(texts))
    if not per_row.all():
        raise _no_tokens(first_row + int(np.argmin(per_row)))
    lengths = token_ends - token_starts
    # Byte k of every token that has one, longest tokens first, so that the
    # tokens still being folded at byte k are a prefix of that order.  numpy
    # sorts 16-bit keys stably by radix, several times faster than 64-bit ones.
    longest = lengths.max()
    shortfall = (longest - lengths).astype(np.uint16 if longest <= 1 << 16 else np.int64)
    by_length = np.argsort(shortfall, kind="stable")
    starts = token_starts[by_length]
    n_longer = np.searchsorted(-lengths[by_length], -np.arange(longest), side="left")
    byte_columns = [buf[starts[:m] + k] for k, m in enumerate(n_longer)]
    prime = np.uint64(_FNV_PRIME)

    def fold(state):
        h = state[by_length]
        for col in byte_columns:
            head = h[: len(col)]
            head ^= col
            head *= prime
        state[by_length] = h
        return state

    state = fold(np.full(len(lengths), _FNV_OFFSET, dtype=np.uint64))
    # One uint64 key per gram, row in the high bits and column in the low
    # bits, so a single sort groups each row's columns in order.
    row = row.astype(np.uint64)
    shift = np.uint64(config.dimension.bit_length() - 1)
    mask = np.uint64(config.dimension - 1)
    unigrams = (row << shift) | (state & mask)
    state[1:] = (state[:-1] ^ np.uint64(0x20)) * prime
    state = fold(state)
    # a row's first token ends no bigram
    second = np.zeros(len(row), dtype=bool)
    second[1:] = row[1:] == row[:-1]
    bigrams = (row[second] << shift) | (state[second] & mask)
    distinct, counts = np.unique(np.concatenate([unigrams, bigrams]), return_counts=True)
    nnz = np.bincount((distinct >> shift).astype(np.intp), minlength=len(texts))
    # Signed ids: np.bincount casts its input safely to intp, which uint64 fails.
    ids = (distinct & mask).astype(np.int32 if config.dimension <= 1 << 31 else np.int64)
    return nnz, ids, counts.astype(np.min_scalar_type(counts.max()))


class CsrMatrix(NamedTuple):
    """A sparse matrix in compressed sparse row form.

    Row r holds data[indptr[r] : indptr[r + 1]] in columns indices[same
    slice].  `featurize` stores integer counts and column ids; each product
    promotes a count to float64 before it multiplies, which is exact, so it
    gives the bits of a float64 matrix.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """X @ w."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        products = w[self.indices]
        products *= self.data
        return np.bincount(rows, weights=products, minlength=self.shape[0])

    def rmatvec(self, c: np.ndarray) -> np.ndarray:
        """X.T @ c."""
        c_of_nonzero = np.repeat(c, np.diff(self.indptr))
        return np.bincount(self.indices, weights=self.data * c_of_nonzero, minlength=self.shape[1])

    def take_rows(self, which: np.ndarray) -> "CsrMatrix":
        """Rows `which`, in that order, as a new matrix: scipy's X[which].  A boolean
        mask `which` takes its rows' nonzeros through one bool each, no index."""
        if which.dtype == bool:
            row_lengths = np.diff(self.indptr)
            src, lengths = np.repeat(which, row_lengths), row_lengths[which]
        else:
            starts = self.indptr[which]
            lengths = self.indptr[which + 1] - starts
            src = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        return CsrMatrix(self.data[src], self.indices[src], indptr, (len(lengths), self.shape[1]))


class PaddedRows(NamedTuple):
    """A sparse matrix as rows padded to one width (ELLPACK).

    Row r holds data[r, k] in column ids[r, k] for k < lengths[r]; the cells
    after those hold 0 in column 0, so each adds a signed zero to both
    products (see the module docstring).  `_pad_rows` keeps the counts and
    ids in the types of its CSR matrix, whose ids `train` narrows to the
    smallest unsigned type that holds them (uint16 below 65,536 used
    columns); a taken batch holds the ids as intp, the index type of
    `w[ids]` and `np.bincount`.  Each product promotes a count to float64,
    which is exact.
    """

    data: np.ndarray
    ids: np.ndarray
    lengths: np.ndarray
    shape: tuple[int, int]

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """X @ w, each row's products added in order from +0.0, as `CsrMatrix.matvec` adds them."""
        products = w[self.ids]
        products *= self.data
        if len(products) == 1:  # numpy sums a lone row pairwise
            return np.bincount(np.zeros(products.shape[1], dtype=np.intp), weights=products[0], minlength=1)
        return np.add.reduce(np.ascontiguousarray(products.T), axis=0, initial=0.0)

    def rmatvec(self, c: np.ndarray) -> np.ndarray:
        """X.T @ c."""
        return np.bincount(self.ids.ravel(), weights=(self.data * c[:, None]).ravel(), minlength=self.shape[1])

    def take_rows(self, which: np.ndarray) -> "PaddedRows":
        """Rows `which`, in that order, trimmed to the longest of them."""
        lengths = self.lengths[which]
        width = lengths.max(initial=0)
        ids = self.ids[which, :width].astype(np.intp)
        return PaddedRows(self.data[which, :width], ids, lengths, (len(which), self.shape[1]))


def _pad_rows(X: CsrMatrix) -> PaddedRows:
    """X's rows padded to the longest with count 0 in column 0 (see PaddedRows),
    in X's types, filled `_SCORE_BLOCK` rows at a time: a mask over all of the
    padding would take one byte per cell, a third of the padding on report text."""
    lengths = np.diff(X.indptr)
    data = np.zeros((len(lengths), lengths.max(initial=0)), dtype=X.data.dtype)
    ids = np.zeros(data.shape, dtype=X.indices.dtype)
    for start in range(0, len(lengths), _SCORE_BLOCK):
        rows = slice(start, start + _SCORE_BLOCK)
        # row-major order over the cells in use is CSR storage order
        in_use = np.arange(data.shape[1]) < lengths[rows, None]
        nonzeros = slice(X.indptr[start], X.indptr[start + len(in_use)])
        data[rows][in_use] = X.data[nonzeros]
        ids[rows][in_use] = X.indices[nonzeros]
    return PaddedRows(data, ids, lengths, X.shape)


def featurize(texts: Sequence[str], config: FeatureConfig) -> CsrMatrix:
    """Hashed word 1- and 2-gram counts: one CSR row per text, sorted column indices per row.
    Counts and columns take `_block_counts`' types: 5 bytes per nonzero on report text, not 16."""
    nnz, indices, counts = map(np.concatenate, zip(*(
        _block_counts(texts[start : start + _SCORE_BLOCK], config, start)
        for start in range(0, len(texts), _SCORE_BLOCK)
    )))
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(nnz, out=indptr[1:])
    return CsrMatrix(counts, indices, indptr, (len(texts), config.dimension))


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    config: FeatureConfig
    pos_weight: float
    final_loss: float = field(default=float("nan"), compare=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.weights)):
            raise NumericalError("non-finite weights")
        if not math.isfinite(self.bias):
            raise NumericalError(f"non-finite bias {self.bias}")
        if not 0.0 < self.pos_weight < math.inf:
            raise NumericalError(f"pos_weight must be positive and finite, got {self.pos_weight}")


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _probability(margins) -> np.ndarray:
    """The probability of Normal at each margin X @ w + bias, kept within [EPS, 1 - EPS]."""
    p = _sigmoid(margins)
    np.maximum(p, EPS, out=p)
    return np.minimum(p, 1.0 - EPS, out=p)


def _sample_weights(y: np.ndarray, pos_weight: float) -> np.ndarray:
    """Each example's weight in the loss: pos_weight for Normal, 1 for Abnormal."""
    return np.where(y == 1, pos_weight, 1.0)


def _loss(p, y, sample_w, weights, l2) -> float:
    """Mean weighted cross-entropy of probabilities p at targets y in {0, 1}, plus the l2 penalty.

    An example's term is log(p) where y is 1 and log(1 - p) where it is 0,
    the bits of y log(p) + (1 - y) log(1 - p): the term y leaves out is a
    -0.0, and p within [EPS, 1 - EPS] makes the other a negative finite log."""
    terms = np.log(np.where(y == 1, p, 1.0 - p))
    terms *= sample_w
    loss = -(np.add.reduce(terms) / len(terms))
    return float(loss + l2 * float(weights @ weights))


def objective_and_gradient(
    X: CsrMatrix,
    y: np.ndarray,
    weights: np.ndarray,
    bias: float,
    pos_weight: float,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Mean weighted cross-entropy + l2 penalty at targets y in {0, 1} (1 for
    Normal), with its analytic gradient.  Its arrays are built in place."""
    p = _probability(X.matvec(weights) + bias)
    sample_w = _sample_weights(y, pos_weight)
    loss = _loss(p, y, sample_w, weights, l2)
    coef = p  # sample_w * (p - y) / n
    coef -= y
    coef *= sample_w
    coef /= X.shape[0]
    # X.T @ coef is added to the penalty: over no nonzeros, np.bincount returns int64 zeros
    grad_w = 2.0 * l2 * weights
    grad_w += X.rmatvec(coef)
    return loss, grad_w, float(coef.sum())


def training_order(examples: Sequence[tuple[str, Label]]) -> list[int]:
    """The order in which `design` puts examples: by text, then label, so a
    model depends on the multiset of its examples and not on their order."""
    return sorted(range(len(examples)), key=lambda i: (examples[i][0], examples[i][1].value))


def _check_fit(y: np.ndarray, dimension: int) -> None:
    """What `train` checks before any work; Uncertain is a target of nan."""
    # Fail on a dimension whose full-width weights no address space holds.
    # The weights themselves are made after SGD, in memory it frees: held
    # from here, they add their size to the peak RSS.
    try:
        np.zeros(dimension)
    except MemoryError:
        raise ConfigError(f"dimension {dimension}: no memory for its weights") from None
    if np.isnan(y).any():
        raise DataError("Uncertain examples must be excluded upstream")
    if y.all() or not y.any():
        raise DataError("training needs both Normal and Abnormal examples")


def design(
    examples: Sequence[tuple[str, Label]], fcfg=FeatureConfig(), ordered: Optional[list[int]] = None
) -> tuple[CsrMatrix, np.ndarray]:
    """The rows `train` fits to `examples`: their features and targets (1.0 for
    Normal) in `training_order`, which a caller that has it passes as `ordered`.
    `train`'s checks come before any featurizing; a text with no tokens is
    named by its index in `examples`."""
    ordered = training_order(examples) if ordered is None else ordered
    y = np.array([{Label.NORMAL: 1.0, Label.ABNORMAL: 0.0}.get(examples[i][1], np.nan) for i in ordered])
    _check_fit(y, fcfg.dimension)
    try:
        return featurize([examples[i][0] for i in ordered], fcfg), y
    except EmptyInput as e:
        raise _no_tokens(ordered[e.row]) from None


def train(X: CsrMatrix, y: np.ndarray, cfg: TrainConfig) -> LinearModel:
    """Fit the linear model to the rows of a `design` by seeded mini-batch gradient descent.

    The seeded shuffle permutes the rows as given, so the model is the same
    from the examples' own design and from their rows of a larger one.  Each step calls
    `objective_and_gradient` once; the final loss is scored in row blocks, with no gradient."""
    fcfg = FeatureConfig(X.shape[1])
    _check_fit(y, fcfg.dimension)
    n = X.shape[0]
    # A column no training text uses gets gradient 2 * l2 * 0 at every step,
    # so its weight stays exactly 0: SGD runs on the used columns only.  Rows
    # keep their order, so the weights come out bit for bit as at full width.
    # The used columns in ascending order, and each nonzero's rank among
    # them, come from a mask over all columns with no sort; the mask's cumsum
    # is no larger than the full-width weights below.
    in_use = np.zeros(fcfg.dimension, dtype=bool)
    in_use[X.indices] = True
    used = np.flatnonzero(in_use)
    # A used column's cumsum is at least 1 and at most len(used).
    X_used = X._replace(
        indices=np.cumsum(in_use, dtype=np.min_scalar_type(len(used)))[X.indices] - 1,
        shape=(n, len(used)),
    )
    if n * np.diff(X.indptr).max() <= _PAD_BOUND * len(X.data):
        X_used = _pad_rows(X_used)

    w_used = np.zeros(X_used.shape[1])
    bias = 0.0
    rng = SplitMix64(cfg.seed ^ 0x1F2E3D4C5B6A7988)
    order = list(range(n))
    # An overflow shows as a loss that is not finite, the one error it raises.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            rng.shuffle(order)
            perm = np.array(order)
            for start in range(0, n, _BATCH_SIZE):
                batch = perm[start : start + _BATCH_SIZE]
                loss, gw, gb = objective_and_gradient(
                    X_used.take_rows(batch), y[batch], w_used, bias, cfg.pos_weight, _L2
                )
                if not math.isfinite(loss):
                    raise NumericalError(f"non-finite loss {loss}")
                gw *= cfg.learning_rate
                w_used -= gw
                bias -= cfg.learning_rate * gb
        del X_used  # before the full-width weights
        weights = np.zeros(fcfg.dimension)
        weights[used] = w_used
        z = np.empty(n)
        for start in range(0, n, _SCORE_BLOCK):
            ptr = X.indptr[start : start + _SCORE_BLOCK + 1]
            nonzeros = slice(ptr[0], ptr[-1])
            block = CsrMatrix(X.data[nonzeros], X.indices[nonzeros], ptr - ptr[0], (len(ptr) - 1, X.shape[1]))
            z[start : start + len(ptr) - 1] = block.matvec(weights)
        final = _loss(_probability(z + bias), y, _sample_weights(y, cfg.pos_weight), weights, _L2)
    if not math.isfinite(final):
        raise NumericalError(f"non-finite final loss {final}")
    return LinearModel(weights=weights, bias=bias, config=fcfg, pos_weight=cfg.pos_weight, final_loss=final)


def predict(model: LinearModel, texts: Sequence[str]) -> np.ndarray:
    """Probability that each text is a Normal report, scored _SCORE_BLOCK rows at a time.
    A margin X @ weights + bias that is not finite raises NumericalError naming its text."""
    margins = np.empty(len(texts))
    for start in range(0, len(texts), _SCORE_BLOCK):
        block = texts[start : start + _SCORE_BLOCK]
        try:
            X = featurize(block, model.config)
        except EmptyInput as e:
            raise _no_tokens(start + e.row) from None
        with np.errstate(over="ignore", invalid="ignore"):
            m = X.matvec(model.weights) + model.bias
        finite = np.isfinite(m)
        if not finite.all():
            row = int(np.argmin(finite))
            raise NumericalError(f"text {start + row} has non-finite margin {m[row]}", row=start + row)
        margins[start : start + len(block)] = m
    return _probability(margins)


def classify(model: LinearModel, texts: Sequence[str]) -> list[Label]:
    """Normal where the predicted probability exceeds 0.5; a tie at 0.5 goes to Abnormal."""
    return [Label.NORMAL if p > 0.5 else Label.ABNORMAL for p in predict(model, texts)]


_MAGIC = b"NCLM"
_VERSION = 1
# magic, version, dimension, ngram_min, ngram_max, lowercase (+3 pad), pos_weight
_HEADER = struct.Struct("<4sIQIIB3xd")
# The header's ngram_min, ngram_max and lowercase: always 1- and 2-grams of lowercased tokens.
_FEATURE_FIELDS = (1, 2, 1)


def save_model(model: LinearModel, path) -> None:
    """Flat little-endian binary: header, weights, bias."""
    with open(path, "wb") as f:
        f.write(
            _HEADER.pack(
                _MAGIC, _VERSION, model.config.dimension, *_FEATURE_FIELDS, model.pos_weight
            )
        )
        f.write(model.weights.astype("<f8").tobytes())
        f.write(struct.pack("<d", model.bias))


def load_model(path) -> LinearModel:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _MAGIC:
        raise DataError(f"{path}: bad magic")
    if len(blob) < _HEADER.size:
        raise DataError(f"{path}: truncated header ({len(blob)} bytes)")
    _, version, dimension, *features, pos_weight = _HEADER.unpack_from(blob)
    if version != _VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    if tuple(features) != _FEATURE_FIELDS:  # its weights belong to other features
        raise DataError(f"{path}: n-gram range and case {tuple(features)}, expected {_FEATURE_FIELDS}")
    expected = _HEADER.size + 8 * dimension + 8
    if len(blob) != expected:
        raise DataError(f"{path}: {len(blob)} bytes, expected {expected} for dimension {dimension}")
    weights = np.frombuffer(blob, dtype="<f8", count=dimension, offset=_HEADER.size).copy()
    (bias,) = struct.unpack_from("<d", blob, expected - 8)
    try:
        fcfg = FeatureConfig(dimension=dimension)
        return LinearModel(weights=weights, bias=bias, config=fcfg, pos_weight=pos_weight)
    except (ConfigError, NumericalError) as e:
        raise DataError(f"{path}: {e}") from e
