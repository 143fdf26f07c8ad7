"""Reference text classifier: hashed n-gram features, sigmoid linear model,
weighted cross-entropy with a configurable minority-class penalty."""

import itertools
import re
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse

from .corpus import SplitMix64
from .errors import Divergence, EmptyInput, InvalidParams, MissingClass, SchemaError
from .labeling import Label

EPS = 1e-12

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
# Rows featurized per step, inside `featurize` and per `featurize` call in
# `predict`.  One matrix over a whole 5,000-report subset raised the peak RSS
# of `eval` by over 30 MB; blocks of 256 add about 2 MB.
_SCORE_BLOCK = 256


def fnv1a_64(data: bytes) -> int:
    """FNV-1a 64-bit hash; the fixed, documented feature hash.

    `featurize` computes the same hash of each space-joined gram with uint64
    array arithmetic; this scalar form is the reference it is tested against.
    """
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class FeatureConfig:
    dimension: int = 1 << 18
    ngram_min: int = 1
    ngram_max: int = 2
    lowercase: bool = True

    def __post_init__(self):
        if not (1 <= self.ngram_min <= self.ngram_max <= 3):
            raise InvalidParams("require 1 <= ngram_min <= ngram_max <= 3")
        # featurize packs a row number within a block and a column into one uint64 sort key
        if not (1 << 10) <= self.dimension <= (1 << 48) or self.dimension & (self.dimension - 1):
            raise InvalidParams("dimension must be a power of two in [2^10, 2^48]")


@dataclass(frozen=True)
class TrainConfig:
    pos_weight: float = 10.0
    learning_rate: float = 0.5
    epochs: int = 20
    l2: float = 1e-6
    seed: int = 0
    batch_size: int = 64

    def __post_init__(self):
        if self.pos_weight <= 0:
            raise InvalidParams("pos_weight must be positive")
        if self.epochs < 1:
            raise InvalidParams("epochs must be >= 1")


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    if lowercase:
        text = text.lower()
    return re.findall(r"[a-zA-Z0-9]+", text)


def _no_tokens(row: int) -> EmptyInput:
    return EmptyInput(f"text {row} has no tokens after normalization", row=row)


def _block_counts(texts: Sequence[str], config: FeatureConfig, first_row: int):
    """Hashed n-gram counts of one block of texts: (nonzeros per row, columns, counts).

    FNV-1a is a left fold over bytes, so the hash of the n-gram ending at
    token j continues the (n-1)-gram ending at token j-1: xor in the joining
    space, multiply, then fold token j's bytes.  Every gram of the block is
    hashed at once in wrapping uint64 arithmetic; no gram string is built.
    """
    token_lists = [tokenize(text, config.lowercase) for text in texts]
    per_row = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(texts))
    if not per_row.all():
        raise _no_tokens(first_row + int(np.argmin(per_row)))
    tokens = list(itertools.chain.from_iterable(token_lists))
    # Tokens match [a-zA-Z0-9]+, so every character is one ASCII byte.
    buf = np.frombuffer("".join(tokens).encode("ascii"), dtype=np.uint8)
    lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    # Byte k of every token that has one, longest tokens first, so that the
    # tokens still being folded at byte k are a prefix of that order.
    by_length = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[by_length]
    n_longer = np.searchsorted(-lengths[by_length], -np.arange(lengths.max()), side="left")
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

    row = np.repeat(np.arange(len(texts), dtype=np.uint64), per_row)
    position = np.arange(len(tokens)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    state = fold(np.full(len(tokens), _FNV_OFFSET, dtype=np.uint64))
    # One uint64 key per gram, row in the high bits and column in the low
    # bits, so a single sort groups each row's columns in order.
    shift = np.uint64(config.dimension.bit_length() - 1)
    mask = np.uint64(config.dimension - 1)
    keys = []
    for n in range(1, config.ngram_max + 1):
        if n > 1:
            state[1:] = (state[:-1] ^ np.uint64(0x20)) * prime
            state = fold(state)
        if n >= config.ngram_min:
            whole = position >= n - 1
            keys.append((row[whole] << shift) | (state[whole] & mask))
    distinct, counts = np.unique(np.concatenate(keys), return_counts=True)
    nnz = np.bincount((distinct >> shift).astype(np.intp), minlength=len(texts))
    return nnz, (distinct & mask).astype(np.int64), counts.astype(np.float64)


def featurize(texts: Sequence[str], config: FeatureConfig) -> sparse.csr_matrix:
    """Hashed word n-gram counts: one CSR row per text, sorted column indices per row."""
    nnz, indices, counts = map(np.concatenate, zip(*(
        _block_counts(texts[start : start + _SCORE_BLOCK], config, start)
        for start in range(0, len(texts), _SCORE_BLOCK)
    )))
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(nnz, out=indptr[1:])
    return sparse.csr_matrix((counts, indices, indptr), shape=(len(texts), config.dimension))


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    config: FeatureConfig
    pos_weight: float
    final_loss: float = field(default=float("nan"), compare=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.weights)):
            raise InvalidParams("non-finite weights")
        if self.pos_weight <= 0:
            raise InvalidParams("pos_weight must be positive")


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def objective_and_gradient(
    X: sparse.csr_matrix,
    y: np.ndarray,
    weights: np.ndarray,
    bias: float,
    pos_weight: float,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Mean weighted cross-entropy + l2 penalty, with its analytic gradient."""
    n = X.shape[0]
    z = X @ weights + bias
    p = np.clip(_sigmoid(z), EPS, 1.0 - EPS)
    sample_w = np.where(y == 1, pos_weight, 1.0)
    loss = -np.mean(sample_w * (y * np.log(p) + (1 - y) * np.log(1.0 - p)))
    loss += l2 * float(weights @ weights)
    coef = sample_w * (p - y) / n
    grad_w = X.T @ coef + 2.0 * l2 * weights
    grad_b = float(np.sum(coef))
    return float(loss), np.asarray(grad_w).ravel(), grad_b


def train(
    examples: Sequence[tuple[str, Label]],
    cfg: TrainConfig,
    fcfg: FeatureConfig | None = None,
) -> LinearModel:
    """Fit the linear model by seeded mini-batch gradient descent.

    Examples are canonicalized (sorted) before the seeded per-epoch shuffle,
    so training is deterministic given the example multiset, cfg, and fcfg.
    """
    fcfg = fcfg or FeatureConfig()
    labels = {lab for _, lab in examples}
    if Label.UNCERTAIN in labels:
        raise SchemaError("Uncertain examples must be excluded upstream")
    if labels != {Label.NORMAL, Label.ABNORMAL}:
        raise MissingClass("training needs both Normal and Abnormal examples")

    ordered = sorted(range(len(examples)), key=lambda i: (examples[i][0], examples[i][1].value))
    y = np.array([1.0 if examples[i][1] is Label.NORMAL else 0.0 for i in ordered])
    try:
        X = featurize([examples[i][0] for i in ordered], fcfg)
    except EmptyInput as e:
        raise _no_tokens(ordered[e.row]) from None
    n = len(ordered)
    # A column no training text uses gets gradient 2 * l2 * 0 at every step,
    # so its weight stays exactly 0: SGD runs on the used columns only.  Rows
    # keep their order, so the weights come out bit for bit as at full width.
    used, renumbered = np.unique(X.indices, return_inverse=True)
    X_used = sparse.csr_matrix((X.data, renumbered, X.indptr), shape=(n, len(used)))

    w_used = np.zeros(len(used))
    bias = 0.0
    rng = SplitMix64(cfg.seed ^ 0x1F2E3D4C5B6A7988)
    order = list(range(n))
    loss = float("nan")
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, gw, gb = objective_and_gradient(
                X_used[batch], y[batch], w_used, bias, cfg.pos_weight, cfg.l2
            )
            if not np.isfinite(loss):
                raise Divergence(f"non-finite loss {loss}")
            w_used -= cfg.learning_rate * gw
            bias -= cfg.learning_rate * gb
    weights = np.zeros(fcfg.dimension)
    weights[used] = w_used
    final, _, _ = objective_and_gradient(X, y, weights, bias, cfg.pos_weight, cfg.l2)
    if not np.isfinite(final):
        raise Divergence(f"non-finite final loss {final}")
    return LinearModel(weights=weights, bias=bias, config=fcfg, pos_weight=cfg.pos_weight, final_loss=final)


def predict(model: LinearModel, texts: Sequence[str]) -> np.ndarray:
    """Probability that each text is a Normal report, scored _SCORE_BLOCK rows at a time."""
    z = np.empty(len(texts))
    for start in range(0, len(texts), _SCORE_BLOCK):
        block = texts[start : start + _SCORE_BLOCK]
        try:
            z[start : start + len(block)] = featurize(block, model.config) @ model.weights
        except EmptyInput as e:
            raise _no_tokens(start + e.row) from None
    return np.clip(_sigmoid(z + model.bias), EPS, 1.0 - EPS)


def classify(model: LinearModel, texts: Sequence[str], threshold: float = 0.5) -> list[Label]:
    """Thresholded predictions; ties at the threshold go to Abnormal."""
    return [Label.NORMAL if p > threshold else Label.ABNORMAL for p in predict(model, texts)]


_MAGIC = b"NCLM"
_VERSION = 1
# magic, version, dimension, ngram_min, ngram_max, lowercase (+3 pad), pos_weight
_HEADER = struct.Struct("<4sIQIIB3xd")


def save_model(model: LinearModel, path) -> None:
    """Flat little-endian binary: header, weights, bias."""
    cfg = model.config
    with open(path, "wb") as f:
        f.write(
            _HEADER.pack(
                _MAGIC, _VERSION, cfg.dimension, cfg.ngram_min, cfg.ngram_max,
                int(cfg.lowercase), model.pos_weight,
            )
        )
        f.write(model.weights.astype("<f8").tobytes())
        f.write(struct.pack("<d", model.bias))


def load_model(path) -> LinearModel:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _MAGIC:
        raise SchemaError(f"{path}: bad magic")
    if len(blob) < _HEADER.size:
        raise SchemaError(f"{path}: truncated header ({len(blob)} bytes)")
    _, version, dimension, ngram_min, ngram_max, lowercase, pos_weight = _HEADER.unpack_from(blob)
    if version != _VERSION:
        raise SchemaError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 8 * dimension + 8
    if len(blob) != expected:
        raise SchemaError(f"{path}: {len(blob)} bytes, expected {expected} for dimension {dimension}")
    weights = np.frombuffer(blob, dtype="<f8", count=dimension, offset=_HEADER.size).copy()
    (bias,) = struct.unpack_from("<d", blob, expected - 8)
    try:
        fcfg = FeatureConfig(dimension=dimension, ngram_min=ngram_min, ngram_max=ngram_max, lowercase=bool(lowercase))
        return LinearModel(weights=weights, bias=bias, config=fcfg, pos_weight=pos_weight)
    except InvalidParams as e:
        raise SchemaError(f"{path}: {e}") from e
