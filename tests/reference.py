"""Oracles for the payload featurization and training paths.

The per-payload featurization that the batch featurizer replaced:
``trigrams`` lists a payload's tri-grams, ``linguistic_features`` walks
it a character at a time, ``transform_tfidf`` and ``normalize`` give the
tri-gram and linguistic blocks, and ``featurize`` joins them into a row
of (column, value) pairs.  ``row`` reads a row of a ``FeatureBatch`` in
that form; tests require every row the package builds, one payload's
included, to be the oracle's row bit for bit.

The composition that the batch path replaced: ``fit_featurizer`` fits on
a list of payload strings, ``stack_dense`` stacks per-payload rows into
a dense matrix, ``loss_grad`` is the dense (BLAS) loss and gradient, and
``train`` is the gradient-descent loop that built a ``LogisticModel``
and checked its inputs on every line-search trial.  ``stratified_kfold``
is the fold split that listed the classes with ``np.unique``.

The corpus counter that ``textfeat.count_batch`` replaced:
``tokenize`` counts each payload's tri-grams with a ``Counter`` and its
linguistic features with ``linguistic_features``, and builds the
``TokenizedCorpus`` from the counts, its tri-grams sorted as strings and
then each packed into one integer by ``pack``; ``unpack`` gives a code's
tri-gram back.

The replay order: ``sorted_replay`` is the replay that parsed every
packet line and processed the packets in a stable sort by timestamp,
``streamed_replay`` is the replay that processed (and so scored) each
packet as the reorder window let it go and classified each flow row as
it was read, and ``reorder`` is the reorder window as a sorted list.
Both replays process each packet as a batch of one.

The tree descent that ``tree._leaves`` replaced: ``predict_one`` walks
one row from the root to its leaf a node at a time.

The summation order that defines a score and a gradient, in plain
Python: ``segment_sum`` is ``S``, ``margins`` and ``gradient`` apply it
to the rows and columns of a ``FeatureBatch``, and ``sparse_loss_grad``
is the loss and gradient built from them.  Tests require
``logistic.loss_grad`` and ``logistic.train`` to give the same bits as
``sparse_loss_grad`` and ``train(..., sparse_loss_grad)``, and to stay
within 1e-12 of the dense path.
"""

from __future__ import annotations

import bisect
import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from flowdpi import engine as engine_module
from flowdpi import flows, logistic, tree
from flowdpi.encflow import FlowRowError, encode, read_flow_csv
from flowdpi.textfeat import (N_LINGUISTIC, FeatureBatch, Featurizer,
                              NormalizationParams, TfIdfModel,
                              TokenizedCorpus)

_VOWELS = frozenset("aeiou")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz")
_CONSONANTS = _LETTERS - _VOWELS   # 'y' counts as a consonant


@dataclass(frozen=True)
class LinguisticFeatures:
    n_digits: int
    n_consecutive_digits: int
    n_consecutive_consonants: int
    n_repeated_letters: int
    n_vowels: int

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.n_digits, self.n_consecutive_digits,
                self.n_consecutive_consonants, self.n_repeated_letters,
                self.n_vowels)


def trigrams(payload: str) -> list[str]:
    """All contiguous 3-character substrings, in order, with duplicates."""
    return [payload[i:i + 3] for i in range(len(payload) - 2)]


def _run_sum(chars: Iterable[bool]) -> int:
    """Sum of lengths of maximal True-runs of length >= 2."""
    total = 0
    run = 0
    for hit in chars:
        if hit:
            run += 1
        else:
            if run >= 2:
                total += run
            run = 0
    if run >= 2:
        total += run
    return total


def linguistic_features(payload: str) -> LinguisticFeatures:
    low = payload.lower()
    n_digits = sum(c.isdigit() and c.isascii() for c in low)
    n_cons_digits = _run_sum(c.isdigit() and c.isascii() for c in low)
    n_cons_consonants = _run_sum(c in _CONSONANTS for c in low)
    letter_counts = Counter(c for c in low if c in _LETTERS)
    n_repeated = sum(1 for c in letter_counts.values() if c > 1)
    n_vowels = sum(c in _VOWELS for c in low)
    return LinguisticFeatures(n_digits, n_cons_digits, n_cons_consonants,
                              n_repeated, n_vowels)


def transform_tfidf(model: TfIdfModel,
                    payload: str) -> list[tuple[int, float]]:
    """Sparse (index, tf*idf) pairs for the payload's tri-gram block.

    TF is the relative frequency over all tri-grams of the payload
    (out-of-vocabulary ones included in the denominator).
    """
    grams = trigrams(payload)
    if not grams:
        return []
    total = len(grams)
    counts = Counter(grams)
    columns = {unpack(code): j
               for j, code in enumerate(model.grams.tolist())}
    idf = model.idf.tolist()
    pairs = []
    for t, c in counts.items():
        idx = columns.get(t)
        if idx is not None:
            pairs.append((idx, (c / total) * idf[idx]))
    pairs.sort()
    return pairs


def normalize(params: NormalizationParams,
              features: LinguisticFeatures) -> tuple[float, ...]:
    """Min-max rescale each count to [0,1]; constant features map to 0,
    transform-time out-of-range values are clamped."""
    out = []
    for value, lo, hi in zip(features.as_tuple(), params.l_min, params.l_max):
        if hi == lo:
            out.append(0.0)
        else:
            out.append(min(1.0, max(0.0, (value - lo) / (hi - lo))))
    return tuple(out)


def featurize(featurizer: Featurizer,
              payload: str) -> list[tuple[int, float]]:
    """Tri-gram block at [0, |V|) followed by the 5 normalized linguistic
    components, as (column, value) pairs; zero linguistic entries
    omitted."""
    n_vocab = len(featurizer.tfidf.grams)
    pairs = transform_tfidf(featurizer.tfidf, payload)
    ling = normalize(featurizer.norm, linguistic_features(payload))
    for j, value in enumerate(ling):
        if value != 0.0:
            pairs.append((n_vocab + j, value))
    return pairs


def pack(gram: str) -> int:
    """A tri-gram's code: its three code points, 21 bits each."""
    a, b, c = map(ord, gram)
    return a << 42 | b << 21 | c


def unpack(code: int) -> str:
    """The tri-gram of a code: ``pack`` undone."""
    mask = (1 << 21) - 1
    return chr(code >> 42) + chr(code >> 21 & mask) + chr(code & mask)


def tokenize(payloads) -> TokenizedCorpus:
    counted = [(Counter(trigrams(p)), max(len(p) - 2, 0),
                linguistic_features(p).as_tuple()) for p in payloads]
    grams = [g for g, _, _ in counted]
    vocabulary = tuple(sorted(set().union(*grams)))
    index = {t: i for i, t in enumerate(vocabulary)}
    indptr = np.zeros(len(grams) + 1, dtype=np.intp)
    np.cumsum([len(g) for g in grams], out=indptr[1:])
    nnz = int(indptr[-1])
    ids = np.fromiter((index[t] for g in grams for t in g), dtype=np.intp,
                      count=nnz)
    counts = np.fromiter((c for g in grams for c in g.values()),
                         dtype=np.int64, count=nnz)
    order = np.lexsort((ids, np.repeat(np.arange(len(grams)),
                                       np.diff(indptr))))
    totals = np.array([t for _, t, _ in counted], dtype=np.int64)
    linguistic = np.array([ling for _, _, ling in counted],
                          dtype=np.int64).reshape(len(counted), N_LINGUISTIC)
    packed = np.array([pack(t) for t in vocabulary], dtype=np.int64)
    return TokenizedCorpus(packed, indptr, ids[order], counts[order],
                           totals, linguistic)


def fit_featurizer(corpus: list[str]) -> Featurizer:
    if len(corpus) == 0:
        raise ValueError("cannot fit TF-IDF on an empty corpus")
    df: Counter[str] = Counter()
    for payload in corpus:
        df.update(set(trigrams(payload)))
    vocabulary = sorted(df)
    n = len(corpus)
    idf = [math.log((1 + n) / (1 + df[t])) + 1.0 for t in vocabulary]
    cols = list(zip(*(linguistic_features(p).as_tuple() for p in corpus)))
    norm = NormalizationParams(tuple(float(min(c)) for c in cols),
                               tuple(float(max(c)) for c in cols))
    codes = np.array([pack(t) for t in vocabulary], dtype=np.int64)
    return Featurizer(TfIdfModel(codes, np.array(idf, dtype=float), n),
                      norm)


def stack_dense(rows, dim: int) -> np.ndarray:
    """Rows of (column, value) pairs as a dense matrix of ``dim``
    columns."""
    if not rows:
        raise ValueError("no rows to stack")
    return np.array([to_dense(row, dim) for row in rows])


def to_dense(row, dim: int) -> np.ndarray:
    """A row of (column, value) pairs as a dense vector."""
    dense = np.zeros(dim)
    for col, value in row:
        dense[col] = value
    return dense


def row(batch: FeatureBatch, i: int) -> list[tuple[int, float]]:
    """Row ``i`` of a ``FeatureBatch`` as (column, value) pairs, in its
    stored order."""
    lo, hi = batch.indptr[i], batch.indptr[i + 1]
    return list(zip(batch.indices[lo:hi].tolist(),
                    batch.data[lo:hi].tolist()))


def dense(batch: FeatureBatch) -> np.ndarray:
    """A ``FeatureBatch`` as a dense matrix."""
    X = np.zeros(batch.shape)
    for i in range(batch.shape[0]):
        for k in range(batch.indptr[i], batch.indptr[i + 1]):
            X[i, batch.indices[k]] = batch.data[k]
    return X


def batch(X) -> FeatureBatch:
    """The non-zero entries of a dense matrix (one row for a vector), row
    by row with columns ascending."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rows, cols = np.nonzero(X)
    indptr = np.searchsorted(rows, np.arange(X.shape[0] + 1))
    return FeatureBatch(indptr, cols, X[rows, cols], X.shape)


def sigmoid(z):
    """The masked form of the logistic function the library used."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def pairwise_sum(x: list[float]) -> float:
    """numpy's pairwise sum of ``x``, term by term."""
    n = len(x)
    if n < 8:
        total = -0.0   # the additive identity: -0.0 + t == t
        for t in x:
            total += t
        return total
    if n <= 128:
        r = list(x[:8])
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += x[i + j]
            i += 8
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5])
                                                   + (r[6] + r[7]))
        for t in x[i:]:
            total += t
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(x[:half]) + pairwise_sum(x[half:])


def segment_sum(x: list[float]) -> float:
    """``S(x) = x[0] + P(x[1:])`` of a non-empty segment."""
    return x[0] + pairwise_sum(x[1:])


def margins(batch: FeatureBatch, w, b: float) -> np.ndarray:
    """``S(data * w[indices]) + b`` of each row, in its stored order; an
    empty row's margin is ``b``."""
    indptr, indices = batch.indptr.tolist(), batch.indices.tolist()
    data, w = batch.data.tolist(), list(map(float, w))
    out = []
    for lo, hi in zip(indptr, indptr[1:]):
        terms = [data[k] * w[indices[k]] for k in range(lo, hi)]
        out.append(segment_sum(terms) + b if terms else b)
    return np.array(out, dtype=float)


def gradient(batch: FeatureBatch, residual, w, lam: float) -> np.ndarray:
    """Per column, ``S(data * residual[row])`` over its entries in row
    order, then ``/ n + lam / n * w``; an empty column's is ``lam / n *
    w``."""
    indptr, indices = batch.indptr.tolist(), batch.indices.tolist()
    data, residual = batch.data.tolist(), list(map(float, residual))
    n = batch.shape[0]
    terms = [[] for _ in range(batch.shape[1])]
    for i in range(n):
        for k in range(indptr[i], indptr[i + 1]):
            terms[indices[k]].append(data[k] * residual[i])
    return np.array([segment_sum(t) / n + lam / n * float(w[j]) if t
                     else lam / n * float(w[j])
                     for j, t in enumerate(terms)], dtype=float)


def sparse_loss_grad(model: logistic.LogisticModel, batch: FeatureBatch, y):
    """``logistic.loss_grad`` from ``margins`` and ``gradient``."""
    y = np.asarray(y, dtype=float)
    n = batch.shape[0]
    w = model.weights
    z = margins(batch, w, model.bias)
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    loss += model.lam / (2 * n) * float(np.sum(w * w))
    residual = sigmoid(z) - y
    return (loss, gradient(batch, residual, w, model.lam),
            float(np.mean(residual)))


def loss_grad(model: logistic.LogisticModel, X, y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    z = X @ model.weights + model.bias
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    loss += model.lam / (2 * n) * float(model.weights @ model.weights)
    h = logistic.sigmoid(z)
    grad_w = X.T @ (h - y) / n + model.lam / n * model.weights
    grad_b = float(np.mean(h - y))
    return loss, grad_w, grad_b


def train(X, y, hyper: logistic.LogisticHyper = logistic.LogisticHyper(),
          loss_grad=loss_grad):
    """The descent loop on a dense ``X`` and the dense ``loss_grad``, or on
    a ``FeatureBatch`` and ``sparse_loss_grad``."""
    y = np.asarray(y, dtype=float)
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise ValueError("labels must be 0/1")
    if classes.size < 2:
        raise ValueError("training needs both classes present")
    model = logistic.LogisticModel(np.zeros(X.shape[1]), 0.0, hyper.lam)
    info = logistic.FitInfo()
    loss, grad_w, grad_b = loss_grad(model, X, y)
    info.losses.append(loss)
    for it in range(hyper.max_iters):
        info.n_iter = it + 1
        if max(np.max(np.abs(grad_w), initial=0.0), abs(grad_b)) < hyper.tol:
            info.converged = True
            break
        step = hyper.learning_rate
        for _ in range(60):
            w_new = model.weights - step * grad_w
            b_new = model.bias - step * grad_b
            trial = logistic.LogisticModel(w_new, b_new, hyper.lam)
            new_loss, new_gw, new_gb = loss_grad(trial, X, y)
            if new_loss <= loss:
                break
            step /= 2.0
        else:
            info.converged = True
            break
        model, loss, grad_w, grad_b = trial, new_loss, new_gw, new_gb
        info.losses.append(loss)
    return model, info


def stratified_kfold(y, k: int, seed: int) -> list[np.ndarray]:
    """The fold split that listed the classes with ``np.unique``."""
    y = np.asarray(y)
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in sorted(np.unique(y).tolist()):
        idx = np.flatnonzero(y == cls)
        if idx.shape[0] < k:
            raise ValueError(f"class {cls} has fewer than k={k} members")
        idx = idx[rng.permutation(idx.shape[0])]
        for j, sample in enumerate(idx):
            folds[j % k].append(int(sample))
    return [np.sort(np.array(f, dtype=int)) for f in folds]


def sorted_replay(engine, packet_lines):
    """The packet replay before the reorder window: report the blacklist
    errors and every malformed packet line, then process the packets in
    a stable sort by timestamp."""
    engine.report.errors.extend(engine.blacklist.errors)
    packets = []
    for line_no, line in enumerate(packet_lines, start=1):
        if not line.strip():
            continue
        try:
            packets.append(flows.packet_from_json_line(line))
        except flows.FlowParseError as exc:
            engine.report.errors.append(f"packet line {line_no}: {exc}")
    packets.sort(key=lambda packet: packet.timestamp)
    for packet in packets:
        engine._process_batch([packet])
    return engine.report


def streamed_replay(engine, packet_lines, flow_lines=None):
    """The replay that processed each packet as soon as the reorder
    window let it go (a late packet as soon as it arrived), so that each
    sampled packet was scored on its own."""
    engine.report.errors.extend(engine.blacklist.errors)
    window = engine_module.REORDER_WINDOW
    held, released = [], -math.inf
    for line_no, line in enumerate(packet_lines, start=1):
        if not line.strip():
            continue
        try:
            packet = flows.packet_from_json_line(line)
        except flows.FlowParseError as exc:
            engine.report.errors.append(f"packet line {line_no}: {exc}")
            continue
        ts = packet.timestamp
        if ts < released:
            engine.report.errors.append(
                f"packet line {line_no}: late: ts {ts!r} came after ts "
                f"{released!r} left the {window}-packet reorder window; "
                f"inspected in arrival order")
            engine._process_batch([packet])
        elif len(held) < window:
            heapq.heappush(held, (ts, line_no, packet))
        else:
            released, _, packet = heapq.heappushpop(held,
                                                    (ts, line_no, packet))
            engine._process_batch([packet])
    while held:
        engine._process_batch([heapq.heappop(held)[2]])
    for record in read_flow_csv(flow_lines or ()):
        if isinstance(record, FlowRowError):
            engine.report.errors.append(f"flow csv: {record}")
            continue
        engine.report.encrypted_flows += 1
        klass, proba = predict_one(engine.tree_model, encode(record))
        if klass == 1:
            engine.report.actions.append(flows.Verdict(
                flows.VerdictKind.BLOCK, record.flow,
                flows.VerdictReason.ENCRYPTED_CLASSIFIER, proba))
            engine.report.classifier_blocks += 1
    return engine.report


def predict_one(model: tree.DecisionTreeModel, x) -> tuple[int, float]:
    """Descend root-to-leaf; returns (class, leaf P(class 1))."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != model.n_features:
        raise ValueError(f"feature dimension mismatch: "
                         f"{x.shape[0]} != {model.n_features}")
    node = model.nodes[0]
    while not node.is_leaf:
        node = model.nodes[node.left if x[node.feature] <= node.threshold
                           else node.right]
    return node.klass, node.proba


def reorder(timestamps, window: int):
    """The order in which a reorder window of ``window`` packets releases
    arrivals with these timestamps, as arrival indices, and the indices
    of the late ones: a buffer kept sorted by (timestamp, arrival) that
    releases its first entry once it holds more than ``window``."""
    buffer, order, late = [], [], []
    released = -math.inf
    for i, ts in enumerate(timestamps):
        if ts < released:
            order.append(i)
            late.append(i)
            continue
        bisect.insort(buffer, (ts, i))
        if len(buffer) > window:
            released, first = buffer.pop(0)
            order.append(first)
    return order + [i for _, i in buffer], late
