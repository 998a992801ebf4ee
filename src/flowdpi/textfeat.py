"""Payload featurization: tri-gram TF-IDF plus linguistic counts.

A payload maps to a sparse vector of dimension |vocabulary| + 5: the
tri-gram TF-IDF block followed by five min-max-normalized linguistic
features (digits, consecutive digits, consecutive consonants, repeated
letters, vowels).

Training and evaluation work on a whole corpus: ``tokenize`` counts each
payload's tri-grams and linguistic features once, ``fit_featurizer``
fits on any subset of its rows from those counts, and ``stack_dense``
builds the ``FeatureBatch`` of any subset.  Replay featurizes one packet
at a time with ``Featurizer.featurize``; both give the same bits.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

N_LINGUISTIC = 5

_VOWELS = frozenset("aeiou")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz")
_CONSONANTS = _LETTERS - _VOWELS   # 'y' counts as a consonant


def trigrams(payload: str) -> list[str]:
    """All contiguous 3-character substrings, in order, with duplicates."""
    return [payload[i:i + 3] for i in range(len(payload) - 2)]


@dataclass(frozen=True)
class TfIdfModel:
    vocabulary: dict[str, int]    # trigram -> dense column index
    idf: tuple[float, ...]
    n_docs: int


def transform_tfidf(model: TfIdfModel, payload: str) -> list[tuple[int, float]]:
    """Sparse (index, tf*idf) pairs for the payload's tri-gram block.

    TF is the relative frequency over all tri-grams of the payload
    (out-of-vocabulary ones included in the denominator).
    """
    grams = trigrams(payload)
    if not grams:
        return []
    total = len(grams)
    counts = Counter(grams)
    pairs = []
    for t, c in counts.items():
        idx = model.vocabulary.get(t)
        if idx is not None:
            pairs.append((idx, (c / total) * model.idf[idx]))
    pairs.sort()
    return pairs


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


@dataclass(frozen=True)
class NormalizationParams:
    l_min: tuple[float, ...]
    l_max: tuple[float, ...]

    def __post_init__(self):
        if len(self.l_min) != N_LINGUISTIC or len(self.l_max) != N_LINGUISTIC:
            raise ValueError("normalization params must have 5 components")
        if any(lo > hi for lo, hi in zip(self.l_min, self.l_max)):
            raise ValueError("l_min must be <= l_max component-wise")


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


@dataclass(frozen=True)
class FeatureVector:
    dim: int
    indices: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.values):
            raise ValueError("indices/values length mismatch")
        prev = -1
        for i in self.indices:
            if not prev < i < self.dim:
                raise ValueError("indices must be strictly increasing "
                                 "and < dim")
            prev = i


@dataclass(frozen=True, eq=False)
class FeatureBatch:
    """Feature vectors of ``shape[0]`` payloads in compressed sparse rows.

    Row ``i`` owns the entries ``indptr[i]:indptr[i + 1]`` of ``indices``
    (its columns, ascending, so the linguistic columns come last) and of
    ``data`` (their values); zero entries are left out.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    @classmethod
    def of(cls, vec: FeatureVector) -> FeatureBatch:
        """``vec`` as a one-row batch."""
        return cls(np.array((0, len(vec.indices)), dtype=np.intp),
                   np.array(vec.indices, dtype=np.intp),
                   np.array(vec.values, dtype=float), (1, vec.dim))


@dataclass(frozen=True)
class Featurizer:
    """Fitted featurizer: TF-IDF model plus linguistic normalizer."""

    tfidf: TfIdfModel
    norm: NormalizationParams

    @property
    def dim(self) -> int:
        return len(self.tfidf.vocabulary) + N_LINGUISTIC

    def featurize(self, payload: str) -> FeatureVector:
        return featurize(self.tfidf, self.norm, payload)


def featurize(tfidf_model: TfIdfModel, norm_params: NormalizationParams,
              payload: str) -> FeatureVector:
    """Tri-gram block at [0, |V|) followed by the 5 normalized linguistic
    components; zero entries omitted from the sparse form."""
    n_vocab = len(tfidf_model.vocabulary)
    pairs = transform_tfidf(tfidf_model, payload)
    ling = normalize(norm_params, linguistic_features(payload))
    for j, value in enumerate(ling):
        if value != 0.0:
            pairs.append((n_vocab + j, value))
    indices, values = zip(*pairs) if pairs else ((), ())
    return FeatureVector(n_vocab + N_LINGUISTIC, tuple(indices),
                         tuple(values))


@dataclass(frozen=True, eq=False)
class TokenizedCorpus:
    """Each payload of a corpus counted once.

    ``vocabulary`` holds every tri-gram of the corpus, sorted.  Payload
    ``i`` owns the entries ``indptr[i]:indptr[i + 1]`` of ``ids`` (its
    distinct tri-grams, as ascending positions in ``vocabulary``) and
    ``counts`` (how often each occurs); ``totals[i]`` is its number of
    tri-grams and ``linguistic[i]`` its five raw linguistic counts.
    """

    vocabulary: tuple[str, ...]
    indptr: np.ndarray
    ids: np.ndarray
    counts: np.ndarray
    totals: np.ndarray
    linguistic: np.ndarray

    def __len__(self) -> int:
        return self.totals.shape[0]

    def select(self, rows=None) -> np.ndarray:
        """``rows`` as an index array; None means every payload."""
        if rows is None:
            return np.arange(len(self))
        return np.asarray(rows, dtype=np.intp)

    def entries(self, rows: np.ndarray):
        """(position in ``rows``, tri-gram id, count) of each entry of the
        payloads at ``rows``."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        owner = np.repeat(np.arange(rows.shape[0]), lengths)
        offsets = np.cumsum(lengths) - lengths
        at = np.repeat(starts - offsets, lengths) + np.arange(owner.shape[0])
        return owner, self.ids[at], self.counts[at]


def tokenize(payloads: Sequence[str]) -> TokenizedCorpus:
    grams = [Counter(trigrams(p)) for p in payloads]
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
    totals = np.array([max(len(p) - 2, 0) for p in payloads], dtype=np.int64)
    linguistic = np.array([linguistic_features(p).as_tuple()
                           for p in payloads],
                          dtype=np.int64).reshape(len(payloads), N_LINGUISTIC)
    return TokenizedCorpus(vocabulary, indptr, ids[order], counts[order],
                           totals, linguistic)


def fit_featurizer(corpus: TokenizedCorpus, rows=None) -> Featurizer:
    """Fit on the payloads at ``rows`` (all by default): the vocabulary is
    their sorted tri-grams, with smoothed IDF weights

        idf[t] = ln((1 + n_docs) / (1 + df(t))) + 1,

    and the normalizer holds the min and max of each linguistic count.
    """
    rows = corpus.select(rows)
    n = rows.shape[0]
    if n == 0:
        raise ValueError("cannot fit a featurizer on an empty corpus")
    _, ids, _ = corpus.entries(rows)
    df = np.bincount(ids, minlength=len(corpus.vocabulary))
    present = np.flatnonzero(df)
    vocabulary = {corpus.vocabulary[i]: j
                  for j, i in enumerate(present.tolist())}
    idf = tuple(math.log((1 + n) / (1 + d)) + 1.0
                for d in df[present].tolist())
    ling = corpus.linguistic[rows]
    norm = NormalizationParams(tuple(map(float, ling.min(axis=0).tolist())),
                               tuple(map(float, ling.max(axis=0).tolist())))
    return Featurizer(TfIdfModel(vocabulary, idf, n), norm)


def _normalize_rows(params: NormalizationParams,
                    counts: np.ndarray) -> np.ndarray:
    """``normalize`` over rows of linguistic counts, same expressions."""
    lo = np.array(params.l_min, dtype=float)
    hi = np.array(params.l_max, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = (counts - lo) / (hi - lo)
    scaled = np.where(scaled > 0.0, scaled, 0.0)    # max(0.0, x)
    scaled = np.where(scaled < 1.0, scaled, 1.0)    # min(1.0, x)
    return np.where(hi == lo, 0.0, scaled)


def stack_dense(featurizer: Featurizer, corpus: TokenizedCorpus,
                rows=None) -> FeatureBatch:
    """The payloads at ``rows`` (all by default), in that order, as one
    batch.  Row i holds bit for bit the entries of ``featurizer
    .featurize(p)`` of the i-th payload: tri-grams outside the
    featurizer's vocabulary still count in the TF denominator."""
    rows = corpus.select(rows)
    n = rows.shape[0]
    if n == 0:
        raise ValueError("no rows to stack")
    vocab = featurizer.tfidf.vocabulary
    column = np.fromiter(map(vocab.get, corpus.vocabulary, repeat(-1)),
                         dtype=np.intp, count=len(corpus.vocabulary))
    owner, ids, counts = corpus.entries(rows)
    cols = column[ids]
    known = cols >= 0
    owner, cols, counts = owner[known], cols[known], counts[known]
    idf = np.array(featurizer.tfidf.idf, dtype=float)
    tfidf = (counts / corpus.totals[rows][owner]) * idf[cols]
    ling = _normalize_rows(featurizer.norm, corpus.linguistic[rows])
    ling_owner, j = np.nonzero(ling)
    owner = np.concatenate((owner, ling_owner))
    indices = np.concatenate((cols, len(vocab) + j))
    # sort each row by column: rows come in order, and so do the columns
    # within a row unless a model file numbered its vocabulary out of
    # order, so this is mostly one merge of two sorted runs
    order = np.argsort(owner * featurizer.dim + indices, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    return FeatureBatch(indptr, indices[order],
                        np.concatenate((tfidf, ling[ling_owner, j]))[order],
                        (n, featurizer.dim))
