"""Payload featurization: tri-gram TF-IDF plus linguistic counts.

A payload maps to a sparse vector of dimension |vocabulary| + 5: the
tri-gram TF-IDF block followed by five min-max-normalized linguistic
features (digits, consecutive digits, consecutive consonants, repeated
letters, vowels).

``count_payload`` counts a payload's tri-grams and linguistic features
once.  Training and evaluation work on a whole corpus: ``tokenize``
counts each payload, ``fit_featurizer`` fits on any subset of its rows
from those counts, and ``stack_dense`` builds the ``FeatureBatch`` of
any subset.  Replay featurizes one packet at a time with
``Featurizer.featurize``, from the same counts; both give the same bits.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

N_LINGUISTIC = 5

_DIGITS = frozenset("0123456789")
_VOWELS = frozenset("aeiou")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz")
_DIGIT_RUNS = re.compile("[0-9]{2,}")
_CONSONANT_RUNS = re.compile("[bcdfghjklmnpqrstvwxyz]{2,}")   # 'y' too


def trigrams(payload: str) -> list[str]:
    """All contiguous 3-character substrings, in order, with duplicates."""
    return [payload[i:i + 3] for i in range(len(payload) - 2)]


def count_payload(payload: str) -> tuple[Counter, int, tuple[int, ...]]:
    """What a payload's features are built from, counted once: how often
    each tri-gram occurs, the number of tri-grams, and the five
    linguistic counts of its lower-case form, ASCII only: digits, digits
    in runs of two or more, consonants in runs of two or more, letters
    that occur more than once, and vowels."""
    low = payload.lower()
    letters = _LETTERS.intersection(low)
    linguistic = (sum(map(low.count, _DIGITS.intersection(low))),
                  sum(map(len, _DIGIT_RUNS.findall(low))),
                  sum(map(len, _CONSONANT_RUNS.findall(low))),
                  sum([low.count(c) > 1 for c in letters]),
                  sum(map(low.count, _VOWELS.intersection(letters))))
    return Counter(trigrams(payload)), max(len(payload) - 2, 0), linguistic


@dataclass(frozen=True)
class TfIdfModel:
    vocabulary: dict[str, int]    # trigram -> dense column index
    idf: tuple[float, ...]        # by column
    n_docs: int

    def __post_init__(self):
        columns = self.vocabulary.values()
        if (not {int}.issuperset(map(type, columns))
                or sorted(columns) != list(range(len(columns)))):
            raise ValueError("vocabulary columns must be 0..|V|-1")
        if len(self.idf) != len(columns):
            raise ValueError(f"idf holds {len(self.idf)} weights for "
                             f"{len(columns)} tri-grams")


@dataclass(frozen=True)
class NormalizationParams:
    l_min: tuple[float, ...]
    l_max: tuple[float, ...]

    def __post_init__(self):
        if len(self.l_min) != N_LINGUISTIC or len(self.l_max) != N_LINGUISTIC:
            raise ValueError("normalization params must have 5 components")
        if any(lo > hi for lo, hi in zip(self.l_min, self.l_max)):
            raise ValueError("l_min must be <= l_max component-wise")


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


@dataclass(frozen=True)
class Featurizer:
    """Fitted featurizer: TF-IDF model plus linguistic normalizer."""

    tfidf: TfIdfModel
    norm: NormalizationParams

    @property
    def dim(self) -> int:
        return len(self.tfidf.vocabulary) + N_LINGUISTIC

    def featurize(self, payload: str) -> list[tuple[int, float]]:
        """The payload's feature row: (column, value) pairs, columns
        ascending, bit for bit its row of ``stack_dense``.

        Tri-gram ``t`` of the vocabulary gets ``(count / total) *
        idf[t]``, where ``total`` counts every tri-gram of the payload;
        linguistic count ``j`` is min-max scaled, clamped to [0, 1] (0
        when ``l_min == l_max``) and left out when 0.
        """
        grams, total, linguistic = count_payload(payload)
        vocabulary, idf = self.tfidf.vocabulary, self.tfidf.idf
        row = [(col, (c / total) * idf[col]) for t, c in grams.items()
               if (col := vocabulary.get(t)) is not None]
        row.sort()
        col = len(vocabulary)
        for v, lo, hi in zip(linguistic, self.norm.l_min, self.norm.l_max):
            if hi != lo:
                x = (v - lo) / (hi - lo)
                if x > 0.0:
                    row.append((col, x if x < 1.0 else 1.0))
            col += 1
        return row


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
    counted = [count_payload(p) for p in payloads]
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
    """Each linguistic count scaled as ``Featurizer.featurize`` scales
    it, by the same expressions, over rows of counts."""
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
