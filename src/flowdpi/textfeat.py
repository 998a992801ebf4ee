"""Payload featurization: tri-gram TF-IDF plus linguistic counts.

A payload maps to a sparse vector of dimension |vocabulary| + 5: the
tri-gram TF-IDF block followed by five min-max-normalized linguistic
features (digits, consecutive digits, consecutive consonants, repeated
letters, vowels).

Every row is built along one path, each tri-gram packed into one int64
code (a string only in a model file): ``count_batch`` counts payloads
with numpy, ``tokenize`` gives each payload's distinct codes and their
counts, ``fit_featurizer`` keeps the codes of any subset of those rows,
and ``stack_dense`` builds the ``FeatureBatch`` of any subset, looking
each code up among the model's.  ``Featurizer.featurize_batch`` is
``stack_dense`` of ``tokenize``; ``Featurizer.featurize``, of one payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

N_LINGUISTIC = 5


# a tri-gram as one int64: its code points (each below 2**21) packed as
# c0 << 42 | c1 << 21 | c2, below 2**63, which sorts as the tri-gram
# strings sort
_BITS = 21
_MASK = (1 << _BITS) - 1

# by ASCII code, the class of a character of lower-case text
_DIGIT, _VOWEL, _CONSONANT = 1, 2, 3
_CLASS = np.zeros(128, dtype=np.uint8)
_CLASS[ord("0"):ord("9") + 1] = _DIGIT
_CLASS[ord("a"):ord("z") + 1] = _CONSONANT   # 'y' too
_CLASS[[ord(c) for c in "aeiou"]] = _VOWEL


def _code_points(text: str) -> np.ndarray:
    """The code points of ``text``, lone surrogates included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                         dtype="<u4")


def _pack(first: np.ndarray, second: np.ndarray,
          third: np.ndarray) -> np.ndarray:
    """Tri-gram codes from the code points of their three characters."""
    code = first.astype(np.int64) << (2 * _BITS)
    code |= second.astype(np.int64) << _BITS
    code |= third
    return code


def _pack_grams(grams: Sequence[str]) -> np.ndarray:
    """The packed codes of tri-gram strings, each of three characters."""
    chars = _code_points("".join(grams)).reshape(-1, 3)
    return _pack(chars[:, 0], chars[:, 1], chars[:, 2])


def _unpack(codes: np.ndarray) -> list[str]:
    """The tri-gram strings of packed codes."""
    chars = np.empty((codes.shape[0], 3), dtype="<u4")
    chars[:, 0] = codes >> (2 * _BITS)
    chars[:, 1] = (codes >> _BITS) & _MASK
    chars[:, 2] = codes & _MASK
    text = chars.tobytes().decode("utf-32-le", "surrogatepass")
    return [text[i:i + 3] for i in range(0, len(text), 3)]


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Which of the sorted ``keys`` differ from the one before."""
    first = np.empty(keys.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _in_runs(flags: np.ndarray) -> np.ndarray:
    """Which set flags have a set neighbour: the members of runs of two
    or more."""
    near = np.zeros_like(flags)
    near[1:] = flags[:-1]
    near[:-1] |= flags[1:]
    return flags & near


class BatchCounts(NamedTuple):
    """The counts of ``n`` payloads: ``codes`` holds every tri-gram of
    every payload, packed, in order, and ``owner`` the payload each
    belongs to; ``totals`` (the number of tri-grams) and ``linguistic``
    (the five linguistic counts) are by payload."""
    owner: np.ndarray
    codes: np.ndarray
    totals: np.ndarray
    linguistic: np.ndarray


def count_batch(payloads: Sequence[str]) -> BatchCounts:
    """The counts of each payload, by numpy over all of them: the
    payloads are joined with a NUL after each, which no tri-gram and no
    run of digits or consonants may cross.  The linguistic counts (ASCII
    only) are those of the ``str.lower`` forms, which may be longer (U+0130
    lowers to "i" and a dot) or hold ASCII letters (the Kelvin sign: "k")."""
    n = len(payloads)
    lengths = np.fromiter(map(len, payloads), dtype=np.intp, count=n)
    chars = _code_points("\0".join([*payloads, ""]))
    ends = np.cumsum(lengths + 1) - 1
    # tri-gram i starts at char i; the ones that hold a NUL end are out
    cut = np.zeros(chars.shape[0], dtype=bool)
    cut[ends] = True
    whole = ~(cut[:-2] | cut[1:-1] | cut[2:])
    codes = _pack(chars[:-2], chars[1:-1], chars[2:])[whole]
    totals = np.maximum(lengths - 2, 0).astype(np.int64)
    owner = np.repeat(np.arange(n), totals)

    lows = [payload.lower() for payload in payloads]
    chars = _code_points("\0".join([*lows, ""]))
    char_owner = np.repeat(np.arange(n), [len(low) + 1 for low in lows])
    cls = _CLASS[np.minimum(chars, 127)]
    digit, consonant = cls == _DIGIT, cls == _CONSONANT
    letter = cls >= _VOWEL   # a vowel or a consonant: a..z
    per_letter = np.bincount(
        char_owner[letter] * 26 + (chars[letter] - ord("a")),
        minlength=26 * n).reshape(n, 26)
    linguistic = np.empty((n, N_LINGUISTIC), dtype=np.int64)
    for j, flags in enumerate((digit, _in_runs(digit), _in_runs(consonant))):
        linguistic[:, j] = np.bincount(char_owner[flags], minlength=n)
    linguistic[:, 3] = np.count_nonzero(per_letter > 1, axis=1)
    linguistic[:, 4] = np.bincount(char_owner[cls == _VOWEL], minlength=n)
    return BatchCounts(owner, codes, totals, linguistic)


@dataclass(frozen=True, eq=False)
class TfIdfModel:
    """The tri-gram block: column ``j`` holds the tri-gram of packed code
    ``grams[j]`` (ascending in a fit; a model file may hold any order),
    weighted ``idf[j]``.  The model makes both arrays read-only."""

    grams: np.ndarray
    idf: np.ndarray
    n_docs: int

    def __post_init__(self):
        if self.grams.ndim != 1 or self.idf.shape != self.grams.shape:
            raise ValueError(f"tri-grams of shape {self.grams.shape} and idf "
                             f"of shape {self.idf.shape}: want one length")
        self.grams.flags.writeable = self.idf.flags.writeable = False


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
        return self.tfidf.grams.shape[0] + N_LINGUISTIC

    def featurize(self, payload: str) -> FeatureBatch:
        """The payload's feature row, as a one-row batch."""
        return self.featurize_batch([payload])

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """The model's tri-gram codes, ascending, and their columns, then
        a code above every tri-gram's, so that a ``searchsorted`` position
        is always in range."""
        order = np.argsort(self.tfidf.grams)
        return (np.append(self.tfidf.grams[order], np.iinfo(np.int64).max),
                np.append(order, -1))

    def featurize_batch(self, payloads: Sequence[str]) -> FeatureBatch:
        """The feature rows of ``payloads``, in order, valued as
        ``stack_dense`` defines."""
        return stack_dense(self, tokenize(payloads))


@dataclass(frozen=True, eq=False)
class TokenizedCorpus:
    """Each payload of a corpus counted once.

    ``grams`` holds the packed code of every tri-gram of the corpus,
    ascending.  Payload ``i`` owns the entries ``indptr[i]:indptr[i + 1]``
    of ``ids`` (its distinct tri-grams, as ascending positions in
    ``grams``) and ``counts`` (how often each occurs); ``totals[i]`` is
    its number of tri-grams and ``linguistic[i]`` its five raw linguistic
    counts.
    """

    grams: np.ndarray
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
    n = len(payloads)
    owner, codes, totals, linguistic = count_batch(payloads)
    # one sort finds the distinct tri-grams and the id of each occurrence
    order = np.argsort(codes)
    first = _firsts(codes[order])
    grams = codes[order[first]]
    gram_ids = np.empty_like(order)
    gram_ids[order] = np.cumsum(first) - 1
    size = max(grams.shape[0], 1)
    keys = np.sort(owner * size + gram_ids)
    starts = np.flatnonzero(_firsts(keys))
    counts = np.diff(starts, append=keys.shape[0])
    keys = keys[starts]
    indptr = np.searchsorted(keys, np.arange(n + 1) * size)
    return TokenizedCorpus(grams, indptr, keys % size, counts, totals,
                           linguistic)


def fit_featurizer(corpus: TokenizedCorpus, rows=None) -> Featurizer:
    """Fit on the payloads at ``rows`` (all by default): the columns are
    their tri-grams in ascending order, with smoothed IDF weights

        idf[t] = ln((1 + n_docs) / (1 + df(t))) + 1,

    and the normalizer holds the min and max of each linguistic count.
    """
    rows = corpus.select(rows)
    n = rows.shape[0]
    if n == 0:
        raise ValueError("cannot fit a featurizer on an empty corpus")
    _, ids, _ = corpus.entries(rows)
    df = np.bincount(ids, minlength=corpus.grams.shape[0])
    present = np.flatnonzero(df)
    # math.log, not np.log, whose SIMD loops may round otherwise
    idf = np.array([math.log((1 + n) / (1 + d)) + 1.0
                    for d in df[present].tolist()], dtype=float)
    ling = corpus.linguistic[rows]
    norm = NormalizationParams(tuple(map(float, ling.min(axis=0).tolist())),
                               tuple(map(float, ling.max(axis=0).tolist())))
    return Featurizer(TfIdfModel(corpus.grams[present], idf, n), norm)


def _normalize_rows(params: NormalizationParams,
                    counts: np.ndarray) -> np.ndarray:
    """Each linguistic count of rows of counts min-max scaled and
    clamped to [0, 1], or 0 where ``l_min == l_max``."""
    lo = np.array(params.l_min, dtype=float)
    hi = np.array(params.l_max, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = (counts - lo) / (hi - lo)
    scaled = np.where(scaled > 0.0, scaled, 0.0)    # max(0.0, x)
    scaled = np.where(scaled < 1.0, scaled, 1.0)    # min(1.0, x)
    return np.where(hi == lo, 0.0, scaled)


def stack_dense(featurizer: Featurizer, corpus: TokenizedCorpus,
                rows=None) -> FeatureBatch:
    """The feature rows of the payloads at ``rows`` (all by default), in
    that order.

    Tri-gram ``t`` of the vocabulary gets ``(count / total) * idf[t]``,
    where ``total`` counts every tri-gram of the payload, those outside
    the vocabulary too; linguistic count ``j`` is min-max scaled,
    clamped to [0, 1] (0 when ``l_min == l_max``) and left out when 0.
    A row's values do not depend on the other rows of the batch.
    """
    rows = corpus.select(rows)
    n = rows.shape[0]
    if n == 0:
        raise ValueError("no rows to stack")
    known, columns = featurizer._lookup
    at = np.searchsorted(known, corpus.grams)
    column = np.where(known[at] == corpus.grams, columns[at], -1)
    owner, ids, counts = corpus.entries(rows)
    cols = column[ids]
    hit = cols >= 0
    owner, cols, counts = owner[hit], cols[hit], counts[hit]
    tfidf = counts / corpus.totals[rows[owner]] * featurizer.tfidf.idf[cols]
    ling = _normalize_rows(featurizer.norm, corpus.linguistic[rows])
    ling_owner, j = np.nonzero(ling)
    owner = np.concatenate((owner, ling_owner))
    indices = np.concatenate((cols, featurizer.tfidf.grams.shape[0] + j))
    # sort each row by column: rows come in order, and so do the columns
    # within a row unless a model file holds its tri-grams out of order,
    # so this is mostly one merge of two sorted runs
    order = np.argsort(owner * featurizer.dim + indices, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    return FeatureBatch(indptr, indices[order],
                        np.concatenate((tfidf, ling[ling_owner, j]))[order],
                        (n, featurizer.dim))
