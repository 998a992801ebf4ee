"""Payload featurization: tri-gram TF-IDF plus linguistic counts.

A payload maps to a sparse vector of dimension |vocabulary| + 5: the
tri-gram TF-IDF block followed by five min-max-normalized linguistic
features (digits, consecutive digits, consecutive consonants, repeated
letters, vowels).

``count_batch`` is the one counter of tri-grams and linguistic features:
it counts a list of payloads at once with numpy, each tri-gram packed
into one integer.
Training and evaluation work on a whole corpus: ``tokenize`` counts it,
``fit_featurizer`` fits on any subset of its rows from those counts,
and ``stack_dense`` builds the ``FeatureBatch`` of any subset.  Replay
featurizes its sampled packets a batch at a time with
``Featurizer.featurize_batch``; ``Featurizer.featurize`` is the
one-row batch of a single payload.  Every path gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
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


def _unpack(codes: np.ndarray) -> list[str]:
    """The tri-gram strings of packed codes."""
    chars = np.empty((codes.shape[0], 3), dtype="<u4")
    chars[:, 0] = codes >> (2 * _BITS)
    chars[:, 1] = (codes >> _BITS) & _MASK
    chars[:, 2] = codes & _MASK
    text = chars.tobytes().decode("utf-32-le", "surrogatepass")
    return [text[i:i + 3] for i in range(0, len(text), 3)]


def _tally(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and how often each occurs."""
    keys = np.sort(keys)
    first = np.empty(keys.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return keys[starts], np.diff(starts, append=keys.shape[0])


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

    def featurize(self, payload: str) -> FeatureBatch:
        """The payload's feature row, as a one-row batch."""
        return self.featurize_batch([payload])

    @cached_property
    def _idf(self) -> np.ndarray:
        return np.array(self.tfidf.idf, dtype=float)

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """The packed codes of the vocabulary's tri-grams, ascending, and
        their columns, then a code above every tri-gram's, so that a
        ``searchsorted`` position is always in range."""
        vocabulary = self.tfidf.vocabulary
        grams = [t for t in vocabulary if len(t) == 3]
        chars = _code_points("".join(grams)).reshape(-1, 3)
        codes = _pack(chars[:, 0], chars[:, 1], chars[:, 2])
        order = np.argsort(codes)
        columns = np.fromiter(map(vocabulary.__getitem__, grams),
                              dtype=np.intp, count=len(grams))
        return (np.append(codes[order], np.iinfo(np.int64).max),
                np.append(columns[order], -1))

    def featurize_batch(self, payloads: Sequence[str]) -> FeatureBatch:
        """The feature rows of ``payloads``, in order.

        Tri-gram ``t`` of the vocabulary gets ``(count / total) *
        idf[t]``, where ``total`` counts every tri-gram of the payload;
        linguistic count ``j`` is min-max scaled, clamped to [0, 1] (0
        when ``l_min == l_max``) and left out when 0.  A row's values do
        not depend on the other payloads of the batch.
        """
        owner, codes, totals, linguistic = count_batch(payloads)
        known, columns = self._lookup
        # searchsorted runs several times faster on ascending needles
        order = np.argsort(codes)
        codes, owner = codes[order], owner[order]
        at = np.searchsorted(known, codes)
        hit = known[at] == codes
        keys, counts = _tally(owner[hit] * self.dim + columns[at[hit]])
        owner, cols = np.divmod(keys, self.dim)
        return _assemble(self, owner, cols, counts, totals, linguistic)


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
    n = len(payloads)
    owner, codes, totals, linguistic = count_batch(payloads)
    grams, _ = _tally(codes)
    size = max(grams.shape[0], 1)
    keys, counts = _tally(owner * size + np.searchsorted(grams, codes))
    rows, ids = np.divmod(keys, size)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return TokenizedCorpus(tuple(_unpack(grams)), indptr, ids, counts,
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
    """The payloads at ``rows`` (all by default), in that order, as one
    batch.  Row i holds bit for bit the row ``featurizer
    .featurize_batch`` gives the i-th payload: tri-grams outside the
    featurizer's vocabulary still count in the TF denominator."""
    rows = corpus.select(rows)
    if rows.shape[0] == 0:
        raise ValueError("no rows to stack")
    vocab = featurizer.tfidf.vocabulary
    column = np.fromiter(map(vocab.get, corpus.vocabulary, repeat(-1)),
                         dtype=np.intp, count=len(corpus.vocabulary))
    owner, ids, counts = corpus.entries(rows)
    cols = column[ids]
    known = cols >= 0
    return _assemble(featurizer, owner[known], cols[known], counts[known],
                     corpus.totals[rows], corpus.linguistic[rows])


def _assemble(featurizer: Featurizer, owner: np.ndarray, cols: np.ndarray,
              counts: np.ndarray, totals: np.ndarray,
              linguistic: np.ndarray) -> FeatureBatch:
    """The batch of rows whose known tri-grams are the entries (row,
    column, count), with each row's tri-gram total and raw linguistic
    counts, valued as ``Featurizer.featurize_batch`` defines."""
    n = totals.shape[0]
    tfidf = (counts / totals[owner]) * featurizer._idf[cols]
    ling = _normalize_rows(featurizer.norm, linguistic)
    ling_owner, j = np.nonzero(ling)
    owner = np.concatenate((owner, ling_owner))
    indices = np.concatenate((cols, len(featurizer.tfidf.vocabulary) + j))
    # sort each row by column: rows come in order, and so do the columns
    # within a row unless a model file numbered its vocabulary out of
    # order, so this is mostly one merge of two sorted runs
    order = np.argsort(owner * featurizer.dim + indices, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    return FeatureBatch(indptr, indices[order],
                        np.concatenate((tfidf, ling[ling_owner, j]))[order],
                        (n, featurizer.dim))
