import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from flowdpi import textfeat
from flowdpi.textfeat import (Featurizer, NormalizationParams, TfIdfModel,
                              count_batch, fit_featurizer, stack_dense,
                              tokenize)
from reference import LinguisticFeatures, row, trigrams

PAYLOAD_A = "/starnet/addons/slideshow_full.php?album_name=288150554"
PAYLOAD_B = "/tests/numbertotexttest.php"


def fit(corpus):
    return fit_featurizer(tokenize(corpus))


def fit_tfidf(corpus):
    return fit(corpus).tfidf


def tfidf_block(featurizer, payload):
    """The tri-gram entries of the payload's feature row, which must be
    the oracle's ``transform_tfidf`` pairs."""
    n_vocab = len(featurizer.tfidf.vocabulary)
    block = [(i, v) for i, v in row(featurizer.featurize(payload), 0)
             if i < n_vocab]
    assert block == reference.transform_tfidf(featurizer.tfidf, payload)
    return block


def linguistic_features(payload):
    """The counter's five linguistic counts, which must be the oracle's."""
    oracle = reference.linguistic_features(payload)
    assert tuple(count_batch([payload]).linguistic[0].tolist()) == \
        oracle.as_tuple()
    return oracle


def normalize(params, features):
    """The oracle's scaled counts, which ``stack_dense`` must give too."""
    out = reference.normalize(params, features)
    rows = textfeat._normalize_rows(params, np.array([features.as_tuple()]))
    assert rows.tobytes() == np.array([out]).tobytes()
    return out


class TestTrigrams:
    def test_worked_example(self):
        expected = ['/ja', 'jav', 'ava', 'vas', 'asc', 'scr', 'cri', 'rip',
                    'ipt', 'pt/', 't/d', '/de', 'deb', 'ebu', 'bug', 'ug.',
                    'g.e', '.ex', 'exe']
        assert trigrams("/javascript/debug.exe") == expected

    def test_short_payload_empty(self):
        assert trigrams("ab") == []
        assert trigrams("") == []

    def test_overlap_keeps_duplicates(self):
        assert trigrams("aaaa") == ["aaa", "aaa"]

    @given(st.text(max_size=60))
    def test_count_property(self, payload):
        assert len(trigrams(payload)) == max(0, len(payload) - 2)


class TestTfIdf:
    def test_single_trigram_corpus(self):
        model = fit_tfidf(["abc", "abc"])
        assert model.vocabulary == {"abc": 0}
        assert model.idf[0] == pytest.approx(math.log(3 / 3) + 1)

    def test_document_frequency_weighting(self):
        model = fit_tfidf(["abcd", "abce"])
        assert model.idf[model.vocabulary["abc"]] == pytest.approx(1.0)
        assert model.idf[model.vocabulary["bcd"]] == pytest.approx(
            math.log(3 / 2) + 1)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_tfidf([])

    def test_transform_values(self):
        f = fit(["abcd", "abce"])
        model = f.tfidf
        pairs = dict(tfidf_block(f, "abcd"))
        assert pairs[model.vocabulary["abc"]] == pytest.approx(0.5 * 1.0)
        assert pairs[model.vocabulary["bcd"]] == pytest.approx(
            0.5 * (math.log(3 / 2) + 1))

    def test_transform_edge_cases(self):
        f = fit(["abcd"])
        assert tfidf_block(f, "zz") == []
        assert tfidf_block(f, "xyzw") == []

    def test_vocabulary_sorted_and_dense(self):
        model = fit_tfidf(["beta", "alpha"])
        grams = sorted(model.vocabulary)
        assert [model.vocabulary[g] for g in grams] == list(range(len(grams)))


def _brute_force_tfidf(corpus, payload):
    """Dense TF-IDF oracle computed from the plain definitions."""
    all_grams = sorted({g for doc in corpus for g in trigrams(doc)})
    n = len(corpus)
    dense = [0.0] * len(all_grams)
    grams = trigrams(payload)
    for j, g in enumerate(all_grams):
        df = sum(1 for doc in corpus if g in trigrams(doc))
        idf = math.log((1 + n) / (1 + df)) + 1
        if grams:
            dense[j] = (grams.count(g) / len(grams)) * idf
    return all_grams, dense


corpus_st = st.lists(st.text(alphabet=st.characters(min_codepoint=32,
                                                    max_codepoint=126),
                             max_size=25),
                     min_size=1, max_size=20)


@given(corpus_st, st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_transform_matches_dense_oracle(corpus, pick):
    f = fit(corpus)
    model = f.tfidf
    payload = corpus[pick % len(corpus)]
    grams, dense = _brute_force_tfidf(corpus, payload)
    sparse = dict(tfidf_block(f, payload))
    for j, g in enumerate(grams):
        assert abs(sparse.get(model.vocabulary[g], 0.0) - dense[j]) < 1e-12


class TestLinguisticFeatures:
    def test_table_payload_a(self):
        f = linguistic_features(PAYLOAD_A)
        assert f.n_digits == 9
        assert f.n_consecutive_digits == 9
        assert f.n_consecutive_consonants == 19
        assert f.n_repeated_letters == 12
        assert f.n_vowels == 12

    def test_table_payload_b(self):
        f = linguistic_features(PAYLOAD_B)
        assert f.n_digits == 0
        assert f.n_consecutive_digits == 0
        assert f.n_consecutive_consonants == 15
        assert f.n_repeated_letters == 4     # t, e, s, p
        assert f.n_vowels == 6

    def test_empty_payload(self):
        assert linguistic_features("").as_tuple() == (0, 0, 0, 0, 0)

    def test_isolated_digit_not_a_run(self):
        f = linguistic_features("a1b22c")
        assert f.n_digits == 3
        assert f.n_consecutive_digits == 2

    def test_case_insensitive_and_y_is_consonant(self):
        f = linguistic_features("TRY")
        assert f.n_consecutive_consonants == 3
        assert f.n_vowels == 0

    @given(st.text(max_size=60))
    def test_count_bounds(self, payload):
        f = linguistic_features(payload)
        assert f.n_consecutive_digits <= f.n_digits
        assert all(v <= len(payload) for v in f.as_tuple())


class TestNormalization:
    def test_fit_two_rows(self):
        # PAYLOAD_A counts (9, 9, 19, 12, 12), PAYLOAD_B (0, 0, 15, 4, 6)
        params = fit([PAYLOAD_A, PAYLOAD_B]).norm
        assert params.l_min == (0, 0, 15, 4, 6)
        assert params.l_max == (9, 9, 19, 12, 12)

    def test_single_row_degenerate(self):
        params = fit(["/abc123"]).norm
        assert params.l_min == params.l_max

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit([])

    def test_endpoints_and_midpoint(self):
        params = NormalizationParams((0,) * 5, (10,) * 5)
        lo = normalize(params, LinguisticFeatures(0, 0, 0, 0, 0))
        hi = normalize(params, LinguisticFeatures(10, 10, 10, 10, 10))
        mid = normalize(params, LinguisticFeatures(4, 4, 4, 4, 4))
        assert lo == (0.0,) * 5 and hi == (1.0,) * 5
        assert mid == (0.4,) * 5

    def test_out_of_range_clamped(self):
        params = NormalizationParams((0,) * 5, (10,) * 5)
        out = normalize(params, LinguisticFeatures(15, 0, 0, 0, 0))
        assert out[0] == 1.0

    def test_constant_feature_maps_to_zero(self):
        params = NormalizationParams((3,) * 5, (3,) * 5)
        out = normalize(params, LinguisticFeatures(3, 3, 3, 3, 3))
        assert out == (0.0,) * 5


class TestFeaturize:
    def test_linguistic_block_occupies_tail(self):
        f = fit(["/abc123", "/def456789"])
        pairs = row(f.featurize("/abc123"), 0)
        n_vocab = len(f.tfidf.vocabulary)
        assert f.dim == n_vocab + 5
        tail = [i for i, _ in pairs if i >= n_vocab]
        for i, v in pairs:
            if i >= n_vocab:
                assert 0.0 <= v <= 1.0
        assert tail   # digits present, so at least one linguistic entry

    def test_empty_payload_has_no_trigram_entries(self):
        f = fit(["/abc123"])
        X = f.featurize("")
        assert X.shape == (1, f.dim)
        assert all(i >= len(f.tfidf.vocabulary) for i, _ in row(X, 0))

    def test_deterministic(self):
        f = fit(["/abc", "/def"])
        assert row(f.featurize("/abc"), 0) == row(f.featurize("/abc"), 0)

    def test_order_independent_of_corpus_iteration(self):
        a = fit(["/abc", "/def"])
        b = fit(["/def", "/abc"])
        assert a.tfidf.vocabulary == b.tfidf.vocabulary
        assert row(a.featurize("/abc"), 0) == row(b.featurize("/abc"), 0)

    def test_dense_oracle_equality(self):
        corpus = ["/abc123", "/def456", "/abcdef9"]
        f = fit(corpus)
        for payload in corpus:
            dense = reference.dense(f.featurize(payload))[0]
            n_vocab = len(f.tfidf.vocabulary)
            _, oracle = _brute_force_tfidf(corpus, payload)
            assert np.allclose(dense[:n_vocab], oracle, atol=1e-12)
            ling = normalize(f.norm, linguistic_features(payload))
            assert np.allclose(dense[n_vocab:], ling)

    def test_stack_dense(self):
        f = fit(["/abc", "/def"])
        X = stack_dense(f, tokenize(["/abc", "/def"]))
        assert X.shape == (2, f.dim)
        assert X.nbytes == X.indptr.nbytes + X.indices.nbytes + X.data.nbytes


_texts = (st.text(alphabet=st.sampled_from("ab1/ é٣"), max_size=12)
          | st.text(max_size=12))


def _bits(pairs):
    return [(col, value.hex()) for col, value in pairs]


def _assert_batch_rows(X, featurizer, payloads):
    """Row r of ``X`` holds the oracle's ``featurize(payloads[r])``, bit
    for bit, and so does the payload's one-row ``featurize``: columns
    strictly ascending, linguistic ones last, no zero."""
    assert X.shape == (len(payloads), featurizer.dim)
    assert X.indptr[0] == 0 and X.indptr[-1] == X.data.shape[0]
    for r, payload in enumerate(payloads):
        want = _bits(reference.featurize(featurizer, payload))
        assert _bits(row(X, r)) == want
        assert _bits(row(featurizer.featurize(payload), 0)) == want
    assert np.all(X.data != 0.0)


@given(st.lists(_texts, min_size=1, max_size=15),
       st.lists(_texts, max_size=6), st.data())
@settings(max_examples=200, deadline=None)
def test_batch_path_matches_per_payload_featurize(corpus, unseen, data):
    """Fitting on any rows of a tokenized corpus gives the featurizer the
    old string fit gives, and every ``stack_dense`` row is bit for bit the
    oracle's ``featurize(...)`` and, made dense, the dense oracle's row;
    ``unseen`` payloads, outside the fitted rows, bring tri-grams the
    vocabulary lacks."""
    payloads = corpus + unseen
    tokenized = tokenize(payloads)
    n = len(corpus)
    fit_rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                  max_size=n, unique=True))
    f = fit_featurizer(tokenized, fit_rows)
    assert f == reference.fit_featurizer([payloads[i] for i in fit_rows])
    rows = data.draw(st.lists(st.integers(0, len(payloads) - 1),
                              min_size=1, max_size=20))
    X = stack_dense(f, tokenized, rows)
    assert reference.dense(X).tobytes() == reference.stack_dense(
        [reference.featurize(f, payloads[i]) for i in rows],
        f.dim).tobytes()
    _assert_batch_rows(X, f, [payloads[i] for i in rows])
    if unseen:   # a corpus tokenized apart from the fit, as in eval
        _assert_batch_rows(stack_dense(f, tokenize(unseen)), f, unseen)


# what the packed counter must split, lower and count as str does: empty
# and one- or two-character payloads, "İ" (lower case "i" and a combining
# dot), the Kelvin sign (lower case "k"), an astral character, NUL and
# lone surrogates, which a JSON corpus may hold
_odd_texts = st.text(alphabet=st.sampled_from(
    ["a", "B", "y", "7", "/", "\u0130", "\u212a", "\U0001f600", "\x00",
     "\ud800", "\udfff", "\u00df"]), max_size=8) | _texts


def _assert_same_corpus(got, expected):
    assert got.vocabulary == expected.vocabulary
    for name in ("indptr", "ids", "counts", "totals", "linguistic"):
        a, b = getattr(got, name), getattr(expected, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                   b.tobytes()), name


@given(st.lists(_odd_texts, max_size=12), st.lists(_odd_texts, max_size=12))
@example(["", "a", "ab", "abc", "\u0130\u0130", "\u212a\u212ak"],
         ["\ud800ab", "\U0001f600\x00\x00", "ABa"])
@settings(max_examples=300, deadline=None)
def test_packed_counter_matches_the_per_payload_counter(corpus, packets):
    """``tokenize`` gives the corpus of the per-payload counter, and
    ``featurize_batch`` gives each payload's oracle row, bit for bit."""
    tokenized = tokenize(corpus)
    _assert_same_corpus(tokenized, reference.tokenize(corpus))
    if corpus:
        f = fit_featurizer(tokenized)
        _assert_batch_rows(f.featurize_batch(packets + corpus), f,
                           packets + corpus)


@given(st.lists(st.text(alphabet=st.sampled_from(
    ["a", "K", "s", "y", "7", " ", "\u212a", "\u0130", "\u00df", "\ud800",
     "\x00"]), max_size=8), min_size=1, max_size=12))
@example(["K\u212ak", "\u0130i\u0130", "ss\u00dfS", "a\ud800a", "77\x0077",
          "plain ascii 42"])
@settings(max_examples=300, deadline=None)
def test_count_batch_counts_each_payload_lowered(payloads):
    """In a batch that mixes ASCII with characters that lower to ASCII
    letters, to two characters or not at all, each row holds the
    oracle's linguistic counts of its payload."""
    assert count_batch(payloads).linguistic.tolist() == [
        list(reference.linguistic_features(p).as_tuple()) for p in payloads]


def test_featurize_batch_skips_vocabulary_keys_that_are_not_trigrams():
    """A model file may hold keys of any length; only tri-grams match."""
    f = Featurizer(TfIdfModel({"ab": 0, "abc": 1, "abcd": 2, "": 3},
                              (1.0, 2.0, 3.0, 4.0), 2),
                   NormalizationParams((0.0,) * 5, (4.0,) * 5))
    payloads = ["abcd", "ab", "", "xabc"]
    _assert_batch_rows(f.featurize_batch(payloads), f, payloads)


def test_batch_rows_sorted_under_any_vocabulary_numbering():
    """A model file may number its vocabulary in any order; each row's
    columns still ascend."""
    payloads = [PAYLOAD_A, PAYLOAD_B, "/abc123"]
    f = fit(payloads)
    shuffled = list(f.tfidf.vocabulary)[::-1]
    g = Featurizer(TfIdfModel({t: i for i, t in enumerate(shuffled)},
                              tuple(f.tfidf.idf[f.tfidf.vocabulary[t]]
                                    for t in shuffled), f.tfidf.n_docs),
                   f.norm)
    _assert_batch_rows(stack_dense(g, tokenize(payloads)), g, payloads)
    _assert_batch_rows(g.featurize_batch(payloads), g, payloads)


@pytest.mark.parametrize("vocabulary, idf", [
    ({"abc": 0, "bcd": -1}, (1.0, 1.0)),    # would index from the end
    ({"abc": 0, "bcd": 2}, (1.0, 1.0)),     # a gap
    ({"abc": 1, "bcd": 1}, (1.0, 1.0)),     # a repeat
    ({"abc": 0, "bcd": 1.0}, (1.0, 1.0)),   # not an integer
    ({"abc": 0, "bcd": True}, (1.0, 1.0)),
    ({"abc": 0, "bcd": 1}, (1.0,)),         # idf too short
    ({"abc": 0}, (1.0, 1.0)),               # idf too long
])
def test_featurizer_rejects_bad_vocabulary(vocabulary, idf):
    """The featurizer indexes arrays by column, so the columns must be
    0..|V|-1 with one idf weight each; a bad model fails when built."""
    with pytest.raises(ValueError):
        Featurizer(TfIdfModel(vocabulary, idf, 2),
                   NormalizationParams((0.0,) * 5, (1.0,) * 5))


def test_stack_dense_rejects_no_rows():
    f = fit(["/abc"])
    with pytest.raises(ValueError):
        stack_dense(f, tokenize(["/abc"]), [])


def test_featurizer_persistence_round_trip(tmp_path):
    from flowdpi.persistence import featurizer_from_dict, featurizer_to_dict
    import json
    f = fit([PAYLOAD_A, PAYLOAD_B, "/abc123"])
    doc = json.dumps(featurizer_to_dict(f))
    g = featurizer_from_dict(json.loads(doc))
    assert g.tfidf.vocabulary == f.tfidf.vocabulary
    assert g.tfidf.idf == f.tfidf.idf        # bit-exact floats
    assert g.norm == f.norm
    assert row(g.featurize(PAYLOAD_A), 0) == row(f.featurize(PAYLOAD_A), 0)
