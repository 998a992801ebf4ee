"""Acceptance suite: one test per release criterion.

Each test validates its criterion against an independent oracle written
in straight-line style (no shared code with the package) and prints a
single ``[acceptance] Cn ...: PASS`` line on success (run with ``-s`` to
see the lines as they happen).
"""

import contextlib
import json
import math
import pathlib
import time

import numpy as np

from flowdpi import logistic, metrics, textfeat, tree
from flowdpi.blacklist import load_blacklist
from flowdpi.engine import Engine, EngineConfig
from flowdpi.flows import packet_to_json_line
from flowdpi.sampler import SamplerConfig, trace
from flowdpi.textfeat import (count_batch, fit_featurizer, stack_dense,
                              tokenize)
import reference
from synth import (benign_payload, labeled_corpus, malicious_payload,
                   separable_blobs)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@contextlib.contextmanager
def criterion(tag: str, description: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] {tag} {description}: FAIL")
        raise
    print(f"[acceptance] {tag} {description}: PASS")


# --- C1: independent sampler oracle -----------------------------------

def _oracle_trace(deltas, w_min=5, w_max=15, hist_len=10, growth=5):
    """Straight-line re-derivation of the adaptive window loop: one
    (w, delta, predicted, dw_next) row per window, the last two None
    while fewer than three samples are recorded."""
    hist = []
    w = w_min
    rows = []
    for raw in deltas:
        d = max(0, min(int(raw), w))
        hist.append((w, d))
        if len(hist) > hist_len:
            hist.pop(0)
        if len(hist) < 3:
            rows.append((w, d, None, None))
            w = w_min
            continue
        dw = hist[-1][0] - hist[-2][0]
        total, kept = 0.0, 0
        for i in range(len(hist) - 2):
            wa, da = hist[i]
            wb, db = hist[i + 1]
            if wb != wa:
                total += (db - da) / (wb - wa)
                kept += 1
        d_n = hist[-2][1]
        pred = d_n + dw * (total / kept) if kept else float(d_n)
        actual = float(d)
        if actual == d_n:
            dwn = float(growth) if dw == 0 else -dw / 2.0
        elif pred == actual:
            dwn = 0.0
        elif dw == 0:
            dwn = float(growth)
        else:
            ratio = (pred - d_n) / (actual - d_n)
            dwn = -(1.0 if pred > actual else -1.0) * abs(ratio * dw)
        rows.append((w, d, pred, dwn))
        x = w + dwn
        rounded = math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)
        w = max(w_min, min(w_max, int(rounded)))
    return rows


def test_c1_sampler_matches_independent_oracle():
    with criterion("C1", "sampler oracle equivalence, 1000 random traces"):
        rng = np.random.default_rng(100)
        start = time.monotonic()
        cfg = SamplerConfig()
        for _ in range(1000):
            deltas = rng.integers(0, 16,
                                  size=int(rng.integers(1, 51))).tolist()
            got = [(r.w, r.delta, r.predicted, r.dw_next)
                   for r in trace(cfg, deltas)]
            assert got == _oracle_trace(deltas)
        assert time.monotonic() - start < 5.0


def test_c1_hand_trace():
    with criterion("C1", "hand trace w=[5,7,9] d=[1,2,4]"):
        from flowdpi.sampler import next_window, predict_next, window_delta
        cfg = SamplerConfig()
        history = [(5, 1), (7, 2), (9, 4)]
        predicted = predict_next(history, 9 - 7)
        assert predicted == 3.0
        dw_next = window_delta(history, predicted, 4)
        assert dw_next == 1.0
        assert next_window(9, dw_next, cfg) == 10


# --- C2: window bound invariant ---------------------------------------

def test_c2_window_bounds_over_random_steps():
    with criterion("C2", "10000 random steps stay within [w_min, w_max]"):
        rng = np.random.default_rng(200)
        cfg = SamplerConfig()
        from flowdpi.sampler import AdaptiveSampler
        sampler = AdaptiveSampler(cfg)
        for _ in range(10000):
            d = int(rng.integers(0, sampler.current_window + 1))
            sampler.step(d)
            assert cfg.w_min <= sampler.current_window <= cfg.w_max


def test_c2_growth_branch_strictly_increases():
    with criterion("C2", "equal-delta/equal-window branch grows to clamp"):
        from flowdpi.sampler import AdaptiveSampler
        cfg = SamplerConfig()
        for d in range(0, 6):
            sampler = AdaptiveSampler(cfg)
            prev = cfg.w_min
            sampler.step(d)
            sampler.step(d)
            for _ in range(10):
                # keep feeding the same count while the window is flat;
                # this only exercises the growth branch right after a
                # flat pair, so step until the clamp is reached
                sampler.step(min(d, sampler.current_window))
                w = sampler.current_window
                if prev < cfg.w_max and sampler.history[-1][0] == \
                        sampler.history[-2][0] and \
                        sampler.history[-1][1] == sampler.history[-2][1]:
                    assert w > prev or w == cfg.w_max
                prev = w
            assert prev <= cfg.w_max


# --- C3: trigram calibration ------------------------------------------

def test_c3_trigram_list():
    with criterion("C3", "19 trigrams of /javascript/debug.exe"):
        expected = ["/ja", "jav", "ava", "vas", "asc", "scr", "cri",
                    "rip", "ipt", "pt/", "t/d", "/de", "deb", "ebu",
                    "bug", "ug.", "g.e", ".ex", "exe"]
        assert reference.trigrams("/javascript/debug.exe") == expected
        assert len(expected) == 19
        # the package's counter finds the same tri-grams
        corpus = tokenize(["/javascript/debug.exe"])
        assert textfeat._unpack(corpus.grams) == sorted(set(expected))
        assert corpus.totals.tolist() == [19]


# --- C4: linguistic feature calibration -------------------------------

def test_c4_linguistic_calibration():
    with criterion("C4", "reference payload feature counts (deviation 0)"):
        payload_a = "/starnet/addons/slideshow_full.php?album_name=288150554"
        payload_b = "/tests/numbertotexttest.php"
        a = reference.linguistic_features(payload_a)
        assert a.n_digits == 9
        assert a.n_consecutive_digits == 9
        b = reference.linguistic_features(payload_b)
        assert b.n_digits == 0
        assert b.n_consecutive_digits == 0
        assert b.n_repeated_letters == 4
        # remaining columns reproduce the reference values exactly, so
        # the allowed deviation (<= 2 counts) is zero in practice
        assert a.as_tuple() == (9, 9, 19, 12, 12)
        assert b.as_tuple() == (0, 0, 15, 4, 6)
        # the package's counter gives the oracle's counts
        counts = count_batch([payload_a, payload_b]).linguistic.tolist()
        assert counts == [list(a.as_tuple()), list(b.as_tuple())]


# --- C5: tf-idf oracle ------------------------------------------------

def _dense_tfidf(corpus, docs):
    """Brute-force tf-idf against a dictionary vocabulary."""
    def grams(s):
        return [s[i:i + 3] for i in range(len(s) - 2)]

    doc_grams = [set(grams(doc)) for doc in corpus]
    vocab = sorted(set().union(*doc_grams))
    n = len(corpus)
    idf = []
    for g in vocab:
        df = sum(1 for present in doc_grams if g in present)
        idf.append(math.log((1 + n) / (1 + df)) + 1.0)
    out = np.zeros((len(docs), len(vocab)))
    for r, doc in enumerate(docs):
        gs = grams(doc)
        if not gs:
            continue
        for c, g in enumerate(vocab):
            out[r, c] = gs.count(g) / len(gs) * idf[c]
    return out


def test_c5_tfidf_against_dense_oracle():
    with criterion("C5", "sparse tf-idf matches dense oracle, 100 corpora"):
        rng = np.random.default_rng(500)
        alphabet = list("abcdefgh/._?=0123456789")
        start = time.monotonic()
        for _ in range(100):
            corpus = ["".join(rng.choice(alphabet,
                                         size=int(rng.integers(0, 41))))
                      for _ in range(int(rng.integers(1, 51)))]
            docs = corpus + ["".join(rng.choice(alphabet, size=12))
                             for _ in range(5)]
            featurizer = fit_featurizer(tokenize(corpus))
            n_vocab = len(featurizer.tfidf.vocabulary)
            dense = _dense_tfidf(corpus, docs)
            for r, doc in enumerate(docs):
                vec = np.zeros(n_vocab)
                for idx, value in reference.row(featurizer.featurize(doc),
                                                0):
                    if idx < n_vocab:   # the tri-gram block
                        vec[idx] = value
                if dense.size:
                    assert np.max(np.abs(vec - dense[r])) <= 1e-12
        assert time.monotonic() - start < 10.0


# --- C6: gradient check -----------------------------------------------

def test_c6_gradient_finite_differences():
    with criterion("C6", "logistic gradient vs central differences"):
        rng = np.random.default_rng(600)
        for _ in range(100):
            d = int(rng.integers(1, 21))
            n = int(rng.integers(2, 30))
            X = reference.batch(rng.normal(size=(n, d)))
            y = rng.integers(0, 2, size=n)
            lam = float(rng.uniform(0, 2))
            model = logistic.LogisticModel(rng.normal(size=d),
                                           float(rng.normal()), lam)
            _, grad_w, grad_b = logistic.loss_grad(model, X, y)
            h = 1e-6
            full = np.concatenate([grad_w, [grad_b]])
            fd = np.empty(d + 1)
            for j in range(d + 1):
                wp, bp = model.weights.copy(), model.bias
                wm, bm = model.weights.copy(), model.bias
                if j < d:
                    wp[j] += h
                    wm[j] -= h
                else:
                    bp += h
                    bm -= h
                lp, _, _ = logistic.loss_grad(
                    logistic.LogisticModel(wp, bp, lam), X, y)
                lm, _, _ = logistic.loss_grad(
                    logistic.LogisticModel(wm, bm, lam), X, y)
                fd[j] = (lp - lm) / (2 * h)
            rel = np.abs(full - fd) / np.maximum(1.0, np.abs(fd))
            assert np.max(rel) < 1e-5


# --- C7: separable-data sanity ----------------------------------------

def test_c7_separable_sanity():
    with criterion("C7", "LR >= 99% on blobs; tree 100% on distinct rows"):
        X, y = separable_blobs(np.random.default_rng(700), n=200)
        X = reference.batch(X)
        model, info = logistic.train(X, y, logistic.LogisticHyper(lam=0.01))
        assert info.n_iter <= 5000
        scores = logistic.predict_proba(model, X)
        assert float(np.mean((scores >= 0.5) == y)) >= 0.99

        rng = np.random.default_rng(701)
        Xt = rng.normal(size=(200, 4))
        assert np.unique(Xt, axis=0).shape[0] == 200
        yt = rng.integers(0, 2, size=200)
        if yt.min() == yt.max():
            yt[0] = 1 - yt[0]
        tmodel = tree.train(Xt, yt, tree.TreeHyper(max_depth=10 ** 9))
        assert np.array_equal(tree.predict(tmodel, Xt), yt)


# --- C8: metrics oracle -----------------------------------------------

def _pairwise_auc(y, scores):
    pos = scores[y == 1]
    neg = scores[y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def test_c8_metrics_against_recount():
    with criterion("C8", "threshold metrics recounted on 1000 vectors"):
        rng = np.random.default_rng(800)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            y = rng.integers(0, 2, size=n)
            pred = rng.integers(0, 2, size=n)
            cm = metrics.confusion(y, pred)
            tp = int(np.sum((y == 1) & (pred == 1)))
            fp = int(np.sum((y == 0) & (pred == 1)))
            tn = int(np.sum((y == 0) & (pred == 0)))
            fn = int(np.sum((y == 1) & (pred == 0)))
            assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)
            m = metrics.metrics(cm)
            assert m.accuracy == ((tp + tn) / n)
            assert m.precision == (tp / (tp + fp) if tp + fp else 0.0)
            assert m.recall == (tp / (tp + fn) if tp + fn else 0.0)
            assert m.fpr == (fp / (fp + tn) if fp + tn else 0.0)


def test_c8_auc_matches_pairwise_estimator():
    with criterion("C8", "trapezoidal AUC equals pairwise estimator"):
        rng = np.random.default_rng(801)
        for _ in range(60):
            n = int(rng.integers(4, 201))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            scores = np.round(rng.random(size=n), 2)  # force ties
            _, auc = metrics.roc_curve(y, scores)
            assert abs(auc - _pairwise_auc(y, scores)) <= 1e-9


def test_c8_worked_confusion_case():
    with criterion("C8", "tp=3 fp=1 tn=5 fn=1 worked case"):
        m = metrics.metrics(metrics.ConfusionMatrix(tp=3, fp=1, tn=5, fn=1))
        assert (m.accuracy, m.precision, m.recall, m.f1) == \
            (0.8, 0.75, 0.75, 0.75)


# --- C9: stratified k-fold --------------------------------------------

def test_c9_stratified_fold_proportions():
    with criterion("C9", "per-fold class proportions within one sample"):
        rng = np.random.default_rng(900)
        for _ in range(50):
            n = int(rng.integers(20, 300))
            p = float(rng.uniform(0.05, 0.5))
            y = (rng.random(n) < p).astype(int)
            if y.sum() < 5:
                y[:5] = 1
            folds = metrics.stratified_kfold(y, 5, seed=int(rng.integers(
                0, 2 ** 31)))
            assert sorted(np.concatenate(folds)) == list(range(n))
            for fold in folds:
                got_pos = int(y[fold].sum())
                expect_pos = len(fold) * y.sum() / n
                assert abs(got_pos - expect_pos) <= 1.0


# --- C10: end-to-end replay -------------------------------------------

def _build_stream(rng):
    lines = []
    attack_flows = {3, 5, 8}
    blacklisted = {0, 1}
    for i in range(10):
        payloads = [benign_payload(rng) for _ in range(300)]
        if i in attack_flows:
            pos = int(rng.integers(0, 5))   # inside the sampled window
            payloads[pos] = malicious_payload(rng)
        for j, p in enumerate(payloads):
            lines.append(packet_to_json_line(
                f"172.16.0.{i}", 40000 + i, "172.16.9.9", 80, "TCP",
                float(len(lines)), p))
    return lines, [f"172.16.0.{i}" for i in blacklisted]


def test_c10_end_to_end_replay():
    with criterion("C10", "10x300 replay: 2 blacklist + 3 payload blocks"):
        start = time.monotonic()
        rng = np.random.default_rng(1000)
        payloads, y = labeled_corpus(rng, 200, 100)
        corpus = tokenize(payloads)
        featurizer = fit_featurizer(corpus)
        X = stack_dense(featurizer, corpus)
        model, _ = logistic.train(X, y, logistic.LogisticHyper(lam=0.01))
        lines, blacklist_lines = _build_stream(np.random.default_rng(1001))
        reports = []
        for _ in range(2):
            engine = Engine(load_blacklist(blacklist_lines), featurizer,
                            model, None, EngineConfig())
            reports.append(engine.run_replay(list(lines)).to_dict())
        assert reports[0]["blacklist_blocks"] == 2
        assert reports[0]["classifier_blocks"] == 3
        assert reports[0]["flows_seen"] == 10
        assert reports[0]["packets_seen"] == 3000
        assert json.dumps(reports[0]) == json.dumps(reports[1])
        assert time.monotonic() - start < 5.0


# --- C11: documented-only external reproduction -----------------------

def test_c11_external_reproduction_is_documented():
    with criterion("C11", "external-dataset stretch check documented"):
        text = README.read_text(encoding="utf-8")
        for figure in ("0.9896", "0.9486", "0.9915", "82.31"):
            assert figure in text
        assert "stretch" in text.lower()
        print("[acceptance] C11 note: reproducing the published "
              "accuracy figures needs the external datasets; with them "
              "supplied the pipeline must land within +/-2 percentage "
              "points. Not a CI gate.")
