"""Independent checks of every output the benchmark's commands write.

Nothing here imports ``flowdpi``. Each check recomputes what a command
should have written from the command's inputs (and, where the output is
a trained model, from the saved model file) with code written apart from
the package, and returns a list of mismatch messages; an empty list
means the output is correct.

- ``check_train_payload``: vocabulary and IDF from our own tri-gram
  document count; the regularized loss at the saved weights equals the
  printed ``final_loss`` and is below ln 2.
- ``check_train_encrypted``: every leaf's stored probability equals the
  class-1 share of the training rows our own descent routes to it; no
  path is deeper than ``max_depth``.
- the k-fold table both train commands print: k rows, each the rates of
  one confusion matrix over a held-out fold of the size a stratified
  split gives, and their mean.
- ``check_eval``: confusion counts and AUC recounted from our own scores
  with the pairwise (Mann-Whitney) estimator; every ROC and PR point
  recounted at its threshold; the rates from the confusion counts; the
  curve CSVs and the printed summary equal to the report.
- ``check_replay``: a per-flow re-run of the pipeline (interval-merged
  CIDR lookup, own TF-IDF and linguistic features, own sigmoid, the
  sampler rule of acceptance oracle C1, own tree descent) reproduces
  every action and report counter; every planted blacklisted flow, and
  no other, is blocked for ``blacklist`` on its first packet.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

SCORE_TOL = 1e-9
LN2 = math.log(2.0)

# engine defaults the benchmark runs with (flowdpi's CLI defaults)
THRESHOLD, BLOCK_HITS, K_FOLDS = 0.5, 1, 5
M, W_MIN, W_MAX, HISTORY, GROWTH = 100, 5, 15, 10, 5


# --- shared parsing -------------------------------------------------

def ip_to_int(text: str) -> int:
    parts = text.strip().split(".")
    if len(parts) != 4 or not all(p.isdigit() and int(p) < 256
                                  for p in parts):
        raise ValueError(f"not a dotted quad: {text!r}")
    a, b, c, d = (int(p) for p in parts)
    return (a << 24) | (b << 16) | (c << 8) | d


def int_to_ip(value: int) -> str:
    return ".".join(str((value >> s) & 255) for s in (24, 16, 8, 0))


def proto_name(value) -> str:
    name = {"tcp": "TCP", "6": "TCP", "udp": "UDP",
            "17": "UDP"}.get(str(value).strip().lower())
    if name is None:
        raise ValueError(f"protocol outside the benchmark's inputs: {value!r}")
    return name


def flow_name(src, sport, dst, dport, proto) -> str:
    """Canonical flow text: the lower (ip, port) endpoint first."""
    a, b = (ip_to_int(src), int(sport)), (ip_to_int(dst), int(dport))
    lo, hi = (a, b) if a <= b else (b, a)
    return (f"{int_to_ip(lo[0])}:{lo[1]}<->{int_to_ip(hi[0])}:{hi[1]}"
            f"/{proto_name(proto)}")


def read_corpus(path: Path) -> tuple[list[str], list[int]]:
    payloads, labels = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            obj = json.loads(line)
            payloads.append(obj["payload"])
            labels.append(int(obj["label"]))
    return payloads, labels


TLS_ORDINAL = {"ssl3": 0, "tls1.0": 1, "tls1.1": 2, "tls1.2": 3,
               "tls1.3": 4}
LABELS = {"benign": 0, "normal": 0, "0": 0,
          "botnet": 1, "malicious": 1, "1": 1}


def read_flow_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fp:
        return list(csv.DictReader(fp))


def flow_features(row: dict) -> list[float]:
    """tls ordinal, ttl, duration, ports, well-known-port flags and
    packets per second (duration floored at 1 ms)."""
    sport, dport = int(row["src_port"]), int(row["dst_port"])
    duration = float(row["duration"])
    tls = TLS_ORDINAL.get(row["tls_version"].strip().lower(), -1)
    rate = (int(row["fwd_pkts"]) + int(row["bwd_pkts"])) / max(duration,
                                                                1e-3)
    return [float(tls), float(int(row["ttl"])), duration, float(sport),
            float(dport), 1.0 if sport < 1024 else 0.0,
            1.0 if dport < 1024 else 0.0, rate]


# --- payload model --------------------------------------------------

def grams(text: str) -> list[str]:
    return [text[i:i + 3] for i in range(len(text) - 2)]


CONSONANTS = set("bcdfghjklmnpqrstvwxyz")
VOWELS = set("aeiou")


def runs_of_two_or_more(flags) -> int:
    total = run = 0
    for flag in list(flags) + [False]:
        if flag:
            run += 1
        else:
            total += run if run > 1 else 0
            run = 0
    return total


def counts(text: str) -> tuple[int, int, int, int, int]:
    """digits, digits in runs, consonants in runs, letters seen more than
    once, vowels."""
    low = text.lower()
    digit = [c in "0123456789" for c in low]
    letters = Counter(c for c in low if "a" <= c <= "z")
    return (sum(digit), runs_of_two_or_more(digit),
            runs_of_two_or_more(c in CONSONANTS for c in low),
            sum(1 for n in letters.values() if n > 1),
            sum(c in VOWELS for c in low))


def logistic(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


class PayloadScorer:
    """Scores text from a saved payload-model file."""

    def __init__(self, doc: dict):
        feat = doc["featurizer"]
        self.index = {g: i for i, g in enumerate(feat["vocabulary"])}
        self.idf = [float(v) for v in feat["idf"]]
        self.lo = [float(v) for v in feat["l_min"]]
        self.hi = [float(v) for v in feat["l_max"]]
        self.weights = [float(v) for v in doc["weights"]]
        self.bias = float(doc["bias"])
        self._cache: dict[str, float] = {}

    def margin(self, text: str) -> float:
        z = self.bias
        gs = grams(text)
        for g, c in Counter(gs).items():
            i = self.index.get(g)
            if i is not None:
                z += self.weights[i] * (c / len(gs) * self.idf[i])
        base = len(self.index)
        for j, (v, lo, hi) in enumerate(zip(counts(text), self.lo, self.hi)):
            if hi != lo:
                z += self.weights[base + j] * min(1.0, max(0.0, (v - lo)
                                                            / (hi - lo)))
        return z

    def score(self, text: str) -> float:
        s = self._cache.get(text)
        if s is None:
            s = self._cache[text] = logistic(self.margin(text))
        return s


# --- tree model -----------------------------------------------------

def tree_leaf(nodes: list[dict], x: list[float]) -> int:
    i = 0
    while nodes[i]["class"] < 0:
        n = nodes[i]
        i = n["left"] if x[n["feature"]] <= n["threshold"] else n["right"]
    return i


# --- blacklist ------------------------------------------------------

class CidrRanges:
    """Blacklist as merged [start, end] address intervals, searched by
    bisection."""

    def __init__(self, lines):
        spans = []
        for raw in lines:
            entry = raw.split("#", 1)[0].strip()
            if not entry:
                continue
            addr, _, plen = entry.partition("/")
            size = 1 << (32 - (int(plen) if plen else 32))
            start = ip_to_int(addr) // size * size
            spans.append((start, start + size - 1))
        spans.sort()
        self.starts, self.ends = [], []
        for start, end in spans:
            if self.ends and start <= self.ends[-1] + 1:
                self.ends[-1] = max(self.ends[-1], end)
            else:
                self.starts.append(start)
                self.ends.append(end)

    def __contains__(self, ip: str) -> bool:
        addr = ip_to_int(ip)
        k = bisect.bisect_right(self.starts, addr) - 1
        return k >= 0 and addr <= self.ends[k]


# --- checks ---------------------------------------------------------

def _printed(stdout: str, key: str) -> str | None:
    found = re.search(rf"\b{key}=([^\s,)]+)", stdout)
    return found.group(1) if found else None


def rates(tp: int, fp: int, tn: int, fn: int) -> dict:
    """Accuracy, precision, recall, fpr and f1; a rate whose denominator
    is 0 is 0 and named in ``degenerate``."""
    degenerate = []

    def ratio(name, num, den):
        if den == 0:
            degenerate.append(name)
            return 0.0
        return num / den

    out = {"accuracy": ratio("accuracy", tp + tn, tp + fp + tn + fn),
           "precision": ratio("precision", tp, tp + fp),
           "recall": ratio("recall", tp, tp + fn),
           "fpr": ratio("fpr", fp, fp + tn)}
    out["f1"] = ratio("f1", 2 * out["precision"] * out["recall"],
                      out["precision"] + out["recall"])
    out["degenerate"] = sorted(degenerate)
    return out


RATE_NAMES = ("accuracy", "precision", "recall", "fpr", "f1")


def check_cv_table(stdout: str, labels, k: int) -> list[str]:
    """The k-fold table a train command prints: rows 0..k-1, each the
    rates of one confusion matrix over a held-out fold, then their mean.

    A stratified split deals each class's members round-robin over the k
    folds, so fold j holds exactly ``len(range(j, n_c, k))`` members of
    class c whatever the shuffle. Each row's recall and fpr (6 decimals)
    then pin its tp and fp, and the other rates must follow from them.
    """
    lines = stdout.splitlines()
    head = [i for i, line in enumerate(lines) if line.split()[:2]
            == ["fold", "accuracy"]]
    if len(head) != 1:
        return ["train printed no k-fold table"]
    table = [line.split() for line in lines[head[0] + 1:head[0] + k + 2]]
    if (len(table) != k + 1 or [row[0] for row in table]
            != [str(j) for j in range(k)] + ["mean"]
            or any(len(row) != 6 for row in table)):
        return [f"k-fold table does not hold rows 0..{k - 1} and a mean"]
    n_pos = sum(1 for y in labels if y == 1)
    n_neg = len(labels) - n_pos
    folds = []
    for j, row in enumerate(table[:k]):
        pos, neg = len(range(j, n_pos, k)), len(range(j, n_neg, k))
        printed = dict(zip(RATE_NAMES, row[1:]))
        tp = round(float(printed["recall"]) * pos)
        fp = round(float(printed["fpr"]) * neg)
        want = rates(tp, fp, neg - fp, pos - tp)
        if any(printed[name] != f"{want[name]:.6f}" for name in RATE_NAMES):
            return [f"fold {j} row {row[1:]} is not the rates of any "
                    f"confusion over {pos} positives and {neg} negatives"]
        folds.append(want)
    mean = [f"{float(np.mean([f[name] for f in folds])):.6f}"
            for name in RATE_NAMES]
    if table[k][1:] != mean:
        return [f"k-fold mean {table[k][1:]} differs from {mean}"]
    return []


def check_train_payload(corpus: Path, model: Path, stdout: str,
                        k: int) -> list[str]:
    payloads, labels = read_corpus(corpus)
    errors = check_cv_table(stdout, labels, k)
    doc = json.loads(model.read_text(encoding="utf-8"))
    feat = doc["featurizer"]
    df = Counter(g for p in payloads for g in set(grams(p)))
    vocab = sorted(df)
    n = len(payloads)
    if feat["vocabulary"] != vocab:
        missing = sorted(set(vocab) - set(feat["vocabulary"]))[:3]
        extra = sorted(set(feat["vocabulary"]) - set(vocab))[:3]
        errors.append(f"vocabulary differs from the corpus tri-grams "
                      f"(missing {missing}, extra {extra}, or out of order)")
    else:
        for i, g in enumerate(vocab):
            want = math.log((1 + n) / (1 + df[g])) + 1.0
            if abs(feat["idf"][i] - want) > 1e-12:
                errors.append(f"idf of {g!r} is {feat['idf'][i]!r}, "
                              f"expected {want!r}")
                break
    columns = list(zip(*(counts(p) for p in payloads)))
    if (feat["l_min"] != [float(min(c)) for c in columns]
            or feat["l_max"] != [float(max(c)) for c in columns]):
        errors.append("linguistic min/max differ from the corpus counts")
    if int(feat["n_docs"]) != n:
        errors.append(f"n_docs {feat['n_docs']} != {n}")
    if len(doc["weights"]) != len(feat["vocabulary"]) + 5:
        errors.append("weight count does not match the feature dimension")
    if errors:
        return errors
    scorer = PayloadScorer(doc)
    z = np.array([scorer.margin(p) for p in payloads])
    y = np.array(labels, dtype=float)
    w = np.array(scorer.weights)
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)
                 + float(doc["lambda"]) / (2 * n) * float(w @ w))
    printed = _printed(stdout, "final_loss")
    if printed is None:
        errors.append("train-payload printed no final_loss")
    elif abs(float(printed) - loss) > 5e-7 + 1e-9:
        errors.append(f"printed final_loss {printed} but the loss at the "
                      f"saved weights is {loss:.9f}")
    if not loss < LN2:
        errors.append(f"loss {loss} is not below ln 2")
    return errors


def check_train_encrypted(flows: Path, model: Path, stdout: str,
                          k: int) -> list[str]:
    doc = json.loads(model.read_text(encoding="utf-8"))
    nodes = doc["nodes"]
    rows = read_flow_rows(flows)
    errors = check_cv_table(
        stdout, [LABELS[row["label"].strip().lower()] for row in rows], k)
    routed: dict[int, list[int]] = {}
    for row in rows:
        leaf = tree_leaf(nodes, flow_features(row))
        routed.setdefault(leaf, []).append(
            LABELS[row["label"].strip().lower()])
    depth_of = {0: 0}
    stack = [0]
    leaves = []
    while stack:
        i = stack.pop()
        n = nodes[i]
        if n["class"] >= 0:
            leaves.append(i)
            continue
        for child in (n["left"], n["right"]):
            if child in depth_of:
                errors.append(f"node {child} is reached twice")
                return errors
            depth_of[child] = depth_of[i] + 1
            stack.append(child)
    if len(depth_of) != len(nodes):
        errors.append(f"{len(nodes) - len(depth_of)} nodes unreachable")
    deepest = max(depth_of.values())
    if deepest > int(doc["max_depth"]):
        errors.append(f"path of depth {deepest} > max_depth "
                      f"{doc['max_depth']}")
    for i in sorted(leaves):
        ys = routed.get(i, [])
        if not ys:
            errors.append(f"leaf {i} receives no training row")
            continue
        share = sum(ys) / len(ys)
        if nodes[i]["proba"] != share:
            errors.append(f"leaf {i} stores {nodes[i]['proba']!r}, "
                          f"training share is {share!r}")
        if nodes[i]["class"] != (1 if share >= 0.5 else 0):
            errors.append(f"leaf {i} class {nodes[i]['class']} disagrees "
                          f"with share {share}")
    if f"({len(nodes)} nodes)" not in stdout:
        errors.append("printed node count differs from the saved tree")
    return errors


def pairwise_auc_bounds(pos: np.ndarray, neg: np.ndarray,
                        tol: float) -> tuple[float, float]:
    """Pairwise AUC, P(pos > neg) + P(pos == neg) / 2. With ``tol`` > 0 it
    is an interval: a pair closer than ``tol`` may count as a win, a tie
    or a loss."""
    neg = np.sort(neg)
    pairs = pos.size * neg.size
    wins = int(np.searchsorted(neg, pos - tol, side="left").sum())
    if tol == 0:
        ties = int(np.searchsorted(neg, pos, side="right").sum()) - wins
        return (wins + 0.5 * ties) / pairs, (wins + 0.5 * ties) / pairs
    near = int(np.searchsorted(neg, pos + tol, side="right").sum())
    return wins / pairs, near / pairs


def check_curves(roc: list, pr: list, y: np.ndarray, s: np.ndarray,
                 tol: float) -> list[str]:
    """Every ROC point (threshold, fpr, tpr) and PR point (threshold,
    recall, precision) recounted from our own scores: one point per
    distinct score, descending, after a first point at +inf. A score
    within ``tol`` of a threshold may fall on either side of it."""
    pos, neg = np.sort(s[y == 1]), np.sort(s[y == 0])
    every = np.sort(s)
    distinct = np.unique(s)
    merged = 1 + int(np.sum(np.diff(distinct) > tol))
    if not merged <= len(roc) - 1 <= distinct.size:
        return [f"{len(roc) - 1} ROC points for {distinct.size} distinct "
                f"scores"]
    inf = float("inf")
    if roc[0] != [inf, 0.0, 0.0] or pr[:1] != [[inf, 0.0, 1.0]] \
            or len(pr) != len(roc):
        return ["ROC or PR curve does not start at +inf or their lengths "
                "differ"]

    def at_or_above(sorted_scores, thr):
        n = sorted_scores.size
        return (n - int(np.searchsorted(sorted_scores, thr + tol, "left")),
                n - int(np.searchsorted(sorted_scores, thr - tol, "left")))

    previous = inf
    for k, ((thr, fpr, tpr), pr_point) in enumerate(zip(roc[1:], pr[1:]),
                                                     start=1):
        near = int(np.searchsorted(every, thr - tol, "left"))
        if not thr < previous or near == every.size \
                or every[near] > thr + tol:
            return [f"ROC threshold {k} ({thr!r}) is not a descending "
                    f"score of ours"]
        previous = thr
        tp, fp = round(tpr * pos.size), round(fpr * neg.size)
        (tp_lo, tp_hi), (fp_lo, fp_hi) = (at_or_above(pos, thr),
                                          at_or_above(neg, thr))
        if (tp / pos.size, fp / neg.size) != (tpr, fpr) \
                or not (tp_lo <= tp <= tp_hi and fp_lo <= fp <= fp_hi):
            return [f"ROC point {k} {[thr, fpr, tpr]}: recount gives tp "
                    f"{tp_lo}..{tp_hi} of {pos.size}, fp {fp_lo}..{fp_hi} "
                    f"of {neg.size}"]
        if pr_point != [thr, tp / pos.size, tp / (tp + fp)]:
            return [f"PR point {k} {pr_point} does not match ROC point "
                    f"{[thr, fpr, tpr]}"]
    if roc[-1][1:] != [1.0, 1.0]:
        return [f"last ROC point {roc[-1]} is not (1, 1)"]
    return []


def check_curve_csv(path: Path, header: list[str], points: list) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fp:
        rows = list(csv.reader(fp))
    if rows[:1] != [header] or [[float(v) for v in row] for row in rows[1:]] \
            != points:
        return [f"{path.name} does not hold the report's points"]
    return []


def check_eval(report: Path, stdout: str, labels, scores,
               tol: float) -> list[str]:
    """``scores`` are the benchmark's own; ``tol`` is how far they may sit
    from the program's (0 where both read the same stored number). The
    curve CSVs are the ones eval writes next to ``report``."""
    errors = []
    doc = json.loads(report.read_text(encoding="utf-8"))
    y = np.asarray(labels, dtype=int)
    s = np.asarray(scores, dtype=float)
    pred = s >= THRESHOLD
    unsure = int(np.sum(np.abs(s - THRESHOLD) <= tol)) if tol else 0
    want = {"tp": int(np.sum(pred & (y == 1))),
            "fp": int(np.sum(pred & (y == 0))),
            "tn": int(np.sum(~pred & (y == 0))),
            "fn": int(np.sum(~pred & (y == 1)))}
    got = doc["confusion"]
    for k, v in want.items():
        if abs(got[k] - v) > unsure:
            errors.append(f"confusion {k} is {got[k]}, recount gives {v}")
    if sum(got.values()) != y.size:
        errors.append(f"confusion counts {sum(got.values())} rows of "
                      f"{y.size}")
    if doc["metrics"] != rates(got["tp"], got["fp"], got["tn"], got["fn"]):
        errors.append(f"metrics {doc['metrics']} are not the rates of the "
                      f"confusion counts")
    lo, hi = pairwise_auc_bounds(s[y == 1], s[y == 0], tol)
    auc = doc["auc"]
    if auc is None or not lo - SCORE_TOL <= auc <= hi + SCORE_TOL:
        errors.append(f"auc {auc} outside the pairwise recount "
                      f"[{lo}, {hi}]")
    roc, pr = doc["roc_points"], doc["pr_points"]
    errors += check_curves(roc, pr, y, s, tol)
    errors += check_curve_csv(report.with_suffix(".roc.csv"),
                              ["threshold", "fpr", "tpr"], roc)
    errors += check_curve_csv(report.with_suffix(".pr.csv"),
                              ["threshold", "recall", "precision"], pr)
    printed = {name: _printed(stdout, name) for name in (*RATE_NAMES, "auc")}
    shown = {name: f"{v:.6f}" for name, v in doc["metrics"].items()
             if name in RATE_NAMES}
    shown["auc"] = "n/a" if auc is None else f"{auc:.6f}"
    if printed != shown:
        errors.append(f"eval printed {printed}, the report holds {shown}")
    return errors


def payload_eval_scores(model: Path, corpus: Path):
    scorer = PayloadScorer(json.loads(model.read_text(encoding="utf-8")))
    payloads, labels = read_corpus(corpus)
    return labels, [scorer.score(p) for p in payloads]


def tree_eval_scores(model: Path, flows: Path):
    nodes = json.loads(model.read_text(encoding="utf-8"))["nodes"]
    rows = read_flow_rows(flows)
    return ([LABELS[r["label"].strip().lower()] for r in rows],
            [nodes[tree_leaf(nodes, flow_features(r))]["proba"]
             for r in rows])


def sampler_next(hist: list[tuple[int, int]], w: int) -> int:
    """Window after the epoch whose (w, hits) is hist[-1] (oracle C1)."""
    if len(hist) < 3:
        return W_MIN
    dw = hist[-1][0] - hist[-2][0]
    total, kept = 0.0, 0
    for (wa, da), (wb, db) in zip(hist[:-2], hist[1:-1]):
        if wb != wa:
            total += (db - da) / (wb - wa)
            kept += 1
    d_n = hist[-2][1]
    pred = d_n + dw * (total / kept) if kept else float(d_n)
    actual = float(hist[-1][1])
    if actual == d_n:
        dwn = float(GROWTH) if dw == 0 else -dw / 2.0
    elif pred == actual:
        dwn = 0.0
    elif dw == 0:
        dwn = float(GROWTH)
    else:
        ratio = (pred - d_n) / (actual - d_n)
        dwn = -(1.0 if pred > actual else -1.0) * abs(ratio * dw)
    x = w + dwn
    rounded = math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)
    return max(W_MIN, min(W_MAX, int(rounded)))


class _Flow:
    __slots__ = ("pos", "w", "hits", "best", "hist", "blocked")

    def __init__(self):
        self.pos, self.w, self.hits, self.best = 0, W_MIN, 0, 0.0
        self.hist: list[tuple[int, int]] = []
        self.blocked = False


def expected_replay(packets: Path, blacklist: Path, payload_model: Path,
                    flows: Path | None, tree_model: Path | None,
                    count_blocking: bool):
    """Actions and counters a replay must produce, plus each flow's first
    timestamp."""
    ranges = CidrRanges(blacklist.read_text(encoding="utf-8").splitlines())
    scorer = PayloadScorer(json.loads(payload_model.read_text(
        encoding="utf-8")))
    stream = []
    for line in packets.read_text(encoding="utf-8").splitlines():
        if line.strip():
            stream.append(json.loads(line))
    stream.sort(key=lambda p: float(p["ts"]))
    actions = []
    c = Counter()
    state: dict[str, _Flow] = {}
    first_ts: dict[str, float] = {}

    def act(kind, flow, reason, score, ts):
        actions.append({"kind": kind, "flow": flow, "reason": reason,
                        "score": score, "ts": ts})
        if kind == "block":
            c["blacklist_blocks" if reason == "blacklist"
              else "classifier_blocks"] += 1
        else:
            c["alerts"] += 1

    for p in stream:
        ts = float(p["ts"])
        name = flow_name(p["src_ip"], p["src_port"], p["dst_ip"],
                         p["dst_port"], p["proto"])
        c["packets_seen"] += 1
        f = state.get(name)
        if f is None:
            f = state[name] = _Flow()
            first_ts[name] = ts
            c["flows_seen"] += 1
            if p["src_ip"] in ranges:
                f.blocked = True
                act("block", name, "blacklist", None, ts)
                continue
        if f.blocked:
            c["packets_dropped"] += 1
            continue
        position = f.pos
        f.pos += 1
        if position < f.w and not p.get("encrypted", False):
            c["packets_sampled"] += 1
            score = scorer.score(p.get("payload", ""))
            if score >= THRESHOLD:
                f.hits += 1
                f.best = max(f.best, score)
                if not count_blocking:
                    f.blocked = True
                    act("block", name, "payload_classifier", score, ts)
                    continue
                act("alert", name, "payload_classifier", score, ts)
        if f.pos >= M:
            hits, best = f.hits, f.best
            f.hist = (f.hist + [(f.w, hits)])[-HISTORY:]
            f.w = sampler_next(f.hist, f.w)
            f.pos, f.hits, f.best = 0, 0, 0.0
            if count_blocking and hits >= BLOCK_HITS:
                f.blocked = True
                act("block", name, "payload_classifier", best, ts)
    if flows is not None:
        nodes = json.loads(tree_model.read_text(encoding="utf-8"))["nodes"]
        for row in read_flow_rows(flows):
            c["encrypted_flows"] += 1
            leaf = nodes[tree_leaf(nodes, flow_features(row))]
            if leaf["class"] == 1:
                name = flow_name(row["src_ip"], row["src_port"],
                                 row["dst_ip"], row["dst_port"],
                                 row["proto"])
                act("block", name, "encrypted_classifier", leaf["proba"],
                    None)
    counters = {k: c[k] for k in (
        "flows_seen", "packets_seen", "packets_sampled", "packets_dropped",
        "encrypted_flows", "blacklist_blocks", "classifier_blocks",
        "alerts")}
    return actions, counters, first_ts


def _same_action(got: dict, want: dict) -> bool:
    if any(got.get(k) != want[k] for k in ("kind", "flow", "reason", "ts")):
        return False
    if (got.get("score") is None) != (want["score"] is None):
        return False
    return want["score"] is None or abs(got["score"] - want["score"]) \
        <= SCORE_TOL


def check_replay(expected, report: Path, actions_csv: Path,
                 planted: list[tuple]) -> list[str]:
    """Compare a replay's report and actions CSV with ``expected`` (from
    ``expected_replay``) and with the generator's planted blacklisted
    flows."""
    want_actions, want_counters, first_ts = expected
    errors = []
    doc = json.loads(report.read_text(encoding="utf-8"))
    for k, v in want_counters.items():
        if doc.get(k) != v:
            errors.append(f"report {k} is {doc.get(k)}, expected {v}")
    if doc.get("errors"):
        errors.append(f"replay reported {len(doc['errors'])} input errors")
    got = doc.get("actions", [])
    if len(got) != len(want_actions):
        errors.append(f"{len(got)} actions, expected {len(want_actions)}")
    for i, (g, w) in enumerate(zip(got, want_actions)):
        if not _same_action(g, w):
            errors.append(f"action {i} is {g}, expected {w}")
            break
    with open(actions_csv, encoding="utf-8", newline="") as fp:
        rows = list(csv.reader(fp))
    if rows[:1] != [["ts", "flow", "kind", "reason", "score"]] \
            or len(rows) - 1 != len(got):
        errors.append("actions CSV does not hold one row per action")
    else:
        for i, (row, g) in enumerate(zip(rows[1:], got)):
            as_dict = {"ts": float(row[0]) if row[0] else None,
                       "flow": row[1], "kind": row[2], "reason": row[3],
                       "score": float(row[4]) if row[4] else None}
            if not _same_action(as_dict, g):
                errors.append(f"actions CSV row {i + 1} differs from the "
                              f"report")
                break
    blocked = {(a["flow"], a["ts"]) for a in got
               if a["reason"] == "blacklist"}
    planted_names = {flow_name(*key) for key in planted}
    want_blocked = {(name, first_ts.get(name)) for name in planted_names}
    if blocked != want_blocked or any(a["kind"] != "block" for a in got
                                      if a["reason"] == "blacklist"):
        errors.append(f"blacklist blocks {len(blocked)} flows; the "
                      f"generator planted {len(want_blocked)}, each to be "
                      f"blocked on its first packet")
    return errors
