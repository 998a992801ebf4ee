import contextlib
import io
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from flowdpi import engine as engine_module
from flowdpi import flows, logistic, textfeat
from flowdpi.blacklist import load_blacklist
from flowdpi.encflow import parse_flow_row
from flowdpi.engine import (Engine, EngineConfig, EngineConfigError,
                            ReplayDataError, write_actions_csv)
from flowdpi.flows import (VerdictKind, VerdictReason, packet_from_json_line,
                           packet_to_json_line)
from flowdpi.sampler import SamplerConfig
from flowdpi.textfeat import (Featurizer, NormalizationParams, TfIdfModel,
                              count_batch, fit_featurizer, stack_dense,
                              tokenize)
from flowdpi.tree import DecisionTreeModel, TreeNode
from synth import (benign_payload, flow_csv_rows, labeled_corpus,
                   malicious_payload)

SEED = 42


@pytest.fixture(scope="module")
def payload_classifier():
    rng = np.random.default_rng(SEED)
    payloads, y = labeled_corpus(rng, 150, 80)
    corpus = tokenize(payloads)
    featurizer = fit_featurizer(corpus)
    X = stack_dense(featurizer, corpus)
    model, _ = logistic.train(X, y, logistic.LogisticHyper(lam=0.01))
    return featurizer, model


@pytest.fixture()
def hand_tree():
    # two leaves: ttl <= 100 benign, otherwise malicious
    return DecisionTreeModel(
        nodes=[TreeNode(feature=1, threshold=100.0, left=1, right=2),
               TreeNode(klass=0, proba=0.0),
               TreeNode(klass=1, proba=1.0)],
        n_features=8, max_depth=1, min_samples_split=2)


def make_engine(payload_classifier, blacklist_lines=(), tree_model=None,
                **cfg):
    featurizer, model = payload_classifier
    return Engine(load_blacklist(blacklist_lines), featurizer, model,
                  tree_model, EngineConfig(**cfg))


def process(engine, packet):
    """``Engine.process_packet``'s verdict on ``packet``, processed as a
    batch of one."""
    verdicts, step = [], engine.process_packet
    engine.process_packet = lambda packet: verdicts.append(step(packet))
    try:
        engine._process_batch([packet])
    finally:
        del engine.process_packet
    [verdict] = verdicts
    return verdict


def score_one(featurizer, model, payload):
    """The score of one payload, as a one-row batch."""
    return float(logistic.predict_proba(
        model, featurizer.featurize_batch([payload]))[0])


@contextlib.contextmanager
def reorder_window(size):
    """Replays in the block hold back ``size`` packets to reorder."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "REORDER_WINDOW", size)
        yield


def packet_line(src, payload="", ts=0.0, sport=40000, dst="10.0.9.9",
                dport=80, encrypted=False):
    return packet_to_json_line(src, sport, dst, dport, "TCP", ts, payload,
                               encrypted)


def stream(src, payloads, sport=40000):
    return [packet_line(src, p, ts=float(i), sport=sport)
            for i, p in enumerate(payloads)]


def test_blacklisted_source_blocked_on_first_packet(payload_classifier):
    engine = make_engine(payload_classifier, ["10.0.0.5"])
    pkt = packet_from_json_line(packet_line("10.0.0.5", "/index.html"))
    verdict = process(engine, pkt)
    assert verdict.kind is VerdictKind.BLOCK
    assert verdict.reason is VerdictReason.BLACKLIST
    assert engine.report.blacklist_blocks == 1
    assert engine.report.packets_sampled == 0
    # subsequent packets on the blocked flow are dropped silently
    assert process(engine, pkt) is None
    assert engine.report.packets_dropped == 1


def test_score_equal_to_block_threshold_blocks(payload_classifier):
    payload = "/index.html"
    score = score_one(*payload_classifier, payload)
    for threshold, blocked in ((score, True),
                               (float(np.nextafter(score, 1.0)), False)):
        engine = make_engine(payload_classifier, block_threshold=threshold)
        verdict = process(
            engine, packet_from_json_line(packet_line("10.0.0.9", payload)))
        assert (verdict is not None
                and verdict.kind is VerdictKind.BLOCK) == blocked


def test_blacklist_checked_only_on_flow_creation(payload_classifier):
    engine = make_engine(payload_classifier, [])
    rng = np.random.default_rng(0)
    for line in stream("10.0.0.6", [benign_payload(rng) for _ in range(5)]):
        process(engine, packet_from_json_line(line))
    assert engine.report.flows_seen == 1
    assert engine.report.blacklist_blocks == 0


def test_benign_epoch_samples_window_and_records_delta(payload_classifier):
    engine = make_engine(payload_classifier)
    rng = np.random.default_rng(1)
    for line in stream("10.0.0.7", [benign_payload(rng)
                                    for _ in range(100)]):
        verdict = process(engine, packet_from_json_line(line))
        assert verdict is None
    assert engine.report.packets_seen == 100
    assert engine.report.packets_sampled == 5   # first window = w_min = 5
    state = next(iter(engine._flows.values()))
    assert list(state.sampler.history) == [(5, 0)]
    assert state.packets_in_epoch == 0


def test_planted_malicious_payload_blocks(payload_classifier):
    rng = np.random.default_rng(2)
    payloads = [benign_payload(rng) for _ in range(100)]
    payloads[3] = malicious_payload(rng)
    engine = make_engine(payload_classifier)
    verdicts = [process(engine, packet_from_json_line(line))
                for line in stream("10.0.0.8", payloads)]
    blocks = [v for v in verdicts if v is not None]
    assert len(blocks) == 1
    assert blocks[0].kind is VerdictKind.BLOCK
    assert blocks[0].reason is VerdictReason.PAYLOAD_CLASSIFIER
    assert blocks[0].score >= 0.5
    assert engine.report.classifier_blocks == 1
    # everything after the block is dropped
    assert engine.report.packets_dropped == 96


def test_malicious_payload_outside_window_not_inspected(payload_classifier):
    rng = np.random.default_rng(3)
    payloads = [benign_payload(rng) for _ in range(100)]
    payloads[50] = malicious_payload(rng)   # past the 5-packet window
    engine = make_engine(payload_classifier)
    for line in stream("10.0.0.9", payloads):
        assert process(engine, packet_from_json_line(line)) is None
    assert engine.report.classifier_blocks == 0


def test_encrypted_packets_not_payload_inspected(payload_classifier):
    rng = np.random.default_rng(4)
    engine = make_engine(payload_classifier)
    lines = [packet_line("10.0.1.1", malicious_payload(rng), ts=float(i),
                         encrypted=True) for i in range(10)]
    for line in lines:
        assert process(engine, packet_from_json_line(line)) is None
    assert engine.report.packets_sampled == 0


def test_count_blocking_mode(payload_classifier):
    rng = np.random.default_rng(5)
    payloads = [benign_payload(rng) for _ in range(100)]
    payloads[0] = malicious_payload(rng)
    payloads[1] = malicious_payload(rng)
    engine = make_engine(payload_classifier, block_on_first_hit=False,
                         window_hit_block_count=2)
    verdicts = [process(engine, packet_from_json_line(line))
                for line in stream("10.0.1.2", payloads)]
    emitted = [v for v in verdicts if v is not None]
    kinds = [v.kind for v in emitted]
    assert kinds.count(VerdictKind.ALERT) == 2
    assert kinds.count(VerdictKind.BLOCK) == 1   # at the epoch boundary
    assert engine.report.alerts == 2
    assert engine.report.classifier_blocks == 1


def test_window_hits_match_offline_recount(payload_classifier):
    featurizer, model = payload_classifier
    rng = np.random.default_rng(6)
    payloads = [benign_payload(rng) if rng.random() < 0.6
                else malicious_payload(rng) for _ in range(100)]
    engine = make_engine(payload_classifier, block_on_first_hit=False,
                         window_hit_block_count=50)
    for line in stream("10.0.1.3", payloads):
        process(engine, packet_from_json_line(line))
    state = next(iter(engine._flows.values()))
    recount = sum(logistic.predict_proba(
        model, stack_dense(featurizer, tokenize(payloads[:5]))) >= 0.5)
    assert list(state.sampler.history) == [(5, int(recount))]


def test_one_row_score_is_the_eval_score(payload_classifier):
    """A payload scored as a one-row batch, as a replay may score a
    packet, gets the bits eval gives it in a batch of the corpus."""
    featurizer, model = payload_classifier
    rng = np.random.default_rng(SEED)
    payloads, _ = labeled_corpus(rng, 150, 80)
    payloads += ["", "ab", "/unseen?x=%00%ff", "é٣/" * 40]
    scores = logistic.predict_proba(model,
                                    stack_dense(featurizer,
                                                tokenize(payloads)))
    for payload, score in zip(payloads, scores):
        assert repr(score_one(featurizer, model, payload)) == \
            repr(float(score))


# upper case, a non-ASCII digit, a letter whose lower case is longer, the
# replacement character; small alphabets repeat tri-grams
_packet_texts = (st.text(alphabet=st.sampled_from("aAbBzZ1٣İ\ufffd/ "),
                         max_size=12)
                 | st.text(max_size=2) | st.text(max_size=12))


def _bits(row):
    return [(col, value.hex()) for col, value in row]


@st.composite
def _model_file(draw, fitted: Featurizer):
    """``fitted`` as a model file may hold it: the vocabulary numbered in
    any order, idf weights of 0.0 or below, any normalizer."""
    grams = draw(st.permutations(list(fitted.tfidf.vocabulary)))
    idf = draw(st.lists(st.sampled_from([0.0, -0.0, -1.5, 2.25])
                        | st.floats(-4.0, 4.0), min_size=len(grams),
                        max_size=len(grams)))
    lo = draw(st.lists(st.floats(0.0, 12.0), min_size=5, max_size=5))
    span = draw(st.lists(st.sampled_from([0.0, 0.5, 3.0, 40.0]),
                         min_size=5, max_size=5))
    return Featurizer(
        TfIdfModel({t: i for i, t in enumerate(grams)}, tuple(idf),
                   fitted.tfidf.n_docs),
        NormalizationParams(tuple(lo), tuple(a + b for a, b in zip(lo, span))))


@given(st.lists(_packet_texts, min_size=1, max_size=10),
       st.lists(_packet_texts, max_size=6), st.data())
@settings(max_examples=150, deadline=None)
def test_packet_path_matches_oracles_and_batch(corpus, unseen, data):
    """One payload, as a one-row batch, gets the bits the oracles and a
    larger batch give it: its ``count_batch`` counts are the
    oracle's, its row is the oracle's ``featurize`` and its
    ``stack_dense`` row, and its score is its ``predict_proba`` score in
    a batch.  ``unseen`` payloads bring tri-grams the vocabulary lacks."""
    featurizer = fit_featurizer(tokenize(corpus))
    if data.draw(st.booleans()):
        featurizer = data.draw(_model_file(featurizer))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    model = logistic.LogisticModel(rng.normal(scale=2.0,
                                              size=featurizer.dim),
                                   data.draw(st.floats(-3.0, 3.0)), 0.0)
    payloads = corpus + unseen
    X = stack_dense(featurizer, tokenize(payloads))
    scores = logistic.predict_proba(model, X).tolist()
    for i, payload in enumerate(payloads):
        _, codes, totals, linguistic = count_batch([payload])
        assert textfeat._unpack(codes) == reference.trigrams(payload)
        assert totals.tolist() == [len(reference.trigrams(payload))]
        assert tuple(linguistic[0].tolist()) == \
            reference.linguistic_features(payload).as_tuple()
        row = reference.row(featurizer.featurize(payload), 0)
        assert _bits(row) == _bits(reference.featurize(featurizer, payload))
        assert _bits(row) == _bits(reference.row(X, i))
        assert score_one(featurizer, model, payload).hex() == \
            scores[i].hex()


def test_process_encrypted_flow_paths(payload_classifier, hand_tree):
    engine = make_engine(payload_classifier, tree_model=hand_tree)
    row = {"src_ip": "10.0.0.1", "src_port": "40000", "dst_ip": "10.0.0.2",
           "dst_port": "443", "proto": "TCP", "tls_version": "TLS1.0",
           "duration": "1.0", "fwd_pkts": "5", "bwd_pkts": "5"}
    benign = parse_flow_row(dict(row, ttl="64"), 1)
    botnet = parse_flow_row(dict(row, ttl="128"), 2)
    engine.process_encrypted_flows([benign, botnet])
    engine.process_encrypted_flows([])
    [verdict] = engine.report.actions   # the benign flow passes
    assert verdict.kind is VerdictKind.BLOCK and verdict.flow == botnet.flow
    assert verdict.reason is VerdictReason.ENCRYPTED_CLASSIFIER
    assert verdict.score == 1.0
    assert engine.report.encrypted_flows == 2
    assert engine.report.classifier_blocks == 1


def test_encrypted_flow_without_tree_is_config_error(payload_classifier,
                                                     hand_tree):
    engine = make_engine(payload_classifier)
    row = {"src_ip": "10.0.0.1", "src_port": "40000", "dst_ip": "10.0.0.2",
           "dst_port": "443", "proto": "TCP", "tls_version": "TLS1.0",
           "ttl": "64", "duration": "1.0", "fwd_pkts": "5", "bwd_pkts": "5"}
    record = parse_flow_row(row, 1)
    with pytest.raises(EngineConfigError):
        engine.process_encrypted_flows([record])
    with pytest.raises(EngineConfigError):
        engine.run_replay([], flow_lines=["header"])


def test_dimension_mismatch_is_startup_error(payload_classifier):
    featurizer, _ = payload_classifier
    bad_model = logistic.LogisticModel(np.zeros(3), 0.0, 1.0)
    with pytest.raises(EngineConfigError):
        Engine(load_blacklist([]), featurizer, bad_model)


def test_replay_empty_streams(payload_classifier):
    engine = make_engine(payload_classifier)
    report = engine.run_replay([])
    assert report.flows_seen == 0 and report.packets_seen == 0
    assert report.actions == []


def test_replay_counts_flows_and_packets(payload_classifier):
    rng = np.random.default_rng(7)
    lines = []
    for i in range(3):
        lines += stream(f"10.0.2.{i}",
                        [benign_payload(rng) for _ in range(100)],
                        sport=41000 + i)
    engine = make_engine(payload_classifier)
    report = engine.run_replay(lines)
    assert report.flows_seen == 3
    assert report.packets_seen == 300


def test_replay_orders_by_timestamp(payload_classifier):
    # the blacklist fires on the flow's earliest packet even when the
    # stream file is shuffled
    lines = [packet_line("10.0.9.9", "/a", ts=5.0, sport=80,
                         dst="10.0.3.1", dport=40000),
             packet_line("10.0.3.1", "/b", ts=1.0, sport=40000, dport=80)]
    engine = make_engine(payload_classifier, ["10.0.3.1"])
    report = engine.run_replay(lines)
    assert report.blacklist_blocks == 1


def test_replay_rejects_nan_timestamp_and_stays_ordered(payload_classifier):
    # every packet opens its own blacklisted flow, so the blacklist
    # actions list the packets in the order the engine processed them; a
    # NaN timestamp used to leave 3.0, NaN, 1.0, 2.0 unsorted
    sources = ["10.0.6.3", "10.0.6.9", "10.0.6.1", "10.0.6.2"]
    lines = [packet_line(src, "/a", ts=ts)
             for src, ts in zip(sources, [3.0, float("nan"), 1.0, 2.0])]
    engine = make_engine(payload_classifier, sources)
    report = engine.run_replay(lines)
    assert len(report.errors) == 1
    assert "line 2" in report.errors[0] and "not finite" in report.errors[0]
    assert [v.timestamp for v in report.actions] == [1.0, 2.0, 3.0]
    assert [str(v.flow).split(":")[0] for v in report.actions] == [
        "10.0.6.1", "10.0.6.2", "10.0.6.3"]


@pytest.mark.parametrize("window,batch", [(0, 1), (1, 3), (7, 256)])
def test_replay_reads_at_most_window_plus_batch_lines_first(
        payload_classifier, window, batch):
    # the stream is read lazily: the first batch is processed as soon as
    # the reorder window has let go of SCORE_BATCH packets, not after the
    # whole stream, and no more than window + batch packets are ever held
    lines = stream("10.0.8.1", ["/a"] * 300)
    read = []

    def source():
        for line in lines:
            read.append(line)
            yield line

    engine = make_engine(payload_classifier)
    held = []
    process = engine.process_packet

    def spy(packet):
        held.append(len(read) - len(held))
        return process(packet)

    engine.process_packet = spy
    with reorder_window(window), pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "SCORE_BATCH", batch)
        report = engine.run_replay(source())
    assert held[0] == max(held) == window + batch
    assert report.packets_seen == 300 and report.errors == []


def test_late_packet_is_inspected_in_arrival_order(payload_classifier):
    # every packet opens its own blacklisted flow, so the actions list
    # the packets in the order the engine processed them
    sources = ["10.0.6.3", "10.0.6.1", "10.0.6.9", "10.0.6.2"]
    lines = [packet_line(src, "/a", ts=ts)
             for src, ts in zip(sources, [1.0, 3.0, 2.0, 4.0])]
    with reorder_window(0):
        report = make_engine(payload_classifier, sources).run_replay(lines)
    assert [v.timestamp for v in report.actions] == [1.0, 3.0, 2.0, 4.0]
    assert report.blacklist_blocks == 4   # the late packet is not dropped
    assert report.errors == [
        "packet line 3: late: ts 2.0 came after ts 3.0 left the 0-packet "
        "reorder window; inspected in arrival order"]
    # a window of one packet holds 3.0 back until 2.0 arrives
    with reorder_window(1):
        report = make_engine(payload_classifier, sources).run_replay(lines)
    assert [v.timestamp for v in report.actions] == [1.0, 2.0, 3.0, 4.0]
    assert report.errors == []
    engine = make_engine(payload_classifier, sources)
    with reorder_window(0), pytest.raises(ReplayDataError,
                                          match="packet line 3: late"):
        engine.run_replay(lines, strict=True)


def test_blank_lines_are_skipped_and_keep_line_numbers(payload_classifier):
    gap = ["", "  ", "\t"] * 100
    lines = (stream("10.0.8.2", ["/a"] * 3) + gap + ["not json"]
             + stream("10.0.8.3", ["/b"] * 3))
    report = make_engine(payload_classifier).run_replay(lines)
    assert report.packets_seen == 6 and report.flows_seen == 2
    assert report.errors[0].startswith(f"packet line {4 + len(gap)}: bad JSON")


_BENIGN = [benign_payload(np.random.default_rng(3)) for _ in range(8)]
_MALICIOUS = [malicious_payload(np.random.default_rng(4)) for _ in range(4)]


@st.composite
def _shuffled_stream(draw):
    """Packet lines of a few flows, both directions, with repeated
    timestamps and a few malformed lines, in a drawn arrival order."""
    lines = []
    for flow, ts, reply, malicious in draw(st.lists(st.tuples(
            st.integers(0, 4), st.integers(0, 12), st.booleans(),
            st.booleans()), max_size=60)):
        if flow == 4:
            lines.append('{"ts": "bad"}')
            continue
        payload = (_MALICIOUS[ts % 4] if malicious else _BENIGN[ts % 8])
        # a unique payload suffix names the line in the processing order
        payload += f"?n={len(lines)}"
        src, dst = f"10.0.7.{flow}", "10.0.9.9"
        sport, dport = 41000 + flow, 80
        if reply:
            src, dst, sport, dport = dst, src, dport, sport
        lines.append(packet_to_json_line(src, sport, dst, dport, "TCP",
                                         ts / 4, payload))
    return draw(st.permutations(lines))


def _replay_bytes(report):
    actions = io.StringIO()
    write_actions_csv(report, actions)
    return json.dumps(report.to_dict(), indent=1), actions.getvalue()


@given(_shuffled_stream(), st.integers(0, 5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_window_over_the_stream_gives_the_sorted_replay(
        payload_classifier, lines, spare, count_blocking):
    """With a window of at least the stream's length, the report and the
    actions are those of the replay that sorted the whole stream."""
    cfg = dict(sampler=SamplerConfig(m=6, w_min=2, w_max=4),
               block_on_first_hit=not count_blocking)
    expected = reference.sorted_replay(
        make_engine(payload_classifier, ["10.0.7.3"], **cfg), lines)
    engine = make_engine(payload_classifier, ["10.0.7.3"], **cfg)
    with reorder_window(len(lines) + spare):
        assert _replay_bytes(engine.run_replay(lines)) == \
            _replay_bytes(expected)


@given(_shuffled_stream(), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_any_window_processes_in_the_reference_order(payload_classifier,
                                                     lines, window):
    """Every well-formed packet is processed once, in the order a sorted
    list of ``window`` packets releases it; the late ones are reported
    and processed on arrival."""
    valid = []
    for line_no, line in enumerate(lines, start=1):
        try:
            valid.append((line_no, packet_from_json_line(line)))
        except flows.FlowParseError:
            pass
    order, late = reference.reorder([p.timestamp for _, p in valid], window)
    engine = make_engine(payload_classifier)
    seen = []
    process = engine.process_packet

    def spy(packet):
        seen.append(packet)
        return process(packet)

    engine.process_packet = spy
    with reorder_window(window):
        report = engine.run_replay(lines)
    assert seen == [valid[i][1] for i in order]
    assert [e.split(":")[0] for e in report.errors
            if "late" in e] == [f"packet line {valid[i][0]}" for i in late]


def test_replay_determinism(payload_classifier):
    rng = np.random.default_rng(8)
    lines = []
    for i in range(3):
        payloads = [benign_payload(rng) if rng.random() < 0.8
                    else malicious_payload(rng) for _ in range(150)]
        lines += stream(f"10.0.4.{i}", payloads, sport=42000 + i)
    docs = []
    for _ in range(2):
        engine = make_engine(payload_classifier, ["10.0.4.0"])
        docs.append(json.dumps(engine.run_replay(list(lines)).to_dict()))
    assert docs[0] == docs[1]


def test_replay_lenient_vs_strict(payload_classifier):
    lines = ["not json", packet_line("10.0.5.1", "/ok")]
    engine = make_engine(payload_classifier)
    report = engine.run_replay(lines)
    assert report.packets_seen == 1
    assert len(report.errors) == 1 and "line 1" in report.errors[0]
    engine = make_engine(payload_classifier)
    with pytest.raises(ReplayDataError):
        engine.run_replay(lines, strict=True)


def test_bad_blacklist_lines_are_reported_first(payload_classifier):
    lines = ["not json", packet_line("10.0.5.1", "/ok")]
    engine = make_engine(payload_classifier, ["10.0.5.0/+24", "10.0.5.1"])
    report = engine.run_replay(lines)
    assert report.errors[0] == ("blacklist:1: prefix length '+24' is not a "
                                "whole number in ASCII digits")
    assert "packet line 1" in report.errors[1] and len(report.errors) == 2
    assert report.blacklist_blocks == 1
    engine = make_engine(payload_classifier, ["10.0.5.0/+24"])
    with pytest.raises(ReplayDataError, match="blacklist:1: prefix length"):
        engine.run_replay([packet_line("10.0.5.1", "/ok")], strict=True)


def test_endpoint_memo_is_capped_and_changes_no_output(payload_classifier,
                                                      monkeypatch):
    # each flow sends one packet and gets one reply: two raw 5-tuples a
    # flow, more than the cache holds
    rng = np.random.default_rng(11)
    cap = flows._packet_flow.cache_info().maxsize
    n_flows = cap // 2 + 300
    lines = []
    for i in range(n_flows):
        src = f"10.{i // 250}.{i % 250}.1"
        payload = (malicious_payload(rng) if i % 7 == 0
                   else benign_payload(rng))
        lines += [packet_line(src, payload, ts=float(i)),
                  packet_line("10.0.9.9", "/ok", ts=i + 0.5, sport=80,
                              dst=src, dport=40000)]
    parse = engine_module.packet_from_json_line
    calls = []

    def counted(line):
        calls.append(line)
        return parse(line)

    def replay():
        report = make_engine(payload_classifier, ["10.1.0.0/24"]
                             ).run_replay(lines)
        actions = io.StringIO()
        write_actions_csv(report, actions)
        return json.dumps(report.to_dict()), actions.getvalue()

    flows._packet_flow.cache_clear()
    monkeypatch.setattr(engine_module, "packet_from_json_line", counted)
    cached = replay()
    assert calls == lines   # once a line, through the traced name
    assert flows._packet_flow.cache_info().currsize == cap   # evicted
    monkeypatch.setattr(flows, "_packet_flow", flows._packet_flow.__wrapped__)
    assert cached == replay()
    report = json.loads(cached[0])
    assert report["blacklist_blocks"] and report["classifier_blocks"]


def test_counters_consistent_with_action_log(payload_classifier):
    rng = np.random.default_rng(9)
    lines = []
    for i in range(4):
        payloads = [benign_payload(rng) if rng.random() < 0.7
                    else malicious_payload(rng) for _ in range(60)]
        lines += stream(f"10.0.6.{i}", payloads, sport=43000 + i)
    engine = make_engine(payload_classifier, ["10.0.6.2"])
    report = engine.run_replay(lines)
    by_kind_reason = {}
    for v in report.actions:
        by_kind_reason[(v.kind, v.reason)] = \
            by_kind_reason.get((v.kind, v.reason), 0) + 1
    assert report.blacklist_blocks == by_kind_reason.get(
        (VerdictKind.BLOCK, VerdictReason.BLACKLIST), 0)
    assert report.classifier_blocks == sum(
        n for (k, r), n in by_kind_reason.items()
        if k is VerdictKind.BLOCK and r is not VerdictReason.BLACKLIST)
    assert report.alerts == sum(n for (k, _), n in by_kind_reason.items()
                                if k is VerdictKind.ALERT)


def test_actions_csv_shape(payload_classifier, tmp_path):
    engine = make_engine(payload_classifier, ["10.0.7.1"])
    engine.run_replay([packet_line("10.0.7.1", "/x")])
    out = tmp_path / "actions.csv"
    with open(out, "w", newline="") as fp:
        write_actions_csv(engine.report, fp)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "ts,flow,kind,reason,score"
    assert len(lines) == 2 and "blacklist" in lines[1]


@contextlib.contextmanager
def score_batch(size):
    """Replays in the block plan and score ``size`` packets at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "SCORE_BATCH", size)
        yield


def _sampling_spy(engine):
    """The payloads of the packets ``engine`` samples, filled in as it
    processes them."""
    sampled, step = [], engine.process_packet

    def spy(packet):
        before = engine.report.packets_sampled
        verdict = step(packet)
        if engine.report.packets_sampled > before:
            sampled.append(packet.payload)
        return verdict

    engine.process_packet = spy
    return sampled


def _scored_replay(engine, lines, flow_lines=None):
    """Run the batched replay; return its bytes, the payloads it sampled
    and those of the planned (batch-scored) packets."""
    planned, plan = [], engine._plan

    def plan_spy(packets):
        rows = plan(packets)
        planned.extend(p.payload for p in rows)
        return rows

    engine._plan = plan_spy
    sampled = _sampling_spy(engine)
    report = engine.run_replay(lines, flow_lines)
    return _replay_bytes(report), sampled, planned


def _per_packet_replay(engine, lines, flow_lines=None):
    """The bytes of the replay that processed each packet as a batch of
    one, and the payloads it sampled."""
    sampled = _sampling_spy(engine)
    report = reference.streamed_replay(engine, lines, flow_lines)
    return _replay_bytes(report), sampled


def _assert_scored_once(sampled, planned):
    """Each planned packet (payloads are unique) was scored once, in its
    batch, and every sampled packet was planned."""
    assert len(set(sampled)) == len(sampled)
    assert len(set(planned)) == len(planned)
    assert set(sampled) <= set(planned)


_BLOCKING = {"first-hit": dict(block_on_first_hit=True),
             "count": dict(block_on_first_hit=False),
             "count-2": dict(block_on_first_hit=False,
                             window_hit_block_count=2)}


@given(_shuffled_stream(), st.sampled_from(sorted(_BLOCKING)),
       st.integers(0, 6), st.sampled_from([1, 2, 5, 256]))
@settings(max_examples=120, deadline=None)
def test_batched_replay_gives_the_per_packet_bytes(
        payload_classifier, lines, blocking, window, batch):
    """Scoring the planned packets of each batch at once gives the report
    and the actions of the replay that scored each sampled packet on its
    own, samples the same packets and scores each of them once."""
    cfg = dict(sampler=SamplerConfig(m=6, w_min=2, w_max=4),
               **_BLOCKING[blocking])
    with reorder_window(window):
        expected, expected_sampled = _per_packet_replay(
            make_engine(payload_classifier, ["10.0.7.3"], **cfg), lines)
        with score_batch(batch):
            got, sampled, planned = _scored_replay(
                make_engine(payload_classifier, ["10.0.7.3"], **cfg), lines)
    assert got == expected
    assert sampled == expected_sampled
    _assert_scored_once(sampled, planned)


@pytest.mark.parametrize("first_hit,hit_count", [(True, 1), (False, 2)])
def test_window_grown_by_hits_is_planned(
        payload_classifier, hand_tree, first_hit, hit_count):
    """Under count blocking a window of hits that does not block can grow
    the next window: the plan, which gives an epoch that starts in the
    batch the largest window, still holds every packet sampled, and the
    bytes stay those of the per-packet replay."""
    rng = np.random.default_rng(11)
    lines = []
    for flow in range(3):
        # one hit, in the first packet, in every third epoch of six; a
        # fragment of letters (digits would sway the model) names the packet
        payloads = [(malicious_payload(rng) if i % 18 == 6 * flow
                     else benign_payload(rng))
                    + f"#{'fgh'[flow]}{chr(97 + i // 26)}{chr(97 + i % 26)}"
                    for i in range(90)]
        lines += [packet_line(f"10.0.5.{flow}", p, ts=i + flow / 4,
                              sport=43000 + flow)
                  for i, p in enumerate(payloads)]
    flow_lines = ["src_ip,src_port,dst_ip,dst_port,proto,tls_version,ttl,"
                  "duration,fwd_pkts,bwd_pkts",
                  "10.0.5.9,443,10.0.9.9,50000,TCP,TLS1.2,120,1.5,10,12"]
    cfg = dict(sampler=SamplerConfig(m=6, w_min=2, w_max=4),
               block_on_first_hit=first_hit, window_hit_block_count=hit_count)
    expected, expected_sampled = _per_packet_replay(
        make_engine(payload_classifier, (), hand_tree, **cfg), lines,
        flow_lines)
    got, sampled, planned = _scored_replay(
        make_engine(payload_classifier, (), hand_tree, **cfg), lines,
        flow_lines)
    assert got == expected
    assert sampled and sampled == expected_sampled
    _assert_scored_once(sampled, planned)


def test_plan_bounds_the_windows_of_epochs_that_start_in_the_batch(
        payload_classifier):
    """One flow under count blocking, with several epochs a batch, whose
    hits move its window between 3 and 4: every sampled packet was
    planned, and a planned packet that was not sampled lies at a position
    in [window, w_max) of an epoch that started inside its batch."""
    config = SamplerConfig(m=6, w_min=2, w_max=4)
    rng = np.random.default_rng(12)
    # two epochs of hits, then two without; a fragment of letters (digits
    # would sway the model) names the packet
    payloads = [(malicious_payload(rng) if i // 12 % 2 == 0
                 else benign_payload(rng))
                + f"#{chr(97 + i // 26)}{chr(97 + i % 26)}"
                for i in range(120)]
    lines = stream("10.0.5.1", payloads)
    engine = make_engine(payload_classifier, sampler=config,
                         block_on_first_hit=False,
                         window_hit_block_count=config.w_max + 1)
    # (payload, position, window, whether its epoch started in its batch)
    rows, fresh = [], set()
    batch, step = engine._process_batch, engine.process_packet

    def batch_spy(packets):
        fresh.clear()
        return batch(packets)

    def step_spy(packet):
        state = engine._flows.get(packet.flow)
        position, window = ((0, config.w_min) if state is None else
                            (state.packets_in_epoch,
                             state.sampler.current_window))
        if position == 0:
            fresh.add(packet.flow)
        rows.append((packet.payload, position, window, packet.flow in fresh))
        return step(packet)

    engine._process_batch, engine.process_packet = batch_spy, step_spy
    # the second batch starts at position 2 of a 3-packet window
    with score_batch(26):
        _, sampled, planned = _scored_replay(engine, lines)
    _assert_scored_once(sampled, planned)
    assert sampled == [p for p, position, window, _ in rows
                       if position < window]
    windows = [window for _, position, window, _ in rows if position == 0]
    assert (3, 4) in zip(windows, windows[1:])   # grown by hits
    surplus = set(planned) - set(sampled)
    assert surplus
    for payload, position, window, started in rows:
        if payload in surplus:
            assert started and window <= position < config.w_max


@pytest.mark.parametrize("bad", [(257,), (256, 258), (1, 255, 514)])
def test_flow_rows_in_chunks_give_the_per_row_replay(payload_classifier,
                                                     hand_tree, bad):
    """More than ``SCORE_BATCH`` flow rows, with bad rows beside a chunk's
    edge: the replay holds at most ``SCORE_BATCH`` records and reports
    what the per-row replay does; strict, it stops at the first bad row
    with the report of the rows before it."""
    rows = flow_csv_rows(np.random.default_rng(5), 400, 300)
    for row_no in bad:
        fields = rows[row_no].split(",")
        fields[6] = "300"   # ttl
        rows[row_no] = ",".join(fields)
    packets = stream("10.0.9.1", ["/a", "/b"])

    def engine():
        return make_engine(payload_classifier, (), hand_tree)

    chunked = engine()
    chunks, process = [], chunked.process_encrypted_flows

    def spy(records):
        chunks.append(len(records))
        return process(records)

    chunked.process_encrypted_flows = spy
    assert _replay_bytes(chunked.run_replay(packets, rows)) == _replay_bytes(
        reference.streamed_replay(engine(), packets, rows))
    assert max(chunks) == engine_module.SCORE_BATCH
    assert sum(chunks) == 700 - len(bad)

    strict = engine()
    with pytest.raises(ReplayDataError,
                       match=f"^flow csv: row {bad[0]}: ttl out of range"):
        strict.run_replay(packets, rows, strict=True)
    assert _replay_bytes(strict.report) == _replay_bytes(
        reference.streamed_replay(engine(), packets, rows[:bad[0]]))
