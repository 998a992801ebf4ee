"""Two-stage inspection pipeline over an offline packet replay.

Stage one checks each new flow's observed source IP against the
blacklist.  Stage two samples the first w packets of every m-packet
epoch per flow, classifies unencrypted sampled payloads, feeds the hit
count back into the adaptive sampler, and classifies encrypted flows
from their metadata.  Block actions are simulated verdict events.

A replay scores its sampled payloads in batches: it plans which packets
of the next ``SCORE_BATCH`` would be sampled, scores them together and
then processes the packets one at a time, in order, reading the scores.
A sampled packet the plan missed is scored on its own, as a one-row
batch through the same ``Featurizer.featurize_batch`` and
``logistic.predict_proba``.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush, heappushpop
from typing import Iterable, Optional

from . import logistic, tree
from .blacklist import Blacklist, check_flow
from .encflow import EncryptedFlowRecord, FlowRowError, encode, read_flow_csv
from .flows import (Direction, FlowKey, FlowParseError, PacketRecord, Verdict,
                    VerdictKind, VerdictReason, packet_from_json_line)
from .sampler import AdaptiveSampler, SamplerConfig, advance
from .textfeat import Featurizer

log = logging.getLogger(__name__)


REORDER_WINDOW = 4096   # packets a replay holds back to restore ts order
SCORE_BATCH = 256   # packets a replay plans, scores and processes together


class EngineConfigError(ValueError):
    """Engine wired up with inconsistent models or parameters."""


class ReplayDataError(ValueError):
    """Malformed input record in strict replay mode."""


@dataclass(frozen=True)
class EngineConfig:
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    block_threshold: float = 0.5   # a score equal to it is malicious
    block_on_first_hit: bool = True
    window_hit_block_count: int = 1   # used when block_on_first_hit is off

    def __post_init__(self):
        if not 0.0 < self.block_threshold < 1.0:
            raise EngineConfigError("block_threshold must be in (0,1)")
        if self.window_hit_block_count < 1:
            raise EngineConfigError("window_hit_block_count must be >= 1")


@dataclass
class FlowState:
    key: FlowKey
    sampler: AdaptiveSampler
    packets_in_epoch: int = 0
    window_hits: int = 0
    max_window_score: float = 0.0
    epoch_index: int = 0
    blocked: bool = False


@dataclass
class EngineReport:
    flows_seen: int = 0
    packets_seen: int = 0
    packets_sampled: int = 0
    packets_dropped: int = 0
    encrypted_flows: int = 0
    blacklist_blocks: int = 0
    classifier_blocks: int = 0
    alerts: int = 0
    actions: list[Verdict] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "flows_seen": self.flows_seen,
            "packets_seen": self.packets_seen,
            "packets_sampled": self.packets_sampled,
            "packets_dropped": self.packets_dropped,
            "encrypted_flows": self.encrypted_flows,
            "blacklist_blocks": self.blacklist_blocks,
            "classifier_blocks": self.classifier_blocks,
            "alerts": self.alerts,
            "actions": [v.to_dict() for v in self.actions],
            "errors": list(self.errors),
        }


def write_actions_csv(report: EngineReport, fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["ts", "flow", "kind", "reason", "score"])
    for v in report.actions:
        writer.writerow([
            "" if v.timestamp is None else repr(v.timestamp),
            str(v.flow), v.kind.value, v.reason.value,
            "" if v.score is None else repr(v.score),
        ])


class Engine:
    """Holds per-flow state and emits verdicts for replayed traffic."""

    def __init__(self, blacklist: Blacklist, featurizer: Featurizer,
                 payload_model: logistic.LogisticModel,
                 tree_model: Optional[tree.DecisionTreeModel] = None,
                 config: EngineConfig = EngineConfig()):
        if payload_model.dim != featurizer.dim:
            raise EngineConfigError(
                f"payload model dimension {payload_model.dim} does not "
                f"match featurizer dimension {featurizer.dim}")
        self.blacklist = blacklist
        self.featurizer = featurizer
        self.payload_model = payload_model
        self.tree_model = tree_model
        self.config = config
        self.report = EngineReport()
        self._flows: dict[FlowKey, FlowState] = {}
        self._scores: dict[int, float] = {}   # id(packet) -> planned score

    def _emit(self, verdict: Verdict) -> Verdict:
        self.report.actions.append(verdict)
        if verdict.kind is VerdictKind.BLOCK:
            if verdict.reason is VerdictReason.BLACKLIST:
                self.report.blacklist_blocks += 1
            else:
                self.report.classifier_blocks += 1
        elif verdict.kind is VerdictKind.ALERT:
            self.report.alerts += 1
        return verdict

    def _new_flow(self, packet: PacketRecord) -> FlowState:
        self.report.flows_seen += 1
        state = FlowState(packet.flow, AdaptiveSampler(self.config.sampler))
        self._flows[packet.flow] = state
        return state

    def score(self, payload: str) -> float:
        """The payload classifier's score of one payload, as a one-row
        batch: bit for bit its score in a batch of any size."""
        return float(logistic.predict_proba(
            self.payload_model, self.featurizer.featurize(payload))[0])

    def process_packet(self, packet: PacketRecord) -> Optional[Verdict]:
        state = self._flows.get(packet.flow)
        new_flow = state is None
        if new_flow:
            state = self._new_flow(packet)
        self.report.packets_seen += 1
        if new_flow:
            # blacklist check happens once, on flow creation
            src = (packet.flow.src_ip if packet.direction is Direction.FORWARD
                   else packet.flow.dst_ip)
            if check_flow(self.blacklist, src):
                state.blocked = True
                return self._emit(Verdict(VerdictKind.BLOCK, packet.flow,
                                          VerdictReason.BLACKLIST,
                                          timestamp=packet.timestamp))
        if state.blocked:
            self.report.packets_dropped += 1
            return None

        position = state.packets_in_epoch
        state.packets_in_epoch += 1
        verdict = None
        if position < state.sampler.current_window and not packet.encrypted:
            self.report.packets_sampled += 1
            score = self._scores.get(id(packet))
            if score is None:   # not planned: a window grew on a hit
                score = self.score(packet.payload_text())
            if score >= self.config.block_threshold:
                state.window_hits += 1
                state.max_window_score = max(state.max_window_score, score)
                if self.config.block_on_first_hit:
                    state.blocked = True
                    return self._emit(Verdict(
                        VerdictKind.BLOCK, packet.flow,
                        VerdictReason.PAYLOAD_CLASSIFIER, score,
                        packet.timestamp))
                verdict = self._emit(Verdict(
                    VerdictKind.ALERT, packet.flow,
                    VerdictReason.PAYLOAD_CLASSIFIER, score,
                    packet.timestamp))

        if state.packets_in_epoch >= self.config.sampler.m:
            delta = state.window_hits
            max_score = state.max_window_score
            state.sampler.step(delta)
            state.packets_in_epoch = 0
            state.window_hits = 0
            state.max_window_score = 0.0
            state.epoch_index += 1
            if (not self.config.block_on_first_hit
                    and delta >= self.config.window_hit_block_count):
                state.blocked = True
                verdict = self._emit(Verdict(
                    VerdictKind.BLOCK, packet.flow,
                    VerdictReason.PAYLOAD_CLASSIFIER, max_score,
                    packet.timestamp))
        return verdict

    def _plan(self, packets: list[PacketRecord]) -> list[PacketRecord]:
        """The packets that ``process_packet`` would sample, in order, if
        none of them scored a hit, read from the flow states and left
        them as they are.  A new flow is taken to be off the blacklist.
        Under first-hit blocking a hit blocks its flow, so every sampled
        packet is planned; a window of hits under count blocking can
        grow the next window past the plan."""
        flows, config = self._flows, self.config.sampler
        m, w_min, keep = config.m, config.w_min, config.history_len
        planned = []
        # flow -> [blocked, packets_in_epoch, window, sampler history]
        plans: dict[FlowKey, list] = {}
        for packet in packets:
            plan = plans.get(packet.flow)
            if plan is None:
                state = flows.get(packet.flow)
                plan = plans[packet.flow] = (
                    [False, 0, w_min, ()] if state is None else
                    [state.blocked, state.packets_in_epoch,
                     state.sampler.current_window, state.sampler.history])
            if plan[0]:
                continue
            position = plan[1]
            plan[1] += 1
            if position < plan[2] and not packet.encrypted:
                planned.append(packet)
            if plan[1] >= m:
                history = [*plan[3], (plan[2], 0)][-keep:]
                plan[1], plan[2], plan[3] = (
                    0, advance(config, history, plan[2], 0)[2], history)
        return planned

    def _process_batch(self, packets: list[PacketRecord]) -> None:
        """Score the planned packets in one ``logistic.predict_proba``
        call, then process every packet in order."""
        planned = self._plan(packets)
        if planned:
            X = self.featurizer.featurize_batch(
                [packet.payload_text() for packet in planned])
            scores = logistic.predict_proba(self.payload_model, X).tolist()
            self._scores = dict(zip(map(id, planned), scores))
        process = self.process_packet
        try:
            for packet in packets:
                process(packet)
        finally:
            self._scores = {}

    def process_encrypted_flow(self,
                               record: EncryptedFlowRecord) -> Verdict:
        if self.tree_model is None:
            raise EngineConfigError(
                "encrypted-flow classification requires a tree model")
        self.report.encrypted_flows += 1
        klass, proba = tree.predict_one(self.tree_model, encode(record))
        if klass == 1:
            return self._emit(Verdict(VerdictKind.BLOCK, record.flow,
                                      VerdictReason.ENCRYPTED_CLASSIFIER,
                                      proba))
        return Verdict(VerdictKind.PASS, record.flow,
                       VerdictReason.ENCRYPTED_CLASSIFIER, proba)

    def _reject(self, message: str, strict: bool) -> None:
        if strict:
            raise ReplayDataError(message)
        log.warning("%s", message)
        self.report.errors.append(message)

    def run_replay(self, packet_lines: Iterable[str],
                   flow_lines: Optional[Iterable[str]] = None,
                   strict: bool = False) -> EngineReport:
        """Process a packet JSONL stream and then an optional
        encrypted-flow CSV, each read one line at a time.

        Packets pass through a heap ordered by (timestamp, line number);
        once it holds more than ``REORDER_WINDOW`` packets, the smallest
        is let go.  A stream whose packets all fit in the window is thus
        processed in a stable sort by timestamp.  A packet older than one
        the heap already let go is late: it is reported and let go at
        once, in arrival order, never dropped.  Packets let go wait in
        arrival order until ``SCORE_BATCH`` of them are processed as one
        batch, so a replay holds at most ``REORDER_WINDOW +
        SCORE_BATCH`` packets.  Malformed records, late packets and the
        lines the blacklist could not read are reported with their line
        numbers; strict mode aborts on the first instead."""
        if flow_lines is not None and self.tree_model is None:
            raise EngineConfigError(
                "flow stream given but no tree model loaded")
        for message in self.blacklist.errors:
            self._reject(message, strict)
        parse = packet_from_json_line
        window, batch = REORDER_WINDOW, SCORE_BATCH
        held = []   # heap of (ts, line_no, packet)
        released = -math.inf   # the timestamp of the last held packet out
        pending = []   # packets let go, in order, not yet processed
        for line_no, line in enumerate(packet_lines, start=1):
            if not line.strip():
                continue
            try:
                packet = parse(line)
            except FlowParseError as exc:
                self._reject(f"packet line {line_no}: {exc}", strict)
                continue
            ts = packet.timestamp
            if ts < released:
                self._reject(f"packet line {line_no}: late: ts {ts!r} came "
                             f"after ts {released!r} left the {window}-packet "
                             f"reorder window; inspected in arrival order",
                             strict)
            elif len(held) < window:
                heappush(held, (ts, line_no, packet))
                continue
            else:
                released, _, packet = heappushpop(held, (ts, line_no, packet))
            pending.append(packet)
            if len(pending) == batch:
                self._process_batch(pending)
                pending = []
        pending += (heappop(held)[2] for _ in range(len(held)))
        for start in range(0, len(pending), batch):
            self._process_batch(pending[start:start + batch])
        if flow_lines is not None:
            for record in read_flow_csv(flow_lines):
                if isinstance(record, FlowRowError):
                    self._reject(f"flow csv: {record}", strict)
                else:
                    self.process_encrypted_flow(record)
        return self.report
