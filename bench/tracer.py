"""Per-layer spans for the traced run.

``install(command)`` replaces public attributes of the ``flowdpi``
modules with timing wrappers, inside the child process that runs one
command; ``dump(path)`` writes what they recorded. ``layer_metrics``
turns the dumps of one round into the per-layer metrics.

A span's self time is its duration minus the durations of the wrapped
spans that ran inside it. An attribute that no longer exists is listed
as missing, and every metric that needs it is reported as not measured.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

THRESHOLD = 0.5
CALLS, TOTAL, SELF = 0, 1, 2   # fields of a span record

# spans wrapped per command: (module, attribute path)
SPANS = {
    "replay": [
        ("flowdpi.cli", "cmd_replay"),
        ("flowdpi.persistence", "load_payload_model"),
        ("flowdpi.persistence", "load_tree_model"),
        ("flowdpi.engine", "Engine.run_replay"),
        ("flowdpi.engine", "packet_from_json_line"),
        ("flowdpi.engine", "Engine.process_packet"),
        ("flowdpi.engine", "check_flow"),
        ("flowdpi.textfeat", "Featurizer.featurize"),
        ("flowdpi.logistic", "predict_proba"),
        ("flowdpi.sampler", "AdaptiveSampler.step"),
        ("flowdpi.encflow", "parse_flow_row"),
        ("flowdpi.tree", "predict_one"),
    ],
    "train-payload": [
        ("flowdpi.cli", "fit_featurizer"),
        ("flowdpi.textfeat", "Featurizer.featurize"),
        ("flowdpi.cli", "stack_dense"),
        ("flowdpi.logistic", "train"),
        ("flowdpi.logistic", "loss_grad"),
        ("flowdpi.metrics", "stratified_kfold"),
        ("flowdpi.persistence", "save_payload_model"),
    ],
    "train-encrypted": [
        ("flowdpi.encflow", "parse_flow_row"),
        ("flowdpi.tree", "train"),
        ("flowdpi.tree", "predict"),
    ],
    "eval": [
        ("flowdpi.metrics", "evaluate"),
        ("flowdpi.tree", "predict_proba"),
        ("flowdpi.logistic", "predict_proba"),
        ("flowdpi.cli", "stack_dense"),
        ("flowdpi.persistence", "load_payload_model"),
        ("flowdpi.persistence", "load_tree_model"),
    ],
}


def span_name(module: str, path: str) -> str:
    return f"{module.split('.')[-1]}.{path}"


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[float]] = {}   # name -> record
        self.values: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []

    def wrap(self, module: str, path: str, on_result=None) -> None:
        name = span_name(module, path)
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(name)
            return
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                took = perf_counter() - start
                inner = stack.pop()
                record[CALLS] += 1
                record[TOTAL] += took
                record[SELF] += took - inner
                if stack:
                    stack[-1] += took
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0.0) + amount

    def peak(self, key: str, amount: float) -> None:
        self.values[key] = max(self.values.get(key, 0.0), amount)

    def install(self, command: str) -> None:
        hooks = {
            ("replay", "logistic.predict_proba"):
                lambda s: self.add("hits", float((s >= THRESHOLD).sum())),
            ("train-payload", "cli.stack_dense"):
                lambda x: self.peak("matrix_bytes", float(x.nbytes)),
            ("train-payload", "logistic.train"):
                lambda r: self.add("iters", float(r[1].n_iter)),
            ("train-encrypted", "tree.train"):
                lambda m: self.values.__setitem__("nodes",
                                                  float(len(m.nodes))),
        }
        for module, path in SPANS[command]:
            self.wrap(module, path,
                      hooks.get((command, span_name(module, path))))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"spans": self.spans, "values": self.values,
                       "missing": self.missing}, fp)


# per-layer metrics: name -> (unit, command, how to compute from the dump)
def _per_call(span, scale, field=TOTAL):
    def f(d):
        rec = d["spans"][span]
        return rec[field] / rec[CALLS] * scale if rec[CALLS] else 0.0
    return f, [span]


def _field(span, index):
    return (lambda d: d["spans"][span][index]), [span]


def _total(*spans, scale=1.0):
    return (lambda d: sum(d["spans"][s][TOTAL] for s in spans) * scale), \
        list(spans)


def _value(key, span, scale=1.0):
    return (lambda d: d["values"].get(key, 0.0) * scale), [span]


LAYER_METRICS = {
    "replay.flows.parse_us": ("us", "replay",
                              _per_call("engine.packet_from_json_line", 1e6)),
    "replay.flows.parse_calls": ("count", "replay", _field(
        "engine.packet_from_json_line", CALLS)),
    "replay.engine.run_self_s": ("s", "replay",
                                 _field("engine.Engine.run_replay", SELF)),
    "replay.engine.packet_self_us": ("us", "replay", _per_call(
        "engine.Engine.process_packet", 1e6, SELF)),
    "replay.blacklist.check_us": ("us", "replay",
                                  _per_call("engine.check_flow", 1e6)),
    "replay.blacklist.checks": ("count", "replay",
                                _field("engine.check_flow", CALLS)),
    "replay.textfeat.featurize_us": ("us", "replay", _per_call(
        "textfeat.Featurizer.featurize", 1e6)),
    "replay.textfeat.featurize_calls": ("count", "replay", _field(
        "textfeat.Featurizer.featurize", CALLS)),
    "replay.logistic.score_us": ("us", "replay",
                                 _per_call("logistic.predict_proba", 1e6)),
    "replay.sampler.step_us": ("us", "replay", _per_call(
        "sampler.AdaptiveSampler.step", 1e6)),
    "replay.sampler.steps": ("count", "replay", _field(
        "sampler.AdaptiveSampler.step", CALLS)),
    "replay.encflow.row_us": ("us", "replay",
                              _per_call("encflow.parse_flow_row", 1e6)),
    "replay.encflow.rows": ("count", "replay",
                            _field("encflow.parse_flow_row", CALLS)),
    "replay.tree.predict_us": ("us", "replay",
                               _per_call("tree.predict_one", 1e6)),
    "replay.tree.predict_calls": ("count", "replay",
                                  _field("tree.predict_one", CALLS)),
    "replay.persistence.load_s": ("s", "replay", _total(
        "persistence.load_payload_model", "persistence.load_tree_model")),
    "replay.cli.self_s": ("s", "replay", _field("cli.cmd_replay", SELF)),
    "train_payload.textfeat.fit_s": ("s", "train-payload",
                                     _total("cli.fit_featurizer")),
    "train_payload.textfeat.featurize_s": ("s", "train-payload", _total(
        "textfeat.Featurizer.featurize")),
    "train_payload.textfeat.stack_s": ("s", "train-payload",
                                       _total("cli.stack_dense")),
    "train_payload.textfeat.matrix_mb": ("MB", "train-payload", _value(
        "matrix_bytes", "cli.stack_dense", 1 / 2**20)),
    "train_payload.logistic.train_s": ("s", "train-payload",
                                       _total("logistic.train")),
    "train_payload.logistic.iters": ("count", "train-payload",
                                     _value("iters", "logistic.train")),
    "train_payload.logistic.loss_grad_ms": ("ms", "train-payload",
                                            _per_call("logistic.loss_grad",
                                                      1e3)),
    "train_payload.logistic.loss_grad_calls": ("count", "train-payload",
                                               _field("logistic.loss_grad",
                                                      CALLS)),
    "train_payload.metrics.kfold_ms": ("ms", "train-payload", _total(
        "metrics.stratified_kfold", scale=1e3)),
    "train_payload.persistence.save_s": ("s", "train-payload", _total(
        "persistence.save_payload_model")),
    "train_encrypted.encflow.row_us": ("us", "train-encrypted", _per_call(
        "encflow.parse_flow_row", 1e6)),
    "train_encrypted.tree.train_s": ("s", "train-encrypted",
                                     _total("tree.train")),
    "train_encrypted.tree.nodes": ("count", "train-encrypted",
                                   _value("nodes", "tree.train")),
    "train_encrypted.tree.predict_s": ("s", "train-encrypted",
                                       _total("tree.predict")),
    "eval.metrics.evaluate_ms": ("ms", "eval", _total("metrics.evaluate",
                                                      scale=1e3)),
    "eval.tree.predict_proba_s": ("s", "eval", _total("tree.predict_proba")),
    "eval.logistic.predict_proba_s": ("s", "eval",
                                      _total("logistic.predict_proba")),
    "eval.textfeat.stack_s": ("s", "eval", _total("cli.stack_dense")),
    "eval.persistence.load_s": ("s", "eval", _total(
        "persistence.load_payload_model", "persistence.load_tree_model")),
}


def merge(dumps: list[dict]) -> dict:
    """Sum the dumps of several runs of one command (the two evals)."""
    out = {"spans": {}, "values": {}, "missing": []}
    for d in dumps:
        for name, rec in d["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for key, v in d["values"].items():
            out["values"][key] = out["values"].get(key, 0.0) + v
        out["missing"] += [m for m in d["missing"] if m not in out["missing"]]
    return out


def layer_metrics(dumps: dict[str, dict],
                  report: dict) -> dict[str, float | None]:
    """Per-layer values of one traced round. ``dumps`` maps a command to
    its (merged) dump; ``report`` is the replay's JSON report. None marks
    a metric whose wrapped attribute no longer exists."""
    out: dict[str, float | None] = {}
    for name, (_, command, (compute, needs)) in LAYER_METRICS.items():
        dump = dumps[command]
        out[name] = (None if any(s in dump["missing"] for s in needs)
                     else float(compute(dump)))
    sampled = report.get("packets_sampled")
    out["replay.engine.packets_sampled"] = (None if sampled is None
                                            else float(sampled))
    hits = (None if "logistic.predict_proba" in dumps["replay"]["missing"]
            else dumps["replay"]["values"].get("hits", 0.0))
    out["replay.sampler.hit_ratio"] = (
        None if hits is None or sampled is None
        else hits / sampled if sampled else 0.0)
    return out


PER_LAYER_UNITS = {name: unit for name, (unit, _, _) in
                   LAYER_METRICS.items()}
PER_LAYER_UNITS["replay.engine.packets_sampled"] = "count"
PER_LAYER_UNITS["replay.sampler.hit_ratio"] = "ratio"
