"""Command-line interface: training, evaluation, replay and sampler
tracing.

Exit codes: 0 success, 1 usage error, 2 data error, 3 model/config
mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import logistic, metrics, persistence, tree
from .blacklist import load_blacklist
from .encflow import FlowRowError, encode, read_flow_csv
from .engine import (Engine, EngineConfig, EngineConfigError,
                     ReplayDataError, write_actions_csv)
from .flows import FlowParseError, labeled_payload_from_json_line
from .sampler import SamplerConfig, trace
from .textfeat import fit_featurizer, stack_dense, tokenize

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def integer(text: str) -> int:
    """``int`` of ASCII text: no ``_`` separators, no non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def number(text: str) -> float:
    """``float`` of ASCII text: no ``_`` separators, no non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return float(text)


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")

# (flag dest, config-file key, type, default)
_OPTION_SPEC = [
    ("seed", integer, 42),
    ("lam", number, 1.0),
    ("lr", number, 0.5),
    ("max_iters", integer, 5000),
    ("k_folds", integer, 5),
    ("m", integer, 100),
    ("w_min", integer, 5),
    ("w_max", integer, 15),
    ("history", integer, 10),
    ("threshold", number, 0.5),
]
_OPTION_TYPES = {name: typ for name, typ, _ in _OPTION_SPEC}
_OPTION_DEFAULTS = {name: default for name, _, default in _OPTION_SPEC}


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value config file; command-line flags "
                             "override it")
    parser.add_argument("--seed", type=integer, default=None)
    parser.add_argument("--lambda", dest="lam", type=number, default=None,
                        help="L2 strength for logistic regression")
    parser.add_argument("--lr", type=number, default=None,
                        help="gradient-descent learning rate")
    parser.add_argument("--max-iters", type=integer, default=None)
    parser.add_argument("--k-folds", type=integer, default=None)
    parser.add_argument("--m", type=integer, default=None,
                        help="packets per sampling epoch")
    parser.add_argument("--w-min", type=integer, default=None)
    parser.add_argument("--w-max", type=integer, default=None)
    parser.add_argument("--history", type=integer, default=None,
                        help="sampler history length")
    parser.add_argument("--threshold", type=number, default=None,
                        help="block threshold on classifier scores")
    parser.add_argument("--strict", action="store_true", default=None,
                        help="abort on malformed input records")


def _load_config_file(path: Path) -> dict:
    values = {}
    known = set(_OPTION_TYPES) | {"strict"}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read config file: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        key = key.replace("-", "_")
        if key not in known:
            raise UsageError(f"{path}:{line_no}: unknown key {key!r}")
        if key == "strict":
            word = value.lower()
            if word not in _TRUE_WORDS + _FALSE_WORDS:
                raise UsageError(
                    f"{path}:{line_no}: strict must be one of "
                    f"{', '.join(_TRUE_WORDS + _FALSE_WORDS)}: {value!r}")
            values[key] = word in _TRUE_WORDS
        else:
            try:
                values[key] = _OPTION_TYPES[key](value)
            except ValueError as exc:
                raise UsageError(f"{path}:{line_no}: {key}: {exc}") from exc
    return values


def _resolve_options(args: argparse.Namespace) -> None:
    """Fill unset options from the config file, then from defaults."""
    from_file = _load_config_file(args.config) if args.config else {}
    for name, default in _OPTION_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, from_file.get(name, default))
    if args.strict is None:
        args.strict = from_file.get("strict", False)


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(m=args.m, w_min=args.w_min, w_max=args.w_max,
                         history_len=args.history)


def _read_labeled_corpus(path: Path):
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read corpus: {exc}") from exc
    payloads, labels = [], []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = labeled_payload_from_json_line(line)
        except FlowParseError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
        payloads.append(record.payload)
        labels.append(record.label)
    if not payloads:
        raise DataError(f"{path}: empty corpus")
    return payloads, np.array(labels, dtype=int)


def _read_labeled_flows(path: Path):
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read flow csv: {exc}") from exc
    X, y = [], []
    try:
        for record in read_flow_csv(lines):
            if record.label is None:
                raise DataError(f"{path}: unlabeled row in training data")
            X.append(encode(record))
            y.append(record.label)
    except FlowRowError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not X:
        raise DataError(f"{path}: no flow rows")
    return np.array(X), np.array(y, dtype=int)


def _print_cv_table(fold_metrics: list[metrics.Metrics]) -> None:
    print("fold  accuracy  precision  recall    fpr       f1")
    for i, m in enumerate(fold_metrics):
        print(f"{i:>4}  {m.accuracy:.6f}  {m.precision:.6f}  "
              f"{m.recall:.6f}  {m.fpr:.6f}  {m.f1:.6f}")
    mean = {name: float(np.mean([getattr(m, name) for m in fold_metrics]))
            for name in ("accuracy", "precision", "recall", "fpr", "f1")}
    print(f"mean  {mean['accuracy']:.6f}  {mean['precision']:.6f}  "
          f"{mean['recall']:.6f}  {mean['fpr']:.6f}  {mean['f1']:.6f}")


def cmd_train_payload(args) -> int:
    payloads, y = _read_labeled_corpus(args.corpus)
    if np.unique(y).size < 2:
        raise DataError("corpus contains a single class")
    hyper = logistic.LogisticHyper(lam=args.lam, learning_rate=args.lr,
                                   max_iters=args.max_iters)

    corpus = tokenize(payloads)

    def fit_predict(train_idx, held_out):
        featurizer = fit_featurizer(corpus, train_idx)
        X_train = stack_dense(featurizer, corpus, train_idx)
        model, _ = logistic.train(X_train, y[train_idx], hyper)
        X_val = stack_dense(featurizer, corpus, held_out)
        return logistic.predict_proba(model, X_val) >= args.threshold

    _print_cv_table(metrics.cross_validate(y, args.k_folds, args.seed,
                                           fit_predict))

    featurizer = fit_featurizer(corpus)
    X = stack_dense(featurizer, corpus)
    model, info = logistic.train(X, y, hyper)
    persistence.save_payload_model(args.model_out, featurizer, model)
    print(f"wrote {args.model_out} "
          f"(dim={model.dim}, iters={info.n_iter}, "
          f"final_loss={info.losses[-1]:.6f})")
    return EXIT_OK


def cmd_train_encrypted(args) -> int:
    X, y = _read_labeled_flows(args.flows)
    if np.unique(y).size < 2:
        raise DataError("flow data contains a single class")
    hyper = tree.TreeHyper()

    def fit_predict(train_idx, held_out):
        return tree.predict(tree.train(X[train_idx], y[train_idx], hyper),
                            X[held_out])

    _print_cv_table(metrics.cross_validate(y, args.k_folds, args.seed,
                                           fit_predict))

    model = tree.train(X, y, hyper)
    persistence.save_tree_model(args.model_out, model)
    print(f"wrote {args.model_out} ({len(model.nodes)} nodes)")
    return EXIT_OK


def _write_curve_csv(path: Path, header: tuple[str, str, str],
                     points) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(header)
        for thr, x, yv in points:
            writer.writerow([repr(thr), repr(x), repr(yv)])


def cmd_eval(args) -> int:
    schema = persistence.peek_schema(args.model)
    if schema == persistence.PAYLOAD_SCHEMA:
        featurizer, model = persistence.load_payload_model(args.model)
        payloads, y = _read_labeled_corpus(args.dataset)
        X = stack_dense(featurizer, tokenize(payloads))
        scores = logistic.predict_proba(model, X)
    elif schema == persistence.TREE_SCHEMA:
        model = persistence.load_tree_model(args.model)
        X, y = _read_labeled_flows(args.dataset)
        scores = tree.predict_proba(model, X)
    else:
        raise persistence.ModelFormatError(
            f"unknown model schema {schema!r}")
    report = metrics.evaluate(y, scores, threshold=args.threshold)
    report_out = Path(args.report_out)
    with open(report_out, "w", encoding="utf-8") as fp:
        json.dump(report.to_dict(), fp, indent=1)
        fp.write("\n")
    roc_out = args.roc_out or report_out.with_suffix(".roc.csv")
    pr_out = args.pr_out or report_out.with_suffix(".pr.csv")
    _write_curve_csv(roc_out, ("threshold", "fpr", "tpr"), report.roc_points)
    _write_curve_csv(pr_out, ("threshold", "recall", "precision"),
                     report.pr_points)
    m = report.metrics
    auc = "n/a" if report.auc is None else f"{report.auc:.6f}"
    print(f"accuracy={m.accuracy:.6f} precision={m.precision:.6f} "
          f"recall={m.recall:.6f} fpr={m.fpr:.6f} f1={m.f1:.6f} auc={auc}")
    print(f"wrote {report_out}, {roc_out}, {pr_out}")
    return EXIT_OK


def cmd_replay(args) -> int:
    try:
        blacklist_lines = args.blacklist.read_text(
            encoding="utf-8").splitlines()
        packet_lines = args.packets.read_text(encoding="utf-8").splitlines()
        flow_lines = (args.flows.read_text(encoding="utf-8").splitlines()
                      if args.flows else None)
    except OSError as exc:
        raise DataError(str(exc)) from exc
    blacklist = load_blacklist(blacklist_lines,
                               source_name=str(args.blacklist))
    featurizer, payload_model = persistence.load_payload_model(
        args.payload_model)
    tree_model = (persistence.load_tree_model(args.tree_model)
                  if args.tree_model else None)
    config = EngineConfig(sampler=_sampler_config(args),
                          block_threshold=args.threshold,
                          block_on_first_hit=not args.count_blocking,
                          window_hit_block_count=args.block_hit_count)
    engine = Engine(blacklist, featurizer, payload_model, tree_model, config)
    try:
        report = engine.run_replay(packet_lines, flow_lines,
                                   strict=args.strict)
    except ReplayDataError as exc:
        raise DataError(str(exc)) from exc
    with open(args.report_out, "w", encoding="utf-8") as fp:
        json.dump(report.to_dict(), fp, indent=1)
        fp.write("\n")
    with open(args.actions_out, "w", encoding="utf-8", newline="") as fp:
        write_actions_csv(report, fp)
    print(f"flows={report.flows_seen} packets={report.packets_seen} "
          f"sampled={report.packets_sampled} "
          f"blacklist_blocks={report.blacklist_blocks} "
          f"classifier_blocks={report.classifier_blocks} "
          f"alerts={report.alerts}")
    print(f"wrote {args.report_out}, {args.actions_out}")
    return EXIT_OK


def cmd_sample_trace(args) -> int:
    try:
        lines = args.input.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read delta csv: {exc}") from exc
    deltas = []
    for line_no, line in enumerate(lines, start=1):
        cell = line.split(",", 1)[0].strip()
        if not cell or (line_no == 1 and cell.lower() == "delta"):
            continue
        if cell.startswith("-") and cell[1:].isascii() \
                and cell[1:].isdigit():
            raise DataError(f"{args.input}:{line_no}: negative hit count "
                            f"{cell!r}")
        if not (cell.isascii() and cell.isdigit()):
            raise DataError(f"{args.input}:{line_no}: hit count {cell!r} "
                            f"is not a whole number in ASCII digits")
        deltas.append(int(cell))
    rows = trace(_sampler_config(args), deltas)
    out = open(args.output, "w", encoding="utf-8", newline="") \
        if args.output else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["step", "w", "delta", "delta_hat", "dw_next"])
        for row in rows:
            writer.writerow([
                row.step, row.w, row.delta,
                "" if row.predicted is None else repr(row.predicted),
                "" if row.dw_next is None else repr(row.dw_next),
            ])
    finally:
        if args.output:
            out.close()
    if args.output:
        print(f"wrote {args.output}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="flowdpi",
                     description="Adaptive deep packet inspection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-payload",
                       help="fit featurizer + logistic model on a labeled "
                            "payload corpus (JSONL)")
    p.add_argument("corpus", type=Path)
    p.add_argument("model_out", type=Path)
    _add_common_options(p)
    p.set_defaults(func=cmd_train_payload)

    p = sub.add_parser("train-encrypted",
                       help="fit a decision tree on a labeled encrypted "
                            "flow CSV")
    p.add_argument("flows", type=Path)
    p.add_argument("model_out", type=Path)
    _add_common_options(p)
    p.set_defaults(func=cmd_train_encrypted)

    p = sub.add_parser("eval",
                       help="evaluate a saved model on a labeled dataset")
    p.add_argument("model", type=Path)
    p.add_argument("dataset", type=Path)
    p.add_argument("--report-out", type=Path, required=True)
    p.add_argument("--roc-out", type=Path, default=None)
    p.add_argument("--pr-out", type=Path, default=None)
    _add_common_options(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("replay",
                       help="replay a packet stream through the full "
                            "two-stage pipeline")
    p.add_argument("--packets", type=Path, required=True)
    p.add_argument("--blacklist", type=Path, required=True)
    p.add_argument("--payload-model", type=Path, required=True)
    p.add_argument("--flows", type=Path, default=None,
                   help="encrypted flow CSV (needs --tree-model)")
    p.add_argument("--tree-model", type=Path, default=None)
    p.add_argument("--report-out", type=Path, required=True)
    p.add_argument("--actions-out", type=Path, required=True)
    p.add_argument("--count-blocking", action="store_true",
                   help="block on per-window hit count instead of first hit")
    p.add_argument("--block-hit-count", type=int, default=1)
    _add_common_options(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("sample-trace",
                       help="replay per-window hit counts through the "
                            "adaptive sampler")
    p.add_argument("input", type=Path,
                   help="CSV of per-window malicious counts "
                        "(column 'delta' or headerless)")
    p.add_argument("--output", type=Path, default=None)
    _add_common_options(p)
    p.set_defaults(func=cmd_sample_trace)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve_options(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, persistence.ModelReadError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (persistence.ModelFormatError, EngineConfigError,
            ValueError) as exc:
        print(f"model/config error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
