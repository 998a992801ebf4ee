"""Command-line interface: training, evaluation, replay and sampler
tracing.

Exit codes: 0 success, 1 usage error, 2 data error, 3 model/config
mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import logistic, metrics, persistence, tree
from .blacklist import load_blacklist
from .encflow import FlowRowError, encode_all, read_flow_csv
from .engine import (Engine, EngineConfig, EngineConfigError,
                     ReplayDataError, write_actions_csv)
from .flows import (FlowParseError, labeled_payload_from_json_line,
                    parse_uint)
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


_SWITCH_WORDS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


def boolean(text: str) -> bool:
    """A switch in a config file; on the command line it takes no value."""
    if text.lower() not in _SWITCH_WORDS:
        raise ValueError(f"must be one of {', '.join(_SWITCH_WORDS)}: "
                         f"{text!r}")
    return _SWITCH_WORDS[text.lower()]


def _within(value, interval: str) -> bool:
    """Whether ``value`` lies in ``interval``, e.g. "[0, inf)"; NaN never
    does."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    return ((low <= value if interval[0] == "[" else low < value)
            and (value <= high if interval[-1] == "]" else value < high))


class Option(NamedTuple):
    """A tuning option: ``--flag`` on the commands that read it, and the
    config-file key ``flag`` (with ``-`` or ``_``) for every command."""
    flag: str
    type: Callable[[str], object]   # int, float or boolean
    range: Optional[str]   # None: checked by the library, if at all
    default: object
    help: str
    commands: tuple[str, ...]

    @property
    def dest(self) -> str:
        return self.flag.replace("-", "_")

    def parse(self, text: str):
        """The value of ``text``: ASCII, no ``_`` separators, in range."""
        try:
            if not text.isascii() or "_" in text:
                raise ValueError(f"not an ASCII {self.type.__name__}: "
                                 f"{text!r}")
            value = self.type(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if self.range and not _within(value, self.range):
            raise argparse.ArgumentTypeError(
                f"must be in {self.range}: {text!r}")
        return value


_PAYLOAD, _REPLAY = ("train-payload",), ("replay",)
_TRAIN = ("train-payload", "train-encrypted")
_SAMPLER = ("replay", "sample-trace")
OPTIONS = (
    Option("seed", int, "[0, inf)", 42, "k-fold split seed", _TRAIN),
    Option("lambda", float, "[0, inf)", 1.0, "L2 strength", _PAYLOAD),
    Option("lr", float, "(0, inf)", 0.5, "learning rate", _PAYLOAD),
    Option("max-iters", int, "[1, inf)", 5000, "descent steps", _PAYLOAD),
    Option("k-folds", int, "[2, inf)", 5, "cross-validation folds", _TRAIN),
    Option("m", int, None, 100, "packets per sampling epoch", _SAMPLER),
    Option("w-min", int, None, 5, "first and smallest window", _SAMPLER),
    Option("w-max", int, None, 15, "largest sampled window", _SAMPLER),
    Option("history", int, "[3, inf)", 10, "sampler history", _SAMPLER),
    Option("threshold", float, "(0, 1)", 0.5, "lowest malicious score",
           ("train-payload", "eval", "replay")),
    Option("strict", boolean, None, False, "abort on a bad record", _REPLAY),
    Option("count-blocking", boolean, None, False,
           "block on a window's hit count, not on the first hit", _REPLAY),
    Option("block-hit-count", int, "[1, inf)", 1,
           "hits in a window that block under --count-blocking", _REPLAY),
)


def _load_config_file(path: Path) -> dict:
    """The ``key = value`` lines of a config file, each parsed and
    range-checked by its option; a key may belong to any command."""
    options = {opt.dest: opt for opt in OPTIONS}
    values = {}
    with _read_lines(path, "config file") as lines:
        for line_no, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            key = key.replace("-", "_")
            if key not in options:
                raise UsageError(f"{path}:{line_no}: unknown key {key!r}")
            try:
                values[key] = options[key].parse(value)
            except argparse.ArgumentTypeError as exc:
                raise UsageError(f"{path}:{line_no}: {key}: {exc}") from exc
    return values


def _resolve_options(args: argparse.Namespace) -> None:
    """Fill unset options from the config file, then from defaults."""
    from_file = _load_config_file(args.config) if args.config else {}
    for opt in OPTIONS:
        if args.command in opt.commands and getattr(args, opt.dest) is None:
            setattr(args, opt.dest, from_file.get(opt.dest, opt.default))


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(m=args.m, w_min=args.w_min, w_max=args.w_max,
                         history_len=args.history)


def _cannot(action: str, what: str, path: Path, why) -> DataError:
    reason = getattr(why, "strerror", None) or why
    return DataError(f"cannot {action} {what} {path}: {reason}")


@contextlib.contextmanager
def _writing(what: str, path: Path) -> Iterator[None]:
    """An output that cannot be written is a data error that names it."""
    try:
        yield
    except OSError as exc:
        raise _cannot("write", what, path, exc) from exc


def _bad_utf8(path: Path) -> Optional[str]:
    """Why a file is not UTF-8, with the line of its first bad bytes (as
    universal newlines count lines) and their offset in the file.  The
    text decoder gives only their place in its chunk, so the file is
    read again in binary, one line at a time.  None if it can no longer
    be read or is now UTF-8."""
    line_no, offset = 1, 0
    try:
        with open(path, "rb") as fp:
            for raw in fp:
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    bad = raw[exc.start:exc.end]
                    line_no += raw.count(b"\r", 0, exc.start)
                    return (f"'utf-8' codec can't decode "
                            f"{'byte' if len(bad) == 1 else 'bytes'} "
                            f"{' '.join(f'0x{b:02x}' for b in bad)} on line "
                            f"{line_no} at byte offset {offset + exc.start}: "
                            f"{exc.reason}")
                # a line ends at "\n", "\r\n" or "\r"
                line_no += (raw.count(b"\r") + raw.count(b"\n")
                            - raw.count(b"\r\n"))
                offset += len(raw)
    except OSError:
        pass
    return None


def _lines(fp, what: str, path: Path) -> Iterator[str]:
    try:
        for line in fp:
            yield line.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise _cannot("read", what, path, _bad_utf8(path) or exc) from exc
    except OSError as exc:
        raise _cannot("read", what, path, exc) from exc


@contextlib.contextmanager
def _read_lines(path: Path, what: str) -> Iterator[Iterator[str]]:
    """The lines of a UTF-8 text file, read one at a time with universal
    newlines: cut at "\n", "\r\n" or "\r" only, never at U+0085, U+2028
    or U+2029, which a JSON string may hold raw (``str.splitlines`` cuts
    there).  The file opens on entry, so a file that cannot be opened is
    a data error before any line is read; one that is not UTF-8 is a data
    error when its bad bytes are reached."""
    try:
        fp = open(path, encoding="utf-8")
    except OSError as exc:
        raise _cannot("read", what, path, exc) from exc
    with fp:
        yield _lines(fp, what, path)


def _read_labeled_corpus(path: Path):
    payloads, labels = [], []
    with _read_lines(path, "corpus") as lines:
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
    """A labeled flow CSV's rows, encoded as they are read, and labels."""
    labels = []

    def records(lines):
        # one record or error per data row, from row 1
        for row_no, record in enumerate(read_flow_csv(lines), start=1):
            if isinstance(record, FlowRowError):
                raise DataError(f"{path}: {record}") from record
            if record.label is None:
                raise DataError(f"{path}: row {row_no}: no label")
            labels.append(record.label)
            yield record

    with _read_lines(path, "flow csv") as lines:
        X = encode_all(records(lines))
    if not labels:
        raise DataError(f"{path}: no flow rows")
    return X, np.array(labels, dtype=int)


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
    if y.min() == y.max():
        raise DataError("corpus contains a single class")
    hyper = logistic.LogisticHyper(lam=getattr(args, "lambda"),
                                   learning_rate=args.lr,
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
    with _writing("payload model", args.model_out):
        persistence.save_payload_model(args.model_out, featurizer, model)
    print(f"wrote {args.model_out} "
          f"(dim={model.dim}, iters={info.n_iter}, "
          f"final_loss={info.losses[-1]:.6f})")
    return EXIT_OK


def cmd_train_encrypted(args) -> int:
    X, y = _read_labeled_flows(args.flows)
    if y.min() == y.max():
        raise DataError("flow data contains a single class")
    hyper = tree.TreeHyper()

    def fit_predict(train_idx, held_out):
        return tree.predict(tree.train(X[train_idx], y[train_idx], hyper),
                            X[held_out])

    _print_cv_table(metrics.cross_validate(y, args.k_folds, args.seed,
                                           fit_predict))

    model = tree.train(X, y, hyper)
    with _writing("tree model", args.model_out):
        persistence.save_tree_model(args.model_out, model)
    print(f"wrote {args.model_out} ({len(model.nodes)} nodes)")
    return EXIT_OK


def _write_outputs(*outputs: tuple[str, Path, Callable]) -> None:
    """Open every (what, path, write) output, then write each: one that
    cannot be opened leaves no fresh report beside stale curves."""
    with contextlib.ExitStack() as stack:
        files = []
        for what, path, _ in outputs:
            with _writing(what, path):
                files.append(stack.enter_context(
                    open(path, "w", encoding="utf-8", newline="")))
        for (what, path, write), fp in zip(outputs, files):
            with _writing(what, path), fp:
                write(fp)


def _write_json(doc: dict, fp) -> None:
    json.dump(doc, fp, indent=1)
    fp.write("\n")


def _write_curve_csv(header: tuple[str, str, str], points, fp) -> None:
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
    roc_out = args.roc_out or args.report_out.with_suffix(".roc.csv")
    pr_out = args.pr_out or args.report_out.with_suffix(".pr.csv")
    _write_outputs(
        ("eval report", args.report_out, partial(_write_json,
                                                 report.to_dict())),
        ("ROC curve", roc_out, partial(_write_curve_csv, (
            "threshold", "fpr", "tpr"), report.roc_points)),
        ("PR curve", pr_out, partial(_write_curve_csv, (
            "threshold", "recall", "precision"), report.pr_points)))
    m = report.metrics
    auc = "n/a" if report.auc is None else f"{report.auc:.6f}"
    print(f"accuracy={m.accuracy:.6f} precision={m.precision:.6f} "
          f"recall={m.recall:.6f} fpr={m.fpr:.6f} f1={m.f1:.6f} auc={auc}")
    print(f"wrote {args.report_out}, {roc_out}, {pr_out}")
    return EXIT_OK


def cmd_replay(args) -> int:
    if args.tree_model and not args.flows:
        raise UsageError("--tree-model classifies the flows of --flows; "
                         "give both or neither")
    with _read_lines(args.blacklist, "blacklist") as lines:
        blacklist = load_blacklist(lines, source_name=str(args.blacklist))
    # the packet stream and the flow CSV are read as the replay goes
    with contextlib.ExitStack() as inputs:
        packet_lines = inputs.enter_context(
            _read_lines(args.packets, "packet stream"))
        flow_lines = (inputs.enter_context(_read_lines(args.flows, "flow csv"))
                      if args.flows else None)
        featurizer, payload_model = persistence.load_payload_model(
            args.payload_model)
        tree_model = (persistence.load_tree_model(args.tree_model)
                      if args.tree_model else None)
        config = EngineConfig(sampler=_sampler_config(args),
                              block_threshold=args.threshold,
                              block_on_first_hit=not args.count_blocking,
                              window_hit_block_count=args.block_hit_count)
        engine = Engine(blacklist, featurizer, payload_model, tree_model,
                        config)
        try:
            report = engine.run_replay(packet_lines, flow_lines,
                                       strict=args.strict)
        except ReplayDataError as exc:
            raise DataError(str(exc)) from exc
    _write_outputs(
        ("replay report", args.report_out, partial(_write_json,
                                                   report.to_dict())),
        ("actions csv", args.actions_out, partial(write_actions_csv,
                                                  report)))
    print(f"flows={report.flows_seen} packets={report.packets_seen} "
          f"sampled={report.packets_sampled} "
          f"blacklist_blocks={report.blacklist_blocks} "
          f"classifier_blocks={report.classifier_blocks} "
          f"alerts={report.alerts}")
    print(f"wrote {args.report_out}, {args.actions_out}")
    return EXIT_OK


def cmd_sample_trace(args) -> int:
    deltas = []
    with _read_lines(args.input, "delta csv") as lines:
        for line_no, line in enumerate(lines, start=1):
            cell = line.split(",", 1)[0].strip()
            if not cell or (line_no == 1 and cell.lower() == "delta"):
                continue
            try:
                deltas.append(parse_uint(cell, "hit count"))
            except ValueError as exc:
                raise DataError(f"{args.input}:{line_no}: {exc}") from exc
    rows = trace(_sampler_config(args), deltas)
    with contextlib.ExitStack() as output:
        out = sys.stdout
        if args.output:
            output.enter_context(_writing("sample trace", args.output))
            out = output.enter_context(
                open(args.output, "w", encoding="utf-8", newline=""))
        writer = csv.writer(out)
        writer.writerow(["step", "w", "delta", "delta_hat", "dw_next"])
        for row in rows:
            writer.writerow([
                row.step, row.w, row.delta,
                "" if row.predicted is None else repr(row.predicted),
                "" if row.dw_next is None else repr(row.dw_next),
            ])
    if args.output:
        print(f"wrote {args.output}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="flowdpi",
                     description="Adaptive deep packet inspection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        # allow_abbrev=False: --m must not stand for --max-iters
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", type=Path, default=None,
                       help="key = value file; flags override it")
        for opt in (opt for opt in OPTIONS if name in opt.commands):
            kind = ({"action": "store_true"} if opt.type is boolean
                    else {"type": opt.parse})
            p.add_argument(f"--{opt.flag}", default=None, **kind,
                           help=f"{opt.help} (default {opt.default})")
        return p

    p = command("train-payload", cmd_train_payload,
                "fit featurizer + logistic model on a labeled JSONL corpus")
    p.add_argument("corpus", type=Path)
    p.add_argument("model_out", type=Path)

    p = command("train-encrypted", cmd_train_encrypted,
                "fit a decision tree on a labeled encrypted flow CSV")
    p.add_argument("flows", type=Path)
    p.add_argument("model_out", type=Path)

    p = command("eval", cmd_eval, "evaluate a saved model on labeled data")
    p.add_argument("model", type=Path)
    p.add_argument("dataset", type=Path)
    p.add_argument("--report-out", type=Path, required=True)
    p.add_argument("--roc-out", type=Path, default=None)
    p.add_argument("--pr-out", type=Path, default=None)

    p = command("replay", cmd_replay,
                "replay a packet stream through the full two-stage pipeline")
    p.add_argument("--packets", type=Path, required=True)
    p.add_argument("--blacklist", type=Path, required=True)
    p.add_argument("--payload-model", type=Path, required=True)
    p.add_argument("--flows", type=Path, default=None,
                   help="encrypted flow CSV (needs --tree-model)")
    p.add_argument("--tree-model", type=Path, default=None,
                   help="decision tree for --flows")
    p.add_argument("--report-out", type=Path, required=True)
    p.add_argument("--actions-out", type=Path, required=True)

    p = command("sample-trace", cmd_sample_trace,
                "replay per-window hit counts through the adaptive sampler")
    p.add_argument("input", type=Path, help="CSV of per-window malicious "
                   "counts (column 'delta' or headerless)")
    p.add_argument("--output", type=Path, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING)
    try:
        args = build_parser().parse_args(argv)
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
