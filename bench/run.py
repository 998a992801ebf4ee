#!/usr/bin/env python3
"""Train, eval and replay benchmark for flowdpi.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``flowdpi`` is taken from ``./src``.
The workload's inputs are generated from the seed into
``.bench_work/``. Each round then runs the five user-facing commands,
one child process at a time, through ``flowdpi.cli.main``:
``train-payload``, ``train-encrypted``, ``eval`` on each saved model and
``replay`` with both; a command the workload repeats runs that many
times in a row. Each run of a command is timed from outside and its
output is checked by ``checks.py``; an operation is one run of a command
with its checks. Before the first round a warm-up child compiles
flowdpi into a bytecode cache in the work directory. Rounds repeat while
a whole round still fits in ``--seconds``.

With ``--trace 0`` each end-to-end metric is the median over every run
of its command in every round (for ``eval_s``, the sum of the medians
of the two evals).
With ``--trace 1`` untraced and traced rounds alternate; the per-layer
metrics are medians over the traced rounds, and each command's tracing
overhead is its traced median minus its untraced median. The last line
of standard output is one JSON object: correct, attempted, failed and
metrics. A metric that draws on a command that failed in any round is
reported as not measured, and the run then exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "train_payload_s": "s",
    "train_encrypted_s": "s",
    "eval_s": "s",
    "replay_records_per_s": "records/s",
    "peak_rss_mb": "MB",
}
OVERHEAD = {f"{cmd}.trace_overhead_s": "s" for cmd in
            ("train_payload", "train_encrypted", "eval", "replay")}
PER_LAYER = {**tracer.PER_LAYER_UNITS, **OVERHEAD}

class Interrupted(Exception):
    pass


def _on_sigterm(signum, frame):
    raise Interrupted(f"signal {signum}")


@dataclass
class Result:
    code: int
    seconds: float
    stdout: str
    trace: dict | None
    peak_mb: float | None = None


class Runner:
    """Starts one child process at a time and reaps it on every exit
    path."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
        # One BLAS thread: a second one competes with whatever else runs
        # on the machine and made train-payload times vary by 25%. No huge
        # pages for numpy arrays: whether the kernel can supply them moved
        # the wide-vocab peak between 175, 199 and 212 MiB from run to run.
        # Bytecode goes to a cache in the work directory, written once by
        # ``warm_up``: a child that compiles flowdpi from source on every
        # start took 0.25-0.33 s to import it, against 0.20-0.22 s cached.
        self.env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", NUMPY_MADVISE_HUGEPAGE="0",
                        PYTHONPYCACHEPREFIX=str(work / "pycache"))
        self.src = root / "src"

    def warm_up(self) -> None:
        """Compile flowdpi and the tracer into the bytecode cache, and
        bring what the children import into the page cache, before any
        command is timed."""
        done = subprocess.run(
            [sys.executable, "-c",
             "import compileall, sys\n"
             "ok = all(compileall.compile_dir(d, quiet=1)"
             " for d in sys.argv[1:])\n"
             "import numpy, flowdpi.cli\n"
             "sys.exit(0 if ok else 1)",
             str(self.src / "flowdpi"), str(BENCH_DIR)],
            env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=120)
        if done.returncode != 0:
            raise RuntimeError("warm-up failed: "
                               + done.stderr.decode(errors="replace")[-2000:])

    def run(self, argv: list[str], traced: bool) -> Result:
        trace_path, peak_path = self.work / "trace.json", self.work / "peak"
        trace_path.unlink(missing_ok=True)
        peak_path.unlink(missing_ok=True)
        out_path = self.work / "stdout.txt"
        err_path = self.work / "stderr.txt"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(peak_path),
               str(trace_path) if traced else "-", *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    env=self.env, cwd=self.work,
                                    start_new_session=True)
            try:
                proc.wait()
                seconds = perf_counter() - start
            finally:
                if proc.returncode is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0:
            sys.stderr.write(f"{' '.join(argv[:1])} exited "
                             f"{proc.returncode}:\n"
                             + err_path.read_text(errors="replace")[-2000:])
        trace = (json.loads(trace_path.read_text(encoding="utf-8"))
                 if traced and trace_path.exists() else None)
        peak_mb = (int(peak_path.read_text()) / 1024 if peak_path.exists()
                   else None)
        return Result(proc.returncode, seconds, stdout, trace, peak_mb)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.read_bytes() if isinstance(part, Path)
                 else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


class Checker:
    """Runs the checks of ``checks.py``, once per distinct output: an
    output byte-identical to one already checked has the same verdict."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.verdicts: dict[str, list[str]] = {}
        self.expected_replay: dict[str, tuple] = {}

    def _once(self, key: str, check) -> list[str]:
        if key not in self.verdicts:
            self.verdicts[key] = check()
        return self.verdicts[key]

    def k_folds(self, command: str) -> int:
        flags = self.wl.flags[command]
        return (int(flags[flags.index("--k-folds") + 1])
                if "--k-folds" in flags else checks.K_FOLDS)

    def check(self, op: str, out: dict[str, Path], stdout: str) -> list[str]:
        wl = self.wl
        pm, tm = out["payload_model"], out["tree_model"]
        if op == "train_payload":
            return self._once(digest(op, pm, stdout), lambda:
                              checks.check_train_payload(
                                  wl.corpus, pm, stdout,
                                  self.k_folds("train-payload")))
        if op == "train_encrypted":
            return self._once(digest(op, tm, stdout), lambda:
                              checks.check_train_encrypted(
                                  wl.flows, tm, stdout,
                                  self.k_folds("train-encrypted")))
        if op == "eval_payload":
            return self._once(digest(op, pm, stdout, *curve_files(out[op])),
                              lambda: checks.check_eval(
                                  out[op], stdout,
                                  *checks.payload_eval_scores(pm, wl.corpus),
                                  tol=checks.SCORE_TOL))
        if op == "eval_tree":
            return self._once(digest(op, tm, stdout, *curve_files(out[op])),
                              lambda: checks.check_eval(
                                  out[op], stdout,
                                  *checks.tree_eval_scores(tm, wl.flows),
                                  tol=0))
        models = digest(pm, tm)
        if models not in self.expected_replay:
            self.expected_replay[models] = checks.expected_replay(
                wl.packets, wl.blacklist, pm, wl.flows, tm,
                count_blocking="--count-blocking" in wl.flags["replay"])
        return self._once(
            digest(op, models, out["report"], out["actions"]),
            lambda: checks.check_replay(self.expected_replay[models],
                                        out["report"], out["actions"],
                                        wl.blacklisted_flows))


def curve_files(report: Path) -> list[Path]:
    """The report itself and the ROC and PR CSVs eval writes beside it."""
    return [report, report.with_suffix(".roc.csv"),
            report.with_suffix(".pr.csv")]


def round_commands(wl: workloads.Workload, out: dict[str, Path]):
    pm, tm = str(out["payload_model"]), str(out["tree_model"])
    return {
        "train_payload": ["train-payload", str(wl.corpus), pm,
                          *wl.flags["train-payload"]],
        "train_encrypted": ["train-encrypted", str(wl.flows), tm,
                            *wl.flags["train-encrypted"]],
        "eval_payload": ["eval", pm, str(wl.corpus), "--report-out",
                         str(out["eval_payload"])],
        "eval_tree": ["eval", tm, str(wl.flows), "--report-out",
                      str(out["eval_tree"])],
        "replay": ["replay", "--packets", str(wl.packets), "--blacklist",
                   str(wl.blacklist), "--payload-model", pm, "--flows",
                   str(wl.flows), "--tree-model", tm, "--report-out",
                   str(out["report"]), "--actions-out", str(out["actions"]),
                   *wl.flags["replay"]],
    }


class Bench:
    def __init__(self, wl: workloads.Workload, runner: Runner):
        self.wl, self.runner = wl, runner
        self.checker = Checker(wl)
        self.attempted = self.failed = 0
        self.mismatches: list[str] = []
        out_dir = runner.work / "out"
        out_dir.mkdir(exist_ok=True)
        self.out = {name: out_dir / file for name, file in (
            ("payload_model", "payload-model.json"),
            ("tree_model", "tree-model.json"),
            ("eval_payload", "eval-payload.json"),
            ("eval_tree", "eval-tree.json"),
            ("report", "replay-report.json"),
            ("actions", "replay-actions.csv"))}

    def round(self, traced: bool) -> dict[str, list[Result]]:
        """One round: each command, in order, as many times in a row as
        the workload repeats it (once when traced), each run checked."""
        for path in self.out.values():
            for written in curve_files(path):
                written.unlink(missing_ok=True)
        results = {}
        for op, argv in round_commands(self.wl, self.out).items():
            results[op] = []
            for _ in range(1 if traced else self.wl.repeats.get(op, 1)):
                self.attempted += 1
                res = self.runner.run(argv, traced)
                results[op].append(res)
                if res.code != 0 or (traced and res.trace is None):
                    self.failed += 1
                    continue
                try:
                    problems = self.checker.check(op, self.out, res.stdout)
                except Exception as exc:  # a malformed output fails it
                    problems = [f"check raised {exc!r}"]
                self.mismatches += [f"{op}: {problem}"
                                    for problem in problems]
        return results

    def rounds(self, seconds: float, traced_too: bool):
        """Whole rounds while another one fits in ``seconds``; with
        ``traced_too`` each untraced round is followed by a traced one.
        Another one fits if the slowest round so far would; the first
        round, which also computes the replay oracle, counts only while
        it is the only one."""
        plain, traced, lengths = [], [], []
        start = perf_counter()
        while True:
            began = perf_counter()
            plain.append(self.round(traced=False))
            if traced_too:
                traced.append((self.round(traced=True),
                               json.loads(self.out["report"].read_text())
                               if self.out["report"].exists() else {}))
            lengths.append(perf_counter() - began)
            if (perf_counter() - start + max(lengths[1:] or lengths)
                    > seconds):
                return plain, traced


def setup(name: str, seed: int, directory: Path, repeats: int):
    """Generate the inputs ``repeats`` times; returns the workload and the
    median generation time. Every repeat must write the same bytes."""
    times, digests = [], set()
    for _ in range(repeats):
        shutil.rmtree(directory, ignore_errors=True)
        start = perf_counter()
        wl = workloads.generate(name, seed, directory)
        times.append(perf_counter() - start)
        digests.add(digest(wl.corpus, wl.flows, wl.packets, wl.blacklist))
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic")
    return wl, statistics.median(times)


def runs_of(rounds: list[dict], op: str) -> list[Result]:
    return [res for r in rounds for res in r[op]]


def all_ok(rounds: list[dict], ops) -> bool:
    return all(res.code == 0 for op in ops for res in runs_of(rounds, op))


def wall(rounds: list[dict], ops) -> float | None:
    """Sum over ``ops`` of the median wall time of every run of each in
    ``rounds``. None when one of them failed in any round: a command
    that crashed early must not read as a fast one."""
    if not all_ok(rounds, ops):
        return None
    return sum(statistics.median(res.seconds for res in runs_of(rounds, op))
               for op in ops)


def end_to_end(wl, setup_s: float, rounds: list[dict]) -> dict:
    return {
        "setup_s": setup_s,
        "train_payload_s": wall(rounds, ["train_payload"]),
        "train_encrypted_s": wall(rounds, ["train_encrypted"]),
        "eval_s": wall(rounds, ["eval_payload", "eval_tree"]),
        "replay_records_per_s": statistics.median(
            wl.records / res.seconds for res in runs_of(rounds, "replay"))
        if all_ok(rounds, ["replay"]) else None,
        "peak_rss_mb": statistics.median(
            max(res.peak_mb for runs in r.values() for res in runs)
            for r in rounds)
        if all_ok(rounds, rounds[0]) else None,
    }


def per_layer(plain: list[dict], traced: list[tuple]) -> dict:
    med = statistics.median
    samples: dict[str, list] = {}
    for results, report in traced:
        if any(res.code != 0 or res.trace is None
               for runs in results.values() for res in runs):
            continue
        trace = {op: runs[0].trace for op, runs in results.items()}
        dumps = {"train-payload": trace["train_payload"],
                 "train-encrypted": trace["train_encrypted"],
                 "eval": tracer.merge([trace["eval_payload"],
                                       trace["eval_tree"]]),
                 "replay": trace["replay"]}
        for name, v in tracer.layer_metrics(dumps, report).items():
            samples.setdefault(name, []).append(v)
    out = {name: (None if not vs or None in vs else med(vs))
           for name, vs in samples.items()}
    for cmd, ops in (("train_payload", ["train_payload"]),
                     ("train_encrypted", ["train_encrypted"]),
                     ("eval", ["eval_payload", "eval_tree"]),
                     ("replay", ["replay"])):
        with_trace = wall([r for r, _ in traced], ops)
        without = wall(plain, ops)
        out[f"{cmd}.trace_overhead_s"] = (
            None if with_trace is None or without is None
            else with_trace - without)
    return out


def metric_block(values: dict, units: dict) -> dict:
    block = {}
    for name, unit in units.items():
        v = values.get(name)
        block[name] = ({"value": v, "unit": unit} if v is not None else
                       {"value": None, "unit": unit, "measured": False})
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "flowdpi" / "cli.py").is_file():
        print("no flowdpi sources at ./src/flowdpi: run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)
    work = (root / ".bench_work"
            / f"{args.workload}-{args.seed}-{os.getpid()}")
    work.mkdir(parents=True)
    keep = False
    try:
        runner = Runner(root, work)
        runner.warm_up()
        wl, setup_s = setup(args.workload, args.seed, work / "inputs",
                            1 if args.trace else SETUP_REPEATS)
        bench = Bench(wl, runner)
        plain, traced = bench.rounds(args.seconds,
                                     traced_too=bool(args.trace))
        if args.trace:
            metrics = metric_block(per_layer(plain, traced), PER_LAYER)
        else:
            metrics = metric_block(end_to_end(wl, setup_s, plain),
                                   END_TO_END)
        for problem in bench.mismatches[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        keep = bool(bench.mismatches or bench.failed)
        for name, m in metrics.items():
            print(f"{name:42s} {m['value']!s:>22} {m['unit']}")
        print(json.dumps({"correct": not bench.mismatches,
                          "attempted": bench.attempted,
                          "failed": bench.failed, "metrics": metrics}))
        return 0 if not (bench.mismatches or bench.failed) else 1
    except (KeyboardInterrupt, Interrupted):
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if keep:
            print(f"outputs kept in {work}", file=sys.stderr)
        else:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
