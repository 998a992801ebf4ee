#!/usr/bin/env python3
"""End-to-end demo of the flowdpi pipeline.

Generates synthetic data, trains the payload and encrypted-flow models,
evaluates both, replays the packet stream and traces the adaptive
sampler over a few per-window hit counts — all through the public CLI,
so the demo doubles as a smoke test of all five commands. The replay
runs with ``--strict``, so any generated packet, flow or blacklist line
outside the input grammar fails the demo.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def run(argv: list[str]) -> None:
    print("+", " ".join(argv))
    subprocess.run(argv, check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", type=Path, default=Path("demo-out"))
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    d = args.work_dir
    here = Path(__file__).resolve().parent
    run([sys.executable, str(here / "make_synthetic_data.py"), str(d),
         "--seed", str(args.seed)])

    cli = [sys.executable, "-m", "flowdpi.cli"]
    run(cli + ["train-payload", str(d / "corpus.jsonl"),
               str(d / "payload-model.json"), "--lambda", "0.01",
               "--seed", str(args.seed)])
    run(cli + ["train-encrypted", str(d / "flows.csv"),
               str(d / "tree-model.json"), "--seed", str(args.seed)])
    run(cli + ["eval", str(d / "payload-model.json"),
               str(d / "corpus.jsonl"),
               "--report-out", str(d / "payload-eval.json")])
    run(cli + ["eval", str(d / "tree-model.json"), str(d / "flows.csv"),
               "--report-out", str(d / "tree-eval.json")])
    run(cli + ["replay",
               "--packets", str(d / "packets.jsonl"),
               "--blacklist", str(d / "blacklist.txt"),
               "--payload-model", str(d / "payload-model.json"),
               "--flows", str(d / "flows.csv"),
               "--tree-model", str(d / "tree-model.json"),
               "--report-out", str(d / "replay-report.json"),
               "--actions-out", str(d / "actions.csv"), "--strict"])
    # per-window hit counts: two warm-up windows, a flat stretch that grows
    # the window, then bursts that move it both ways
    (d / "deltas.csv").write_text(
        "delta\n" + "".join(f"{n}\n" for n in (0, 0, 0, 0, 3, 7, 1, 0, 12)))
    run(cli + ["sample-trace", str(d / "deltas.csv"),
               "--output", str(d / "sample-trace.csv")])

    report = json.loads((d / "replay-report.json").read_text())
    print(f"demo complete: {report['flows_seen']} flows, "
          f"{report['blacklist_blocks']} blacklist blocks, "
          f"{report['classifier_blocks']} classifier blocks "
          f"(outputs in {d})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
