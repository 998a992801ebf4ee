"""The benchmark command leaves no process behind, refuses to run
without the sources, and declares the metrics it prints."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[2]


def children_of(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after ')'
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry.name))
    return found


def alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def in_group(pgid: int) -> list[int]:
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                members.append(int(entry.name))
    return members


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
def test_interrupt_leaves_no_process(sig):
    bench = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "wide-vocab", "--seed", "1", "--seconds", "60", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        kids = []
        while not kids and time.monotonic() < deadline:
            time.sleep(0.1)
            kids = children_of(bench.pid)
        assert kids, "the benchmark started no command"
        time.sleep(0.3)
        bench.send_signal(sig)
        out, _ = bench.communicate(timeout=30)
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()
    assert bench.returncode != 0
    assert out.strip() == b"" or not out.strip().splitlines()[-1] \
        .startswith(b"{")
    for pid in kids:
        assert not alive(pid)
        assert in_group(pid) == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "long-flows",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == b""


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(run.workloads.GENERATORS)
    assert os.path.isfile(ROOT / spec["command"][1])


def test_missing_attribute_is_reported_as_not_measured():
    t = run.tracer.Tracer()
    t.wrap("flowdpi.engine", "no_such_function")
    assert t.missing == ["engine.no_such_function"]
    dumps = {cmd: {"spans": {}, "values": {},
                   "missing": [run.tracer.span_name(m, p) for m, p in spans]}
             for cmd, spans in run.tracer.SPANS.items()}
    values = run.tracer.layer_metrics(dumps, {"packets_sampled": 7})
    block = run.metric_block(values, run.tracer.PER_LAYER_UNITS)
    assert block["replay.engine.packets_sampled"]["value"] == 7.0
    assert block["replay.flows.parse_us"] == {
        "value": None, "unit": "us", "measured": False}
    assert sum(not m.get("measured", True) for m in block.values()) \
        == len(block) - 1


def test_failed_command_is_not_measured():
    ok, crashed = run.Result(0, 1.0, "", None, 50.0), \
        run.Result(3, 0.1, "", None, 40.0)
    ops = ("train_payload", "train_encrypted", "eval_payload", "eval_tree",
           "replay")
    rounds = [dict.fromkeys(ops, [ok, ok]),
              {**dict.fromkeys(ops, [ok]), "train_encrypted": [ok, crashed],
               "replay": [crashed]}]
    wl = run.workloads.Workload("long-flows", 1, Path("."), {},
                                packet_lines=60, flow_rows=40)
    values = run.end_to_end(wl, 0.5, rounds)
    assert values["train_encrypted_s"] is None
    assert values["replay_records_per_s"] is None
    assert values["peak_rss_mb"] is None
    assert (values["train_payload_s"], values["eval_s"]) == (1.0, 2.0)


def test_repeated_runs_pool_into_one_median():
    def ran(seconds):
        return run.Result(0, seconds, "", None, 50.0)

    rounds = [{"train_encrypted": [ran(1.0), ran(4.0), ran(2.0)],
               "eval_payload": [ran(0.5)], "eval_tree": [ran(0.25)]},
              {"train_encrypted": [ran(9.0), ran(3.0), ran(5.0)],
               "eval_payload": [ran(1.5)], "eval_tree": [ran(0.75)]}]
    assert run.wall(rounds, ["train_encrypted"]) == 3.5
    assert run.wall(rounds, ["eval_payload", "eval_tree"]) == 1.5
    assert run.runs_of(rounds, "eval_tree") == [ran(0.25), ran(0.75)]
