"""Seeded input generators for the three benchmark workloads.

Each generator writes ``corpus.jsonl``, ``flows.csv``, ``packets.jsonl``
and ``blacklist.txt`` into a directory and returns a ``Workload`` that
names them, the extra flags each command gets, and the ground truth the
checks need: which flows were planted with a blacklisted first source.
The same (name, seed, sizes) always writes the same bytes.

Nothing here imports ``flowdpi``: the inputs are written in the file
formats the README documents.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

BENIGN_WORDS = ["index", "home", "blog", "post", "static", "css", "main",
                "about", "news", "images", "login", "search", "article",
                "profile", "archive", "contact", "help", "docs"]
BENIGN_EXT = [".html", ".css", ".js", ".png", ".php", ""]
ATTACK_TOKENS = ["' OR 1=1 --", "<script>alert(1)</script>",
                 "UNION SELECT password FROM users",
                 "../../../etc/passwd", "; DROP TABLE users; --",
                 "cmd.exe /c dir", "<img src=x onerror=alert(1)>"]
TOKEN_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"

FLOW_HEADER = ("src_ip,src_port,dst_ip,dst_port,proto,tls_version,ttl,"
               "duration,fwd_pkts,bwd_pkts,label")

# blacklist entries live in 64.0.0.0/2; ordinary sources never do
BLACKLIST_SPACE = (64 << 24, 2)


@dataclass
class Workload:
    name: str
    seed: int
    directory: Path
    # extra flags per command: train-payload, train-encrypted, replay
    flags: dict[str, list[str]]
    # untraced runs of a command in a row per round, where more than one:
    # keys are train_payload, train_encrypted, eval_payload, eval_tree and
    # replay. Commands of a few tenths of a second, mostly interpreter and
    # numpy start-up, get more samples this way than a round holds.
    repeats: dict[str, int] = field(default_factory=dict)
    # (src_ip, src_port, dst_ip, dst_port, proto) of the first packet of
    # each flow whose first source was planted inside a blacklist entry
    blacklisted_flows: list[tuple] = field(default_factory=list)
    packet_lines: int = 0
    flow_rows: int = 0

    @property
    def corpus(self) -> Path:
        return self.directory / "corpus.jsonl"

    @property
    def flows(self) -> Path:
        return self.directory / "flows.csv"

    @property
    def packets(self) -> Path:
        return self.directory / "packets.jsonl"

    @property
    def blacklist(self) -> Path:
        return self.directory / "blacklist.txt"

    @property
    def records(self) -> int:
        """Replay input records: packet lines plus flow-CSV data rows."""
        return self.packet_lines + self.flow_rows


def ip_str(value: int) -> str:
    return ".".join(str((value >> s) & 255) for s in (24, 16, 8, 0))


def benign_url(rng: random.Random) -> str:
    parts = [rng.choice(BENIGN_WORDS) for _ in range(rng.randint(1, 3))]
    return "/" + "/".join(parts) + rng.choice(BENIGN_EXT)


def attack_url(rng: random.Random) -> str:
    return benign_url(rng) + "?q=" + rng.choice(ATTACK_TOKENS)


def token(rng: random.Random, n: int = 16) -> str:
    return "".join(rng.choice(TOKEN_CHARS) for _ in range(n))


def packet_line(src, sport, dst, dport, ts, payload, encrypted=False) -> str:
    return json.dumps({"src_ip": src, "src_port": sport, "dst_ip": dst,
                       "dst_port": dport, "proto": "TCP", "ts": ts,
                       "payload": payload, "encrypted": encrypted})


def write_corpus(path: Path, rows) -> None:
    path.write_text("".join(json.dumps({"payload": p, "label": y}) + "\n"
                            for p, y in rows), encoding="utf-8")


def write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def duration(seconds: float) -> str:
    """A flow duration in whole 1/1024 s steps, at least 2 steps.

    The steps are exact binary fractions above the program's 1 ms rate
    floor, so two rows' packet rates are either equal or far more than one
    float apart. Decimal durations do not keep that: 7 packets in 0.070 s
    and 2 in 0.020 s give rates one ulp apart, whose midpoint threshold
    can round onto the upper value and make ``tree.train`` fail on an
    empty child. Real flow CSVs hold decimal durations; once that fault
    is fixed (``test_train_encrypted_on_adjacent_float_rates`` passes),
    write them here again.
    """
    return repr(max(2, round(seconds * 1024)) / 1024)


def separable_flow_rows(rng: random.Random, n: int) -> list[str]:
    """Two classes apart on every metadata column: the tree needs one
    split."""
    rows = []
    for i in range(n):
        src = f"10.1.{i // 250}.{i % 250 + 1}"
        if i % 3 == 2:
            rows.append(f"{src},{rng.randint(20000, 60000)},172.20.0.9,"
                        f"{rng.choice([1001, 135, 445])},TCP,TLS1.0,"
                        f"{rng.randint(120, 135)},"
                        f"{duration(rng.uniform(0.01, 0.5))},"
                        f"{rng.randint(50, 200)},{rng.randint(0, 5)},botnet")
        else:
            rows.append(f"{src},{rng.randint(20000, 60000)},172.20.0.9,443,"
                        f"TCP,TLS1.2,{rng.randint(55, 70)},"
                        f"{duration(rng.uniform(10, 60))},"
                        f"{rng.randint(10, 50)},{rng.randint(10, 50)},benign")
    return rows


def overlapping_flow_rows(rng: random.Random, n: int) -> list[str]:
    """Classes drawn from overlapping distributions, so the tree keeps
    splitting until ``max_depth`` or purity."""
    rows = []
    for i in range(n):
        botnet = rng.random() < 0.4
        src = f"10.2.{i // 250}.{i % 250 + 1}"
        tls = rng.choice(["TLS1.0", "TLS1.2", "TLS1.2"] if botnet
                         else ["TLS1.2", "TLS1.3", "TLS1.0"])
        ttl = min(255, max(1, int(rng.gauss(72 if botnet else 64, 10))))
        seconds = duration(rng.expovariate(1 / (3.0 if botnet else 5.0)))
        fwd = rng.randint(1, 60 if botnet else 40)
        bwd = rng.randint(0, 30 if botnet else 40)
        dport = rng.choice([443, 443, 8443, 445, 1001] if botnet
                           else [443, 443, 443, 8443, 993])
        rows.append(f"{src},{rng.randint(1024, 65535)},172.20.0.9,{dport},"
                    f"TCP,{tls},{ttl},{seconds},{fwd},{bwd},"
                    f"{'botnet' if botnet else 'benign'}")
    return rows


def random_blacklist(rng: random.Random, n: int,
                     plens=range(8, 33)) -> list[tuple[int, int]]:
    """``n`` (network, prefix length) entries inside BLACKLIST_SPACE."""
    base, base_len = BLACKLIST_SPACE
    entries = []
    for _ in range(n):
        plen = rng.choice(plens)
        addr = base | rng.getrandbits(32 - base_len)
        mask = (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
        entries.append((addr & mask, plen))
    return entries


def blacklist_lines(entries) -> list[str]:
    lines = ["# benchmark blacklist"]
    for net, plen in entries:
        lines.append(ip_str(net) if plen == 32 else f"{ip_str(net)}/{plen}")
    return lines


def host_in(rng: random.Random, entry: tuple[int, int]) -> int:
    net, plen = entry
    return net | (rng.getrandbits(32 - plen) if plen < 32 else 0)


def interleave(rng: random.Random, flows: list[list]) -> list:
    """Merge per-flow packet lists into one stream in which every flow
    keeps its own order and all flows are live at once."""
    slots = [f for f, packets in enumerate(flows) for _ in packets]
    rng.shuffle(slots)
    cursors = [0] * len(flows)
    merged = []
    for f in slots:
        merged.append(flows[f][cursors[f]])
        cursors[f] += 1
    return merged


def write_stream(wl: Workload, packets: list[tuple]) -> None:
    """``packets`` are (src, sport, dst, dport, payload, encrypted) in
    stream order; timestamps are the stream position in milliseconds."""
    lines = [packet_line(src, sport, dst, dport, k / 1000.0, payload, enc)
             for k, (src, sport, dst, dport, payload, enc)
             in enumerate(packets)]
    write_lines(wl.packets, lines)
    wl.packet_lines = len(lines)


def long_flows(directory: Path, seed: int, flows: int = 200,
               packets_per_flow: int = 200, corpus: int = 450,
               flow_rows: int = 1500, attack_flows: int = 4) -> Workload:
    rng = random.Random(f"long-flows/{seed}")
    wl = Workload("long-flows", seed, directory,
                  {"train-payload": ["--max-iters", "800"],
                   "train-encrypted": [], "replay": []},
                  repeats={"train_encrypted": 3, "eval_payload": 2,
                           "eval_tree": 2})
    n_mal = corpus // 3
    write_corpus(wl.corpus, [(benign_url(rng), 0)
                             for _ in range(corpus - n_mal)]
                 + [(attack_url(rng), 1) for _ in range(n_mal)])
    rows = separable_flow_rows(rng, flow_rows)
    write_lines(wl.flows, [FLOW_HEADER] + rows)
    wl.flow_rows = len(rows)

    entries = random_blacklist(rng, 20)
    special = rng.sample(range(flows), 2 + attack_flows)
    blacklisted, attacked = set(special[:2]), set(special[2:])
    per_flow = []
    for i in range(flows):
        client = (ip_str(host_in(rng, rng.choice(entries)))
                  if i in blacklisted else f"198.51.100.{i % 250 + 1}")
        sport, server = 20000 + i, f"203.0.113.{i % 8 + 1}"
        packets = []
        for k in range(packets_per_flow):
            if k % 3 == 2:
                packets.append((server, 80, client, sport, benign_url(rng),
                                False))
            else:
                packets.append((client, sport, server, 80, benign_url(rng),
                                False))
        if i in attacked:
            k = rng.choice([1, 3, 4])
            packets[k] = (client, sport, server, 80, attack_url(rng), False)
        if i in blacklisted:
            wl.blacklisted_flows.append((client, sport, server, 80, "TCP"))
        per_flow.append(packets)
    write_stream(wl, interleave(rng, per_flow))
    write_lines(wl.blacklist, blacklist_lines(entries))
    return wl


def wide_vocab(directory: Path, seed: int, corpus: int = 900,
               flows: int = 1500, flow_rows: int = 1500) -> Workload:
    rng = random.Random(f"wide-vocab/{seed}")
    wl = Workload("wide-vocab", seed, directory,
                  {"train-payload": ["--max-iters", "15", "--lr", "2"],
                   "train-encrypted": [], "replay": ["--count-blocking"]},
                  repeats={"train_encrypted": 3, "eval_payload": 2,
                           "eval_tree": 2})

    def benign():
        return f"{benign_url(rng)}?sid={token(rng)}"

    def attack():
        return (f"{benign_url(rng)}?sid={token(rng)}"
                f"&q={rng.choice(ATTACK_TOKENS)}")

    n_mal = corpus // 3
    write_corpus(wl.corpus, [(benign(), 0) for _ in range(corpus - n_mal)]
                 + [(attack(), 1) for _ in range(n_mal)])
    rows = separable_flow_rows(rng, flow_rows)
    write_lines(wl.flows, [FLOW_HEADER] + rows)
    wl.flow_rows = len(rows)

    entries = random_blacklist(rng, 20)
    blacklisted = set(rng.sample(range(flows), 2))
    per_flow = []
    for i in range(flows):
        client = (ip_str(host_in(rng, rng.choice(entries)))
                  if i in blacklisted
                  else f"198.18.{i // 250}.{i % 250 + 1}")
        sport, server = 20000 + i, f"203.0.113.{i % 8 + 1}"
        n = rng.randint(2, 6)
        packets = [(client, sport, server, 80,
                    attack() if rng.random() < 0.02 else benign(), False)
                   for _ in range(n)]
        if i in blacklisted:
            wl.blacklisted_flows.append((client, sport, server, 80, "TCP"))
        per_flow.append(packets)
    write_stream(wl, interleave(rng, per_flow))
    write_lines(wl.blacklist, blacklist_lines(entries))
    return wl


def flow_churn(directory: Path, seed: int, flows: int = 10000,
               blacklist_entries: int = 3000, flow_rows: int = 10000,
               corpus: int = 300) -> Workload:
    rng = random.Random(f"flow-churn/{seed}")
    wl = Workload("flow-churn", seed, directory,
                  {"train-payload": ["--max-iters", "300"],
                   "train-encrypted": ["--k-folds", "2"], "replay": []},
                  repeats={"train_payload": 2, "eval_payload": 3,
                           "eval_tree": 2})
    n_mal = corpus // 4
    write_corpus(wl.corpus, [(benign_url(rng), 0)
                             for _ in range(corpus - n_mal)]
                 + [(attack_url(rng), 1) for _ in range(n_mal)])
    rows = overlapping_flow_rows(rng, flow_rows)
    write_lines(wl.flows, [FLOW_HEADER] + rows)
    wl.flow_rows = len(rows)

    entries = random_blacklist(rng, blacklist_entries)
    packets = []
    for i in range(flows):
        planted = rng.random() < 0.02
        client = ip_str(host_in(rng, rng.choice(entries)) if planted
                        else (10 << 24) | rng.getrandbits(24))
        sport = 1024 + i
        server = f"203.0.113.{rng.randint(1, 254)}"
        dport = rng.choice([443, 443, 22, 80, 8080, 3389])
        kind = rng.random()
        payload, enc = ("", True) if kind < 0.7 else (
            ("", False) if kind < 0.9 else (benign_url(rng), False))
        packets.append((client, sport, server, dport, payload, enc))
        if planted:
            wl.blacklisted_flows.append((client, sport, server, dport, "TCP"))
        if rng.random() < 0.5:
            packets.append((server, dport, client, sport, "", enc))
    # flows open and close in order: a scan, not a set of live sessions
    write_stream(wl, packets)
    write_lines(wl.blacklist, blacklist_lines(entries))
    return wl


GENERATORS = {"long-flows": long_flows, "wide-vocab": wide_vocab,
              "flow-churn": flow_churn}


def generate(name: str, seed: int, directory: Path, **sizes) -> Workload:
    directory.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](directory, seed, **sizes)
