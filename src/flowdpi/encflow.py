"""Encrypted-flow metadata parsing and numeric encoding.

Encrypted flows are never decrypted; the classifier sees side-channel
metadata only: TLS version, TTL, duration, ports and packet rate.
"""

from __future__ import annotations

import csv
import sys
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .flows import (FlowKey, FlowParseError, canonicalize_flow_key,
                    parse_decimal, parse_uint, shown)

RATE_EPSILON = 1e-3   # seconds; guards the duration=0 singularity


class TlsVersion(Enum):
    SSL3 = 0
    TLS1_0 = 1
    TLS1_1 = 2
    TLS1_2 = 3
    TLS1_3 = 4
    UNKNOWN = -1


_TLS_ALIASES = {
    "ssl3": TlsVersion.SSL3, "ssl3.0": TlsVersion.SSL3,
    "sslv3": TlsVersion.SSL3,
    "tls1.0": TlsVersion.TLS1_0, "tls1": TlsVersion.TLS1_0,
    "tlsv1": TlsVersion.TLS1_0, "tlsv1.0": TlsVersion.TLS1_0,
    "tls1.1": TlsVersion.TLS1_1, "tlsv1.1": TlsVersion.TLS1_1,
    "tls1.2": TlsVersion.TLS1_2, "tlsv1.2": TlsVersion.TLS1_2,
    "tls1.3": TlsVersion.TLS1_3, "tlsv1.3": TlsVersion.TLS1_3,
    "unknown": TlsVersion.UNKNOWN,
}


def parse_tls_version(text: str) -> TlsVersion:
    key = str(text).strip().lower().replace("_", ".").replace(" ", "")
    if key not in _TLS_ALIASES:
        raise FlowParseError(f"unknown tls_version {shown(text)}")
    return _TLS_ALIASES[key]


LABEL_BENIGN = 0
LABEL_BOTNET = 1

_LABEL_ALIASES = {"benign": LABEL_BENIGN, "normal": LABEL_BENIGN,
                  "0": LABEL_BENIGN,
                  "botnet": LABEL_BOTNET, "malicious": LABEL_BOTNET,
                  "1": LABEL_BOTNET}


class FlowRowError(ValueError):
    """CSV row that cannot be turned into a flow record."""

    def __init__(self, row_no: int, reason: str):
        super().__init__(f"row {row_no}: {reason}")
        self.row_no = row_no
        self.reason = reason


class EncryptedFlowRecord(NamedTuple):
    flow: FlowKey
    tls_version: TlsVersion
    ttl: int
    duration: float
    fwd_packets: int
    bwd_packets: int
    src_port: int
    dst_port: int
    label: Optional[int] = None


REQUIRED_COLUMNS = ("src_ip", "src_port", "dst_ip", "dst_port", "proto",
                    "tls_version", "ttl", "duration", "fwd_pkts", "bwd_pkts")


def parse_flow_row(row: dict, row_no: int) -> EncryptedFlowRecord:
    for col in REQUIRED_COLUMNS:
        if row.get(col) in (None, ""):
            raise FlowRowError(row_no, f"missing column '{col}'")
    try:
        src_port = parse_uint(row["src_port"], "src_port")
        dst_port = parse_uint(row["dst_port"], "dst_port")
        flow, _ = canonicalize_flow_key(row["src_ip"], src_port,
                                        row["dst_ip"], dst_port, row["proto"])
        ttl = parse_uint(row["ttl"], "ttl")
        if ttl > 255:
            raise FlowParseError(f"ttl out of range: {shown(ttl)}")
        duration = parse_decimal(row["duration"], "duration")
        fwd = parse_uint(row["fwd_pkts"], "packet count fwd_pkts")
        bwd = parse_uint(row["bwd_pkts"], "packet count bwd_pkts")
        if fwd + bwd > sys.float_info.max:   # the rate needs a float
            raise FlowParseError("packet count fwd_pkts + bwd_pkts is too "
                                 "large for a float")
        tls = parse_tls_version(row["tls_version"])
    except ValueError as exc:
        raise FlowRowError(row_no, str(exc)) from exc
    label_text = row.get("label")
    label = None
    if label_text not in (None, ""):
        label = _LABEL_ALIASES.get(str(label_text).strip().lower())
        if label is None:
            raise FlowRowError(row_no, f"bad label {shown(label_text)}")
    return EncryptedFlowRecord(flow, tls, ttl, duration, fwd, bwd, src_port,
                               dst_port, label)


class _OneLine:
    """A source of one line at a time for ``csv.reader``, which starts
    each record afresh and reads its source until the record ends: a
    quote a line leaves open meets the end of this source, never the
    next line.  One reader for the file parses as fast as one reader
    over all its lines; a reader per line took twice as long."""
    __slots__ = ("line",)

    def __init__(self):
        self.line = None

    def __iter__(self):
        return self

    def __next__(self) -> str:
        line, self.line = self.line, None
        if line is None:
            raise StopIteration
        return line


def _csv_rows(lines: Iterable[str]) -> Iterator[list[str] | csv.Error]:
    """Each non-blank line's fields, or the ``csv.Error`` that rejects
    it.  A line is one record: a quote it leaves open is an error, never
    a field that runs on into the next lines."""
    source = _OneLine()
    reader = csv.reader(source, strict=True)
    for line in lines:
        source.line = line
        try:
            row = next(reader)
        except csv.Error as exc:
            yield exc
            continue
        if row:
            yield row


def read_flow_csv(lines: Iterable[str]
                  ) -> Iterator[EncryptedFlowRecord | FlowRowError]:
    """Parse a header-declared flow CSV: each data row's record, or the
    FlowRowError that rejects it, in row order (header = row 0, blank
    lines not counted).  A header that lacks a required column, or is
    not CSV, yields its error as row 0 and nothing after it."""
    rows = _csv_rows(lines)
    header = next(rows, None)
    if header is None:
        return
    if isinstance(header, csv.Error):
        yield FlowRowError(0, f"bad CSV header: {header}")
        return
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        yield FlowRowError(0, f"header missing columns: {', '.join(missing)}")
        return
    for row_no, row in enumerate(rows, start=1):
        try:
            if isinstance(row, csv.Error):
                raise FlowRowError(row_no, f"bad CSV: {row}")
            if len(row) != len(header):
                raise FlowRowError(row_no, f"{len(row)} fields where the "
                                           f"header has {len(header)}")
            record = parse_flow_row(dict(zip(header, row)), row_no)
        except FlowRowError as exc:
            record = exc
        yield record


N_ENCODED = 8


def _features(record: EncryptedFlowRecord) -> tuple[float, ...]:
    # Python floats: a rate past the largest float is inf, with no warning
    rate = ((record.fwd_packets + record.bwd_packets)
            / max(record.duration, RATE_EPSILON))
    return (float(record.tls_version.value), float(record.ttl),
            record.duration, float(record.src_port), float(record.dst_port),
            1.0 if record.src_port < 1024 else 0.0,
            1.0 if record.dst_port < 1024 else 0.0, rate)


def encode_all(records: Iterable[EncryptedFlowRecord]) -> np.ndarray:
    """One row per record, read one at a time: [tls ordinal, ttl,
    duration, src_port, dst_port, well_known_src, well_known_dst,
    packets_per_second]."""
    return np.fromiter(map(_features, records),
                       dtype=np.dtype((float, N_ENCODED)))


def encode(record: EncryptedFlowRecord) -> np.ndarray:
    """One record's row of ``encode_all``."""
    return encode_all((record,))[0]
