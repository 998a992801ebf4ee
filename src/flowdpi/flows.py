"""Core packet/flow data types shared by the whole pipeline.

A flow is a bi-directional 5-tuple conversation.  Both directions map to
the same canonical ``FlowKey``; which endpoint was observed as the packet
source travels beside the key (``PacketRecord.direction``), so keys stay
direction-free dictionary keys.  Addresses are plain 32-bit ints, so a
key hashes and compares without building any ``ipaddress`` object.
"""

from __future__ import annotations

import functools
import ipaddress
import json
import math
import re
import socket
from dataclasses import dataclass
from enum import Enum
from typing import Any, NamedTuple


class FlowParseError(ValueError):
    """Raised when a packet/flow record cannot be parsed."""


class Direction(Enum):
    FORWARD = "forward"   # travelling canonical src -> canonical dst
    REVERSE = "reverse"


class Protocol(NamedTuple):
    kind: str   # "TCP", "UDP" or "OTHER"
    code: int

    def __str__(self) -> str:
        return self.kind if self.kind != "OTHER" else f"OTHER({self.code})"


TCP = Protocol("TCP", 6)
UDP = Protocol("UDP", 17)


def parse_protocol(value: Any) -> Protocol:
    if isinstance(value, bool):
        raise FlowParseError(f"bad protocol: {value!r}")
    if isinstance(value, int):
        if value == TCP.code:
            return TCP
        if value == UDP.code:
            return UDP
        if not 0 <= value <= 255:
            raise FlowParseError(f"protocol code out of range: {value}")
        return Protocol("OTHER", value)
    text = str(value).strip().upper()
    if text == "TCP":
        return TCP
    if text == "UDP":
        return UDP
    try:
        code = parse_uint(text, "protocol code")
    except FlowParseError:
        raise FlowParseError(f"bad protocol: {value!r}") from None
    return parse_protocol(code)


# one decimal octet 0-255 without leading zeros, as ipaddress requires
_OCTET = "(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_DOTTED_QUAD = re.compile(rf"{_OCTET}(?:\.{_OCTET}){{3}}", re.ASCII)


def parse_ipv4(text: Any) -> int:
    """Parse dotted-quad IPv4 text into its 32-bit int value.

    Accepts exactly what ``ipaddress.IPv4Address`` accepts once
    surrounding whitespace is stripped; IPv6 and malformed text are
    rejected.  The pattern check comes first because ``inet_aton`` alone
    also takes shorthand such as ``"1.2"`` and octal octets.
    """
    stripped = str(text).strip()
    if _DOTTED_QUAD.fullmatch(stripped) is None:
        try:
            ipaddress.IPv6Address(stripped)
        except ValueError:
            raise FlowParseError(f"bad IPv4 address: {text!r}") from None
        raise FlowParseError(f"IPv6 not supported: {text!r}")
    return int.from_bytes(socket.inet_aton(stripped), "big")


def parse_uint(text: str, what: str) -> int:
    """A whole number written in ASCII digits only: no sign, ``_`` or
    whitespace."""
    if text.isascii() and text.isdigit():
        return int(text)
    if text[:1] == "-" and text[1:].isascii() and text[1:].isdigit():
        raise FlowParseError(f"negative {what} {text!r}")
    raise FlowParseError(f"{what} {text!r} is not a whole number in ASCII "
                         f"digits")


_DECIMAL = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def parse_decimal(text: str, what: str) -> float:
    """A finite number >= 0 written as ASCII digits, an optional
    ``.digits`` part and an optional exponent, as ``repr`` writes every
    finite float >= 0; no sign, ``_``, whitespace, ``inf`` or ``nan``."""
    if _DECIMAL.fullmatch(text.removeprefix("-")) is None:
        if text.lstrip("+-").lower() not in ("inf", "infinity", "nan"):
            raise FlowParseError(f"{what} {text!r} is not a decimal number "
                                 f"in ASCII digits")
    elif text[0] == "-":
        raise FlowParseError(f"negative {what} {text!r}")
    elif math.isfinite(value := float(text)):
        return value
    raise FlowParseError(f"{what} is not finite: {text!r}")


def parse_cidr(text: str) -> tuple[int, int]:
    """``(network, prefix length)`` of ``a.b.c.d`` or ``a.b.c.d/n`` with
    ``n <= 32``; host bits are cleared, so ``10.0.0.1/8`` is 10.0.0.0/8."""
    addr, slash, prefix = text.partition("/")
    if addr != addr.strip():   # parse_ipv4 would strip it
        raise FlowParseError(f"whitespace in CIDR entry {text!r}")
    network = parse_ipv4(addr)
    if "." in prefix:
        raise FlowParseError(f"netmask {prefix!r} in {text!r}: write the "
                             f"prefix length, 0-32")
    plen = parse_uint(prefix, "prefix length") if slash else 32
    if plen > 32:
        raise FlowParseError(f"prefix length {plen} is over 32: {text!r}")
    return network & (~0 << (32 - plen)) & 0xFFFFFFFF, plen


def format_ipv4(addr: int) -> str:
    """Dotted-quad text of a 32-bit int address."""
    return socket.inet_ntoa(addr.to_bytes(4, "big"))


def _check_port(port: Any) -> int:
    if isinstance(port, bool) or not isinstance(port, int):
        raise FlowParseError(f"port must be an integer: {port!r}")
    if not 0 <= port <= 65535:
        raise FlowParseError(f"port out of range: {port}")
    return port


class FlowKey(NamedTuple):
    """Canonical bi-directional 5-tuple with int IPv4 endpoints.

    Endpoints are ordered so that (src_ip, src_port) <= (dst_ip, dst_port)
    lexicographically (ip first, then port).
    """

    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int
    protocol: Protocol

    def __str__(self) -> str:
        return (f"{format_ipv4(self.src_ip)}:{self.src_port}<->"
                f"{format_ipv4(self.dst_ip)}:{self.dst_port}/"
                f"{self.protocol}")


def canonicalize_flow_key(src_ip, src_port, dst_ip, dst_port,
                          protocol) -> tuple[FlowKey, bool]:
    """Build the canonical key; (A->B) and (B->A) yield equal keys.

    Returns ``(key, forward)``: ``forward`` is true when the given source
    endpoint is the key's src side.
    """
    a_ip, b_ip = parse_ipv4(src_ip), parse_ipv4(dst_ip)
    a_port, b_port = _check_port(src_port), _check_port(dst_port)
    proto = parse_protocol(protocol)
    if (a_ip, a_port) <= (b_ip, b_port):
        return FlowKey(a_ip, a_port, b_ip, b_port, proto), True
    return FlowKey(b_ip, b_port, a_ip, a_port, proto), False


class PacketRecord(NamedTuple):
    flow: FlowKey
    direction: Direction
    timestamp: float
    payload: bytes
    encrypted: bool

    def payload_text(self) -> str:
        """Payload decoded for featurization (lossy UTF-8)."""
        return self.payload.decode("utf-8", errors="replace")


def _timestamp(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FlowParseError(f"ts must be a number: {value!r}")
    try:
        ts = float(value)
    except OverflowError:
        ts = math.inf
    if not math.isfinite(ts):
        raise FlowParseError(f"ts is not finite: {value!r}")
    if ts < 0:
        raise FlowParseError(f"negative timestamp: {ts}")
    return ts


_DECODER = json.JSONDecoder()


def _json_value(line: str) -> Any:
    """``json.loads(line)``.  A line that is one JSON value, then at most a
    newline, is read by ``raw_decode`` alone, which skips the two
    whitespace scans of ``json.loads``; any other line goes through
    ``json.loads``, for its value or its reason."""
    try:
        value, end = _DECODER.raw_decode(line)
    except ValueError:
        return json.loads(line)
    return value if line[end:] in ("", "\n") else json.loads(line)


def _json_object(line: str, what: str) -> dict:
    try:
        obj = _json_value(line)
    # ValueError: also a number past Python's digit limit; RecursionError:
    # a value nested deeper than the decoder's recursion limit
    except (ValueError, RecursionError) as exc:
        raise FlowParseError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FlowParseError(f"{what} must be a JSON object")
    return obj


# A replay parses a raw 5-tuple once while it is among the 4,096 most
# recently used: both directions of 2,048 flows.  ``typed=True`` keys
# every field on its type as well, so ``true`` or ``80.0`` never stands
# in for ``1`` or ``80``; a rejected tuple raises and is never cached.
@functools.lru_cache(maxsize=4096, typed=True)
def _packet_flow(src_ip, src_port, dst_ip, dst_port,
                 proto) -> tuple[FlowKey, Direction]:
    """The flow key and direction of a packet line's 5-tuple."""
    key, forward = canonicalize_flow_key(src_ip, src_port, dst_ip, dst_port,
                                         proto)
    # the flow CSV may write a code as digit text; JSON has integers
    if isinstance(proto, str) and proto.strip().upper() not in ("TCP", "UDP"):
        raise FlowParseError(f"protocol code must be a JSON integer: "
                             f"{proto!r}")
    return key, Direction.FORWARD if forward else Direction.REVERSE


def packet_from_json_line(line: str) -> PacketRecord:
    """Parse one packet-stream JSONL record.

    Keys and their JSON types: ``src_ip`` and ``dst_ip`` dotted-quad
    strings; ``src_port`` and ``dst_port`` integers in [0, 65535];
    ``proto`` "TCP", "UDP" or an integer code in [0, 255]; ``ts`` a
    finite number >= 0; ``payload`` a string (default ""); ``encrypted``
    true or false (default false).  A value of another type is rejected,
    never coerced.
    """
    obj = _json_object(line, "packet record")
    try:
        raw = (obj["src_ip"], obj["src_port"], obj["dst_ip"],
               obj["dst_port"], obj["proto"])
        try:
            flow = _packet_flow(*raw)
        except TypeError:   # a JSON array or object cannot key the cache
            flow = _packet_flow.__wrapped__(*raw)
        ts = _timestamp(obj["ts"])
    except KeyError as exc:
        raise FlowParseError(f"missing field {exc}") from exc
    payload = obj.get("payload", "")
    if not isinstance(payload, str):
        raise FlowParseError(f"payload must be a string: {payload!r}")
    encrypted = obj.get("encrypted", False)
    if not isinstance(encrypted, bool):
        raise FlowParseError(
            f"encrypted must be true or false: {encrypted!r}")
    try:
        data = payload.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise FlowParseError(f"payload is not UTF-8 text: {exc}") from exc
    return PacketRecord(*flow, ts, data, encrypted)


def packet_to_json_line(src_ip: str, src_port: int, dst_ip: str,
                        dst_port: int, proto: str, ts: float,
                        payload: str, encrypted: bool = False) -> str:
    """Serialize one packet record in the stream format (test/demo helper)."""
    return json.dumps({
        "src_ip": src_ip, "src_port": src_port,
        "dst_ip": dst_ip, "dst_port": dst_port,
        "proto": proto, "ts": ts, "payload": payload,
        "encrypted": encrypted,
    })


BENIGN = 0
MALICIOUS = 1


@dataclass(frozen=True)
class LabeledPayload:
    payload: str
    label: int

    def __post_init__(self):
        if self.label not in (BENIGN, MALICIOUS):
            raise FlowParseError(f"label must be 0 or 1: {self.label!r}")


def labeled_payload_from_json_line(line: str) -> LabeledPayload:
    """Parse one training-corpus JSONL record: ``payload`` a string and
    ``label`` the integer 0 or 1.  A value of another type is rejected,
    never coerced."""
    obj = _json_object(line, "corpus record")
    if "payload" not in obj or "label" not in obj:
        raise FlowParseError("corpus record needs 'payload' and 'label'")
    payload, label = obj["payload"], obj["label"]
    if not isinstance(payload, str):
        raise FlowParseError(f"payload must be a string: {payload!r}")
    if type(label) is not int:   # true and 1.0 are not the integer 1
        raise FlowParseError(f"label must be the integer 0 or 1: {label!r}")
    return LabeledPayload(payload, label)


class VerdictKind(Enum):
    ALERT = "alert"
    BLOCK = "block"


class VerdictReason(Enum):
    BLACKLIST = "blacklist"
    PAYLOAD_CLASSIFIER = "payload_classifier"
    ENCRYPTED_CLASSIFIER = "encrypted_classifier"


_CLASSIFIER_REASONS = (VerdictReason.PAYLOAD_CLASSIFIER,
                       VerdictReason.ENCRYPTED_CLASSIFIER)


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    flow: FlowKey
    reason: VerdictReason
    score: float | None = None
    timestamp: float | None = None

    def __post_init__(self):
        if self.reason in _CLASSIFIER_REASONS:
            if self.score is None or not 0.0 <= self.score <= 1.0:
                raise ValueError("classifier verdict needs a score in [0,1]")
        elif self.score is not None:
            raise ValueError("blacklist verdict carries no score")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "flow": str(self.flow),
            "reason": self.reason.value,
            "score": self.score,
            "ts": self.timestamp,
        }
