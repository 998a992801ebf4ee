import ipaddress
import json
import math
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowdpi import flows
from flowdpi.flows import (Direction, FlowParseError, Verdict, VerdictKind,
                           VerdictReason, canonicalize_flow_key, format_ipv4,
                           labeled_payload_from_json_line,
                           packet_from_json_line, parse_cidr, parse_decimal,
                           parse_ipv4, parse_protocol, parse_uint)


def test_both_directions_map_to_same_key():
    a, a_forward = canonicalize_flow_key("10.0.0.1", 5000, "10.0.0.2", 80,
                                         "TCP")
    b, b_forward = canonicalize_flow_key("10.0.0.2", 80, "10.0.0.1", 5000,
                                         "TCP")
    assert a == b
    assert hash(a) == hash(b)
    assert a_forward and not b_forward


def test_self_loop_is_fixed_point():
    k, forward = canonicalize_flow_key("10.0.0.1", 5000, "10.0.0.1", 5000,
                                       "TCP")
    assert format_ipv4(k.src_ip) == "10.0.0.1" and k.src_port == 5000
    assert format_ipv4(k.dst_ip) == "10.0.0.1" and k.dst_port == 5000
    assert forward


def test_malformed_address_rejected():
    with pytest.raises(FlowParseError):
        canonicalize_flow_key("999.0.0.1", 1, "10.0.0.1", 2, "TCP")


def test_ipv6_rejected():
    with pytest.raises(FlowParseError, match="IPv6"):
        canonicalize_flow_key("::1", 1, "10.0.0.1", 2, "TCP")


@pytest.mark.parametrize("port", [-1, 65536])
def test_port_out_of_range(port):
    with pytest.raises(FlowParseError):
        canonicalize_flow_key("10.0.0.1", port, "10.0.0.2", 80, "TCP")


def test_observed_source_is_retained():
    k, forward = canonicalize_flow_key("10.0.0.2", 80, "10.0.0.1", 5000,
                                       "TCP")
    assert not forward
    assert format_ipv4(k.dst_ip) == "10.0.0.2"   # the observed source
    pkt = packet_from_json_line(packet_json(src_ip="10.0.0.2", src_port=80,
                                            dst_ip="10.0.0.1",
                                            dst_port=5000))
    assert pkt.flow == k and pkt.direction is Direction.REVERSE


def test_protocol_parsing():
    assert parse_protocol("tcp").kind == "TCP"
    assert parse_protocol(17).kind == "UDP"
    other = parse_protocol(47)
    assert other.kind == "OTHER" and other.code == 47
    with pytest.raises(FlowParseError):
        parse_protocol("bogus")
    with pytest.raises(FlowParseError):
        parse_protocol(300)
    assert parse_protocol(" 6 ") is parse_protocol("tcp")
    with pytest.raises(FlowParseError):
        parse_protocol("\u0666")   # Arabic-Indic six is not a protocol code


addrs = st.integers(0, 2**32 - 1)
ips = addrs.map(lambda v: str(ipaddress.IPv4Address(v)))
ports = st.integers(0, 65535)
protos = st.sampled_from(["TCP", "UDP", 47])


@given(ips, ports, ips, ports, protos)
def test_canonicalization_direction_free(sip, sport, dip, dport, proto):
    fwd, _ = canonicalize_flow_key(sip, sport, dip, dport, proto)
    rev, _ = canonicalize_flow_key(dip, dport, sip, sport, proto)
    assert fwd == rev


@given(addrs, ports, addrs, ports,
       st.sampled_from([("TCP", "TCP"), ("UDP", "UDP"), (47, "OTHER(47)")]))
def test_key_str_matches_ipaddress_text(a, a_port, b, b_port, proto):
    # oracle: the text keys had when they held ipaddress.IPv4Address values
    proto, proto_text = proto
    key, forward = canonicalize_flow_key(str(ipaddress.IPv4Address(a)),
                                         a_port,
                                         str(ipaddress.IPv4Address(b)),
                                         b_port, proto)
    (lo_ip, lo_port), (hi_ip, hi_port) = sorted([(a, a_port), (b, b_port)])
    assert str(key) == (f"{ipaddress.IPv4Address(lo_ip)}:{lo_port}<->"
                        f"{ipaddress.IPv4Address(hi_ip)}:{hi_port}/"
                        f"{proto_text}")
    assert forward == ((a, a_port) <= (b, b_port))


# candidate address text: dotted runs of octet-like pieces, with noise
# around them, and free text over the characters addresses are made of
octet_like = st.one_of(
    st.integers(0, 300).map(str),
    st.sampled_from(["", "00", "01", "007", "0x1a", "1e1", "+1", "-1",
                     "1_0", " 1", "\u0663", "\uff11", "\u00b2"]))
noise = st.sampled_from(["", " ", "\n", "\t", "\x00", ".", "/24", "%0"])
address_text = st.one_of(
    st.builds(lambda pre, octets, post: pre + ".".join(octets) + post,
              noise, st.lists(octet_like, min_size=1, max_size=5), noise),
    st.text(alphabet="0123456789.:abcdefx \n\u0663", max_size=20),
)


@given(address_text)
@example("1.2.3.4")
@example("0.0.0.0")
@example("255.255.255.255")
@example("01.2.3.4")           # leading zero
@example("1.2.3.004")
@example("1.2")                # inet_aton shorthand
@example("1")
@example("1.2.3.4\n")          # trailing newline
@example(" 10.0.0.1 ")
@example("\u0661.\u0662.\u0663.\u0664")   # non-ASCII digits
@example("1.2.3.\u00b2")
@example("::1")
@example("::ffff:1.2.3.4")
@example("256.1.1.1")
@example("1.2.3.4.")
@example("0x7f.0.0.1")
def test_parse_ipv4_accepts_exactly_what_ipaddress_accepts(text):
    try:
        expected = int(ipaddress.IPv4Address(text.strip()))
    except ValueError:
        with pytest.raises(FlowParseError):
            parse_ipv4(text)
    else:
        assert parse_ipv4(text) == expected


@given(addrs)
def test_format_ipv4_inverts_parse(addr):
    text = format_ipv4(addr)
    assert text == str(ipaddress.IPv4Address(addr))
    assert parse_ipv4(text) == addr


def packet_json(drop=(), **fields):
    """One packet line: a valid record with ``fields`` replaced and the
    keys in ``drop`` left out."""
    obj = {"src_ip": "10.0.0.1", "src_port": 5000, "dst_ip": "10.0.0.2",
           "dst_port": 80, "proto": "TCP", "ts": 1.0, "payload": "/a",
           "encrypted": False}
    obj.update(fields)
    for name in drop:
        del obj[name]
    return json.dumps(obj)


def test_packet_json_parsing():
    line = json.dumps({"src_ip": "10.0.0.2", "src_port": 80,
                       "dst_ip": "10.0.0.1", "dst_port": 5000,
                       "proto": "TCP", "ts": 1.5,
                       "payload": "/index.html", "encrypted": False})
    pkt = packet_from_json_line(line)
    assert pkt.direction is Direction.REVERSE   # 10.0.0.1 sorts first
    assert pkt.payload == "/index.html"
    assert pkt.timestamp == 1.5
    assert not pkt.encrypted


@pytest.mark.parametrize("line", [
    "not json",
    "[1, 2]",
    json.dumps({"src_ip": "10.0.0.1"}),
    json.dumps({"src_ip": "10.0.0.1", "src_port": 1, "dst_ip": "10.0.0.2",
                "dst_port": 2, "proto": "TCP", "ts": -1, "payload": ""}),
])
def test_packet_json_errors(line):
    with pytest.raises(FlowParseError):
        packet_from_json_line(line)


@pytest.mark.parametrize("value", ["false", "true", "", 0, 1, None, [False]])
def test_encrypted_must_be_a_json_bool(value):
    # a string "false" used to parse as True and skip payload inspection
    with pytest.raises(FlowParseError, match="encrypted must be true or "
                                             "false"):
        packet_from_json_line(packet_json(encrypted=value))
    assert packet_from_json_line(packet_json(encrypted=True)).encrypted
    assert not packet_from_json_line(packet_json(drop=["encrypted"])).encrypted


@pytest.mark.parametrize("field", ["src_port", "dst_port"])
@pytest.mark.parametrize("value", [80.9, 80.0, "80", True, None])
def test_port_must_be_a_json_integer(field, value):
    # 80.9 used to be truncated to port 80
    with pytest.raises(FlowParseError, match="port must be an integer"):
        packet_from_json_line(packet_json(**{field: value}))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
def test_non_finite_ts_rejected(value):
    with pytest.raises(FlowParseError, match="ts is not finite"):
        packet_from_json_line(packet_json(ts=value))


@pytest.mark.parametrize("value", ["1.5", "inf", True, None])
def test_ts_must_be_a_json_number(value):
    with pytest.raises(FlowParseError, match="ts must be a number"):
        packet_from_json_line(packet_json(ts=value))
    assert packet_from_json_line(packet_json(ts=7)).timestamp == 7.0


@pytest.mark.parametrize("value", [None, 5, ["/a"], {"a": 1}, False])
def test_payload_must_be_a_string_or_absent(value):
    # null used to be featurized as the text "None"
    with pytest.raises(FlowParseError, match="payload must be a string"):
        packet_from_json_line(packet_json(payload=value))
    assert packet_from_json_line(packet_json(drop=["payload"])).payload == ""


@pytest.mark.parametrize("value", ["6", " 17 ", "06", "47"])
def test_protocol_code_must_be_a_json_integer(value):
    # the flow CSV writes a code as digit text; a packet line has integers
    flows._packet_flow.cache_clear()
    for _ in range(2):   # a rejected tuple is never cached
        with pytest.raises(FlowParseError, match="protocol code must be a "
                                                 "JSON integer"):
            packet_from_json_line(packet_json(proto=value))
        assert flows._packet_flow.cache_info().currsize == 0
    assert packet_from_json_line(packet_json(proto=6)).flow.protocol.kind \
        == "TCP"
    assert packet_from_json_line(packet_json(proto=" udp ")).flow.protocol \
        .kind == "UDP"


MISSING = object()   # leaves the field out of the line


def raw_packet_line(src_ip, src_port, dst_ip, dst_port, proto, ts=1.0,
                    payload="/a"):
    fields = {"src_ip": src_ip, "src_port": src_port, "dst_ip": dst_ip,
              "dst_port": dst_port, "proto": proto, "ts": ts,
              "payload": payload}
    return json.dumps({k: v for k, v in fields.items() if v is not MISSING})


def outcome(line):
    """What a parse returns, with its repr so that ``true`` and ``1``
    differ, or the reason it rejects the line."""
    try:
        record = packet_from_json_line(line)
    except FlowParseError as exc:
        return "rejected", str(exc)
    return record, repr(record)


def uncached_outcome(line):
    with mock.patch.object(flows, "_packet_flow",
                           flows._packet_flow.__wrapped__):
        return outcome(line)


def assert_cache_agrees(lines):
    flows._packet_flow.cache_clear()
    for line in lines:
        assert outcome(line) == uncached_outcome(line)
    info = flows._packet_flow.cache_info()
    assert info.currsize <= info.maxsize


# each pool holds values that compare or hash equal in Python but are
# different JSON (1 and true, 80 and 80.0, 6 and "TCP"), addresses that
# parse equal but are different text, and arrays and objects, which
# cannot key the cache
MEMO_IPS = ["10.0.0.1", " 10.0.0.1", "10.0.0.1 ", "10.0.0.2", "10.0.0.999",
            "::1", 1, None, ["10.0.0.1"], {"ip": "10.0.0.1"}, MISSING]
MEMO_PORTS = [0, 1, 80, 65535, 65536, -1, True, False, 80.0, 1.0, "80",
              [80], {}, None, MISSING]
MEMO_PROTOS = ["TCP", "tcp", " udp ", 0, 1, 6, 17, 300, True, False, 6.0,
               "6", " 17 ", "ICMP", ["TCP"], {"p": 6}, None, MISSING]


def five_tuples(ips, ports, protos):
    return st.tuples(st.sampled_from(ips), st.sampled_from(ports),
                     st.sampled_from(ips), st.sampled_from(ports),
                     st.sampled_from(protos))


# few tuples drawn from the pools above parse, so half are drawn from
# values that do, for the cache to hold and their twins to miss
memo_tuples = five_tuples(MEMO_IPS, MEMO_PORTS, MEMO_PROTOS) | five_tuples(
    MEMO_IPS[:4], MEMO_PORTS[:4], MEMO_PROTOS[:7])


def twin(value):
    """A value that Python finds equal to ``value`` but JSON writes
    differently (1 and true, 80 and 80.0), or ``value`` itself."""
    if type(value) is bool:
        return int(value)
    if type(value) is int:
        return bool(value) if value in (0, 1) else float(value)
    if type(value) is float and value.is_integer():
        return int(value)
    return value


@st.composite
def memo_streams(draw):
    """Lines from a few 5-tuples, each sent in either direction, with
    type-swapped and bad-``ts`` repeats."""
    tuples = draw(st.lists(memo_tuples, min_size=1, max_size=12))
    picks = draw(st.lists(st.tuples(st.integers(0, len(tuples) - 1),
                                    st.booleans(), st.booleans(),
                                    st.sampled_from([1.0, 2, -1, "1"]),
                                    st.sampled_from(["/a", None])),
                          max_size=40))
    lines = []
    for index, reply, swap, ts, payload in picks:
        fields = tuples[index]
        if swap:
            fields = tuple(map(twin, fields))
        src_ip, src_port, dst_ip, dst_port, proto = fields
        if reply:
            src_ip, src_port, dst_ip, dst_port = (dst_ip, dst_port, src_ip,
                                                  src_port)
        lines.append(raw_packet_line(src_ip, src_port, dst_ip, dst_port,
                                     proto, ts, payload))
    return lines


@settings(max_examples=300, deadline=None)
@given(memo_streams())
def test_memoized_parse_is_the_plain_parse(lines):
    assert_cache_agrees(lines)


def test_memoized_parse_type_swaps_and_equal_endpoints():
    flow = ("10.0.0.1", 1, "10.0.0.2", 80, "TCP")
    lines = [raw_packet_line(*flow)]
    for swap in [(0, " 10.0.0.1"), (1, True), (1, 1.0), (3, 80.0),
                 (4, 6), (4, 6.0), (4, "6"), (4, 1), (4, True),
                 (0, ["10.0.0.1"]), (3, [80]), (4, {"p": "TCP"})]:
        changed = list(flow)
        changed[swap[0]] = swap[1]
        lines += [raw_packet_line(*changed), raw_packet_line(*flow)]
    # endpoints that parse equal are forward in both orders
    lines += [raw_packet_line(" 10.0.0.3", 9, "10.0.0.3", 9, "UDP"),
              raw_packet_line("10.0.0.3", 9, " 10.0.0.3", 9, "UDP"),
              raw_packet_line("10.0.0.4", 9, "10.0.0.4", 9, 17),
              raw_packet_line("10.0.0.4", 9, "10.0.0.4", 9, 17)]
    assert_cache_agrees(lines)
    assert_cache_agrees(lines[::-1])
    for line in lines[-4:]:
        assert packet_from_json_line(line).direction is Direction.FORWARD


def test_lines_of_one_direction_share_one_flow_key():
    flows._packet_flow.cache_clear()
    first, again = (packet_from_json_line(raw_packet_line(
        "10.0.0.1", 1, "10.0.0.2", 80, "TCP", ts)) for ts in (1.0, 2.0))
    reply = packet_from_json_line(raw_packet_line("10.0.0.2", 80, "10.0.0.1",
                                                  1, "TCP"))
    assert first.flow is again.flow
    assert reply.flow == first.flow and reply.direction is Direction.REVERSE
    assert flows._packet_flow.cache_info().currsize == 2


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)


def loaded(read, line):
    try:
        return "value", repr(read(line))
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", " ", "\ufeff", "x"]), json_values,
       st.sampled_from(["", "\n", "\r\n", " \n", "\n\n", "x", "\n{}"]))
@example("[" + "1" * 5000 + ",", None, "]")   # past the digit limit
def test_json_value_is_json_loads(before, value, after):
    line = before + json.dumps(value) + after
    assert loaded(flows._json_value, line) == loaded(json.loads, line)


def test_number_past_the_digit_limit_is_a_parse_error():
    # json.loads raises a plain ValueError here, which used to escape a
    # lenient replay and end it as a model/config error, and then gave
    # Python's own advice as the reason
    huge = "1" + "0" * 5000
    line = packet_json(ts=0).replace('"ts": 0', f'"ts": {huge}')
    reason = "bad JSON: a number of more than 4300 digits"
    for parse, text in [
            (packet_from_json_line, line),
            (labeled_payload_from_json_line,
             f'{{"payload": "/a", "label": {huge}}}')]:
        with pytest.raises(FlowParseError) as info:
            parse(text)
        assert str(info.value) == reason
        assert "set_int_max_str_digits" not in str(info.value)


@pytest.mark.parametrize("nesting", [
    "[" * 200_000, "[" * 5000 + "]" * 5000, '{"a":' * 5000 + "1" + "}" * 5000,
], ids=["unclosed", "arrays", "objects"])
def test_nesting_past_the_recursion_limit_is_a_parse_error(nesting):
    # json raises RecursionError here, which is no ValueError and used to
    # end the command with a traceback
    line = packet_json(payload="X").replace('"X"', nesting)
    with pytest.raises(FlowParseError, match="bad JSON: maximum recursion"):
        packet_from_json_line(line)
    with pytest.raises(FlowParseError, match="bad JSON: maximum recursion"):
        labeled_payload_from_json_line(f'{{"payload": {nesting}, "label": 1}}')


def test_payload_that_is_not_utf8_text_rejected():
    with pytest.raises(FlowParseError, match="UTF-8"):
        packet_from_json_line(packet_json(payload="/a\ud800"))


def test_labeled_payload_parsing():
    rec = labeled_payload_from_json_line('{"payload": "/a", "label": 1}')
    assert rec.payload == "/a" and rec.label == 1
    with pytest.raises(FlowParseError):
        labeled_payload_from_json_line('{"payload": "/a", "label": 2}')
    with pytest.raises(FlowParseError):
        labeled_payload_from_json_line('{"payload": "/a"}')


@pytest.mark.parametrize("value", [None, 5, ["/a"], {"a": 1}, True])
def test_corpus_payload_must_be_a_string(value):
    # null used to be trained on as the text "None", 5 as "5"
    line = json.dumps({"payload": value, "label": 1})
    with pytest.raises(FlowParseError, match="payload must be a string"):
        labeled_payload_from_json_line(line)


@pytest.mark.parametrize("value", [True, False, 1.0, 0.0, "1", None])
def test_corpus_label_must_be_the_integer_0_or_1(value):
    # true and 1.0 used to load as label 1
    line = json.dumps({"payload": "/a", "label": value})
    with pytest.raises(FlowParseError,
                       match="label must be the integer 0 or 1"):
        labeled_payload_from_json_line(line)


@pytest.mark.parametrize("line", ['["/a", 1]', '"/a"', "7"])
def test_corpus_record_must_be_a_json_object(line):
    with pytest.raises(FlowParseError,
                       match="corpus record must be a JSON object"):
        labeled_payload_from_json_line(line)


def test_verdict_score_contract():
    key, _ = canonicalize_flow_key("10.0.0.1", 1, "10.0.0.2", 2, "TCP")
    Verdict(VerdictKind.BLOCK, key, VerdictReason.PAYLOAD_CLASSIFIER, 0.9)
    Verdict(VerdictKind.BLOCK, key, VerdictReason.BLACKLIST)
    with pytest.raises(ValueError):
        Verdict(VerdictKind.BLOCK, key, VerdictReason.PAYLOAD_CLASSIFIER)
    with pytest.raises(ValueError):
        Verdict(VerdictKind.BLOCK, key, VerdictReason.BLACKLIST, 0.5)
    with pytest.raises(ValueError):
        Verdict(VerdictKind.BLOCK, key, VerdictReason.PAYLOAD_CLASSIFIER, 1.5)


# --- the field grammar of the text formats -------------------------------

ARABIC_INDIC = {str(d): chr(0x660 + d) for d in range(10)}


@st.composite
def corrupted(draw, numbers):
    """A number's text with a sign, ``_``, whitespace or a non-ASCII
    digit put in."""
    text = draw(numbers)
    kind = draw(st.sampled_from(["+", "-", "_", " ", "\t", "digit"]))
    if kind in "+-":
        return kind + text
    if kind == "digit":
        i = draw(st.sampled_from([i for i, c in enumerate(text)
                                  if c.isdigit()]))
        return text[:i] + ARABIC_INDIC[text[i]] + text[i + 1:]
    i = draw(st.integers(0, len(text)))
    return text[:i] + kind + text[i:]


whole_numbers = st.integers(0, 10**300).map(str)
float_reprs = st.floats(min_value=0.0, allow_nan=False,
                        allow_infinity=False).map(repr)


@given(whole_numbers)
def test_parse_uint_reads_every_whole_number(text):
    assert parse_uint(text, "n") == int(text)


@given(st.one_of(whole_numbers, float_reprs))
@example("0.5")
@example("1e-05")
@example("1e+16")
@example("5e-324")
def test_parse_decimal_reads_every_float_repr(text):
    assert parse_decimal(text, "x") == float(text)


@given(corrupted(whole_numbers))
def test_parse_uint_rejects_signs_separators_and_other_digits(text):
    with pytest.raises(FlowParseError):
        parse_uint(text, "n")


@given(corrupted(st.one_of(whole_numbers, float_reprs)))
def test_parse_decimal_rejects_signs_separators_and_other_digits(text):
    with pytest.raises(FlowParseError):
        parse_decimal(text, "x")


@pytest.mark.parametrize("text,reason", [
    ("-3", "negative n '-3'"),
    ("2.0", "n '2.0' is not a whole number in ASCII digits"),
    ("", "n '' is not a whole number in ASCII digits"),
])
def test_parse_uint_reasons(text, reason):
    with pytest.raises(FlowParseError, match=re.escape(reason)):
        parse_uint(text, "n")


@pytest.mark.parametrize("text,reason", [
    ("-0.5", "negative x '-0.5'"),
    (".5", "x '.5' is not a decimal number in ASCII digits"),
    ("5.", "x '5.' is not a decimal number"),
    ("0x10", "x '0x10' is not a decimal number"),
    ("-Infinity", "x is not finite: '-Infinity'"),
])
def test_parse_decimal_reasons(text, reason):
    with pytest.raises(FlowParseError, match=re.escape(reason)):
        parse_decimal(text, "x")


octet_texts = st.one_of(st.integers(0, 255).map(str),
                        st.sampled_from(["256", "01", "\u0668", "+1", " 1",
                                         "1_0", ""]))
address_texts = st.lists(octet_texts, min_size=3, max_size=5).map(".".join)
prefix_texts = st.one_of(
    st.integers(0, 40).map(str),
    st.sampled_from(["+8", "\u0668", " 8", "8 ", "08", "", "-1", "1_6"]),
    st.integers(0, 32).map(
        lambda n: str(ipaddress.IPv4Network((0, n)).netmask)),
    st.integers(0, 32).map(
        lambda n: str(ipaddress.IPv4Network((0, n)).hostmask)),
    ips)
cidr_lines = st.tuples(address_texts, st.none() | prefix_texts).map(
    lambda t: t[0] if t[1] is None else f"{t[0]}/{t[1]}")


@settings(max_examples=300)
@given(st.one_of(st.tuples(ips, st.integers(0, 32)).map(
                     lambda t: f"{t[0]}/{t[1]}"),
                 cidr_lines, st.tuples(ips, prefix_texts).map("/".join),
                 st.text("0123456789./: +-_\t\u0668", max_size=24)))
@example("10.0.0.1/8")
@example("10.0.0.0/255.0.0.0")
@example("10.0.0.0/0.255.255.255")
@example("::1/128")
def test_parse_cidr_agrees_with_ipaddress(line):
    try:
        net = ipaddress.ip_network(line, strict=False)
    except ValueError:
        net = None
    try:
        got = parse_cidr(line)
    except FlowParseError:
        # rejected: so is it by ipaddress, or it is IPv6 or a netmask form
        assert (net is None or net.version == 6
                or "." in line.partition("/")[2]), line
        return
    assert net is not None and net.version == 4, line
    assert got == (int(net.network_address), net.prefixlen)


@pytest.mark.parametrize("line,reason", [
    ("10.0.0.0 /8", "whitespace in CIDR entry '10.0.0.0 /8'"),
    ("10.0.0.0/ 8", "prefix length ' 8' is not a whole number"),
    ("10.0.0.0/8/8", "prefix length '8/8' is not a whole number"),
])
def test_parse_cidr_reasons(line, reason):
    with pytest.raises(FlowParseError, match=re.escape(reason)):
        parse_cidr(line)


_LONG = "x" * 5000
_HUGE = 10 ** 1000


_LONG_VALUES = [
    (lambda: parse_protocol("9" * 5000), "protocol"),
    (lambda: parse_protocol(_HUGE), "protocol code"),
    (lambda: parse_ipv4(_LONG), "IPv4 address"),
    (lambda: parse_uint(_LONG, "ttl"), "ttl"),
    (lambda: parse_uint("-" + "1" * 5000, "ttl"), "negative ttl"),
    (lambda: parse_decimal(_LONG, "duration"), "duration"),
    (lambda: parse_decimal("-" + "1" * 5000, "duration"),
     "negative duration"),
    (lambda: parse_decimal("9" * 5000, "duration"), "duration is not finite"),
    (lambda: parse_cidr("10.0.0.0" + " " * 5000), "CIDR entry"),
    (lambda: parse_cidr("10.0.0.0/" + "1." * 2500), "netmask"),
    (lambda: parse_cidr("10.0.0.0/" + "9" * 4000), "prefix length"),
    (lambda: packet_from_json_line(packet_json(src_port=_LONG)), "port"),
    (lambda: packet_from_json_line(packet_json(src_port=_HUGE)), "port"),
    (lambda: packet_from_json_line(packet_json(proto=_LONG)), "protocol"),
    (lambda: packet_from_json_line(packet_json(proto="9" * 5000)),
     "protocol"),
    (lambda: packet_from_json_line(packet_json(ts=_LONG)), "ts"),
    (lambda: packet_from_json_line(packet_json(ts=_HUGE)), "ts"),
    (lambda: packet_from_json_line(packet_json(payload=[0] * 3000)),
     "payload"),
    (lambda: packet_from_json_line(packet_json(encrypted=_LONG)),
     "encrypted"),
    (lambda: labeled_payload_from_json_line(
        json.dumps({"payload": [0] * 3000, "label": 1})), "payload"),
    (lambda: labeled_payload_from_json_line(
        json.dumps({"payload": "/a", "label": _LONG})), "label"),
    (lambda: labeled_payload_from_json_line(
        json.dumps({"payload": "/a", "label": _HUGE})), "label"),
]


@pytest.mark.parametrize("parse, field", _LONG_VALUES,
                         ids=[field for _, field in _LONG_VALUES])
def test_reason_shows_a_long_value_cut_short(parse, field):
    """A reason shows the start of a long bad value and its length, so a
    report entry stays small however large the field."""
    with pytest.raises(FlowParseError) as info:
        parse()
    reason = str(info.value)
    assert field in reason
    assert len(reason) < 250   # two values of 64 characters at most
    assert re.search(r"\.\.\. \(\d+ characters\)", reason)
