import ipaddress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowdpi.blacklist import check_flow, load_blacklist
from flowdpi.flows import FlowParseError, canonicalize_flow_key

def test_load_parses_addresses_and_prefixes():
    bl = load_blacklist(["10.1.2.3", "192.168.0.0/16"])
    assert bl.n_entries == 2 and bl.errors == ()


def test_load_skips_comments_and_blanks():
    bl = load_blacklist(["# comment", "", "10.1.2.3", "   "])
    assert bl.n_entries == 1


def test_load_counts_malformed_lines():
    bl = load_blacklist(["10.1.2.999"])
    assert bl.n_entries == 0
    assert bl.errors == ("blacklist:1: bad IPv4 address: '10.1.2.999'",)


@pytest.mark.parametrize("line,reason", [
    ("10.0.0.0/+8", "prefix length '+8' is not a whole number"),
    ("10.0.0.0/\u0668", "prefix length '\u0668' is not a whole number"),
    (" 10.0.0.0 / 8", "whitespace in CIDR entry '10.0.0.0 / 8'"),
    ("10.0.0.0/255.0.0.0", "netmask '255.0.0.0' in '10.0.0.0/255.0.0.0': "
                           "write the prefix length"),
    ("10.0.0.0/0.255.255.255", "write the prefix length"),
    ("10.0.0.0/33 # too long", "prefix length 33 is over 32"),
    ("2001:db8::/32", "IPv6 not supported"),
])
def test_bad_line_lists_nothing_and_is_kept_with_its_reason(line, reason):
    bl = load_blacklist(["192.0.2.1", line], source_name="bl.txt")
    assert bl.n_entries == 1
    assert len(bl.errors) == 1
    assert bl.errors[0].startswith("bl.txt:2: ") and reason in bl.errors[0]
    assert not check_flow(bl, "10.1.2.3")


def test_host_bits_are_cleared():
    bl = load_blacklist(["10.0.0.1/8"])
    assert bl.networks == {8: frozenset([10 << 24])}
    assert check_flow(bl, "10.200.0.1") and not check_flow(bl, "11.0.0.1")


def test_exact_match_blocks():
    bl = load_blacklist(["10.1.2.3"])
    assert check_flow(bl, "10.1.2.3")


def test_cidr_match_blocks():
    # oracle: 192.168.44.7 & 0xFFFF0000 == 192.168.0.0, inside the /16
    src = int(ipaddress.IPv4Address("192.168.44.7"))
    net = int(ipaddress.IPv4Address("192.168.0.0"))
    assert src & 0xFFFF0000 == net
    bl = load_blacklist(["192.168.0.0/16"])
    assert check_flow(bl, "192.168.44.7")


def test_non_member_passes():
    bl = load_blacklist(["10.1.2.3"])
    assert not check_flow(bl, "10.1.2.4")


def test_only_the_observed_source_is_checked():
    key, _ = canonicalize_flow_key("10.0.0.1", 1000, "10.9.9.9", 80, "TCP")
    bl = load_blacklist(["10.9.9.9"])
    assert not check_flow(bl, "10.0.0.1")
    # the engine passes the key's int endpoint
    assert not check_flow(bl, key.src_ip)
    assert check_flow(bl, key.dst_ip)


entry_st = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda v: str(ipaddress.IPv4Address(v))),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 32)).map(
        lambda t: str(ipaddress.ip_network((t[0], t[1]), strict=False))),
)


@given(st.lists(entry_st, min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
def test_lookup_agrees_with_linear_scan_oracle(entries, addr_int):
    addr = ipaddress.IPv4Address(addr_int)
    bl = load_blacklist(entries)
    oracle = any(addr in ipaddress.ip_network(e, strict=False)
                 for e in entries)
    assert bl.contains(str(addr)) == oracle
    assert bl.contains(addr_int) == oracle


@pytest.mark.parametrize("addr", [-1, 2**32, True, "1.2", "::1"])
def test_contains_rejects_what_is_not_an_ipv4_address(addr):
    bl = load_blacklist(["0.0.0.0/0"])
    with pytest.raises(FlowParseError):
        bl.contains(addr)
