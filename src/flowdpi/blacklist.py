"""Flow-level early detection against an IP blacklist.

The blacklist holds exact IPv4 addresses and CIDR prefixes.  Lookup masks
the candidate address once per distinct prefix length, so membership is
O(number of distinct prefix lengths) regardless of list size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .flows import FlowParseError, parse_cidr, parse_ipv4


@dataclass(frozen=True)
class Blacklist:
    source_name: str
    # prefix length -> set of network addresses (as ints, host bits zeroed)
    networks: Mapping[int, frozenset[int]]
    n_entries: int
    # "{source}:{line}: {reason}" of every line that parse_cidr rejects
    errors: tuple[str, ...] = ()
    # (netmask, network addresses) per prefix length, built from networks
    _masked: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_masked", tuple(
            ((~0 << (32 - prefix_len)) & 0xFFFFFFFF, nets)
            for prefix_len, nets in self.networks.items()))

    def contains(self, ip: int | str) -> bool:
        """Membership of an address given as its 32-bit int value (as a
        ``FlowKey`` holds it) or as dotted-quad text."""
        if type(ip) is not int:
            ip = parse_ipv4(ip)
        elif not 0 <= ip <= 0xFFFFFFFF:
            raise FlowParseError(f"IPv4 address out of range: {ip}")
        for mask, nets in self._masked:
            if ip & mask in nets:
                return True
        return False


def load_blacklist(lines: Iterable[str],
                   source_name: str = "blacklist") -> Blacklist:
    """Parse blacklist text: one address or CIDR per line, '#' comments.

    A line that ``parse_cidr`` rejects lists nothing; its reason goes to
    ``errors``.
    """
    networks: dict[int, set[int]] = {}
    n_entries = 0
    errors = []
    for line_no, raw in enumerate(lines, start=1):
        entry = raw.split("#", 1)[0].strip()
        if not entry:
            continue
        try:
            network, plen = parse_cidr(entry)
        except ValueError as exc:
            errors.append(f"{source_name}:{line_no}: {exc}")
            continue
        networks.setdefault(plen, set()).add(network)
        n_entries += 1
    frozen = {plen: frozenset(nets) for plen, nets in networks.items()}
    return Blacklist(source_name, frozen, n_entries, tuple(errors))


def check_flow(blacklist: Blacklist, observed_src_ip: int | str) -> bool:
    """True means block.  Checks the flow's observed source IP (an int
    from the key, or dotted-quad text)."""
    return blacklist.contains(observed_src_ip)
