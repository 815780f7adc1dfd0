"""IPv4 address space modelling.

Cloud providers and residential ISPs own address blocks; the Udger-like
and MaxMind-like databases are derived from the same block table, which is
how the real databases work (they map prefixes to organisations and
locations).  Addresses are ints internally with dotted-quad rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


def parse_ip(text: str) -> int:
    """Dotted-quad string to int. Raises ValueError on malformed input."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"not an IPv4 address: {text}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {text}")
        value = (value << 8) | octet
    return value


def format_ip(value: int) -> str:
    """Int to dotted-quad string."""
    if not 0 <= value < 1 << 32:
        raise ValueError(f"not a 32-bit address: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class IPBlock:
    """A contiguous CIDR block owned by one organisation in one country.

    :ivar base: network address as int (low ``32 - prefix_len`` bits zero).
    :ivar prefix_len: CIDR prefix length.
    :ivar organisation: owner; cloud-provider slug or ISP name.
    :ivar country: ISO country code the block geolocates to.
    :ivar is_cloud: whether the owner is a data-centre/cloud operator.
    """

    base: int
    prefix_len: int
    organisation: str
    country: str
    is_cloud: bool

    @property
    def size(self) -> int:
        return 1 << (32 - self.prefix_len)

    def __contains__(self, ip: int) -> bool:
        return self.base <= ip < self.base + self.size

    def __str__(self) -> str:
        return f"{format_ip(self.base)}/{self.prefix_len} [{self.organisation}/{self.country}]"


class IPAllocator:
    """Carves the address space into blocks and hands out addresses.

    Blocks are laid out sequentially from ``10.0.0.0`` upward — the layout
    itself is irrelevant to the measurements; only the block→organisation
    and block→country mappings matter.
    """

    def __init__(self, start: str = "10.0.0.0") -> None:
        self._next_base = parse_ip(start)
        self._blocks: List[IPBlock] = []
        self._cursor: Dict[IPBlock, int] = {}

    @property
    def blocks(self) -> List[IPBlock]:
        return list(self._blocks)

    def allocate_block(
        self, organisation: str, country: str, is_cloud: bool, prefix_len: int = 16
    ) -> IPBlock:
        """Claim the next free block for an organisation."""
        size = 1 << (32 - prefix_len)
        # Align the base to the block size, as real CIDR allocation does.
        base = (self._next_base + size - 1) // size * size
        if base + size > 1 << 32:
            raise RuntimeError("IPv4 space exhausted in simulation")
        block = IPBlock(base, prefix_len, organisation, country, is_cloud)
        self._next_base = base + size
        self._blocks.append(block)
        self._cursor[block] = 0
        return block

    def next_address(self, block: IPBlock) -> int:
        """A fresh, never-before-assigned address from ``block``."""
        offset = self._cursor[block]
        if offset >= block.size:
            raise RuntimeError(f"block exhausted: {block}")
        self._cursor[block] = offset + 1
        return block.base + offset

    def random_address(self, block: IPBlock, rng) -> int:
        """A uniform address from ``block`` — models DHCP/NAT-pool reuse,
        where rotating clients may collide on previously seen addresses."""
        return block.base + rng.randrange(block.size)

    def find_block(self, ip: int) -> Optional[IPBlock]:
        """The block containing ``ip``, if any (linear scan; block counts
        are small — the databases build faster indexes)."""
        for block in self._blocks:
            if ip in block:
                return block
        return None
