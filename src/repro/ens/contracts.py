"""ENS smart contracts: registry, registrar, resolvers.

Namespace management in ENS is governed by several contracts (paper §2):
the *Registry* maps every node to its owner, resolver and TTL; *Registrar*
contracts own individual TLDs (``.eth``); *resolver* contracts hold the
actual value mappings, including the EIP-1577 ``contenthash`` field that
can carry an IPFS CID.

The real namehash uses keccak-256; this model substitutes SHA-256 (the
only property used anywhere is collision-free name→node mapping).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.ens.chain import Chain

ZERO_NODE = "0x" + "00" * 32


def _hash(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def namehash(name: str) -> str:
    """The ENS namehash of a dotted name (EIP-137 structure)."""
    node = b"\x00" * 32
    if name:
        for label in reversed(name.split(".")):
            if not label:
                raise ValueError(f"empty label in name: {name!r}")
            node = _hash(node + _hash(label.encode()))
    return "0x" + node.hex()


@dataclass(frozen=True)
class Contenthash:
    """An EIP-1577 contenthash value."""

    codec: str  # "ipfs-ns" | "ipns-ns" | "swarm-ns" | ...
    value: str  # CID string / key hash / swarm reference

    def encode(self) -> str:
        return f"{self.codec}://{self.value}"

    @classmethod
    def decode(cls, encoded: str) -> "Contenthash":
        codec, _, value = encoded.partition("://")
        if not codec or not value:
            raise ValueError(f"malformed contenthash: {encoded!r}")
        return cls(codec=codec, value=value)


@dataclass
class RegistryRecord:
    owner: str
    resolver: Optional[str] = None
    ttl: int = 0


class ENSRegistry:
    """The top-level node → (owner, resolver, ttl) mapping."""

    ADDRESS = "0x00000000000C2E074eC69A0dFb2997BA6C7d2e1e"

    def __init__(self, chain: Chain) -> None:
        self.chain = chain
        self._records: Dict[str, RegistryRecord] = {
            ZERO_NODE: RegistryRecord(owner="0xroot")
        }

    def owner(self, node: str) -> Optional[str]:
        record = self._records.get(node)
        return record.owner if record else None

    def resolver(self, node: str) -> Optional[str]:
        record = self._records.get(node)
        return record.resolver if record else None

    def set_subnode_owner(self, parent: str, label: str, owner: str, caller: str) -> str:
        parent_record = self._records.get(parent)
        if parent_record is None or parent_record.owner != caller:
            raise PermissionError(f"{caller} does not own parent node {parent}")
        node = "0x" + _hash(bytes.fromhex(parent[2:]) + _hash(label.encode())).hex()
        self._records[node] = RegistryRecord(owner=owner)
        self.chain.emit(
            self.ADDRESS, "NewOwner", (parent, label), {"owner": owner, "node": node}
        )
        return node

    def set_resolver(self, node: str, resolver: str, caller: str) -> None:
        record = self._records.get(node)
        if record is None or record.owner != caller:
            raise PermissionError(f"{caller} does not own node {node}")
        record.resolver = resolver
        self.chain.emit(self.ADDRESS, "NewResolver", (node,), {"resolver": resolver})


class EthRegistrar:
    """Ownership of ``.eth`` second-level names."""

    ADDRESS = "0x57f1887a8BF19b14fC0dF6Fd9B2acc9Af147eA85"

    def __init__(self, registry: ENSRegistry, chain: Chain) -> None:
        self.registry = registry
        self.chain = chain
        eth_node = namehash("eth")
        registry._records[eth_node] = RegistryRecord(owner=self.ADDRESS)
        self._eth_node = eth_node
        self._names: Dict[str, str] = {}  # label -> owner

    def register(self, label: str, owner: str) -> str:
        """Register ``<label>.eth``; returns the node."""
        if "." in label or not label:
            raise ValueError("registrar registers single .eth labels")
        if label in self._names:
            raise ValueError(f"{label}.eth already registered")
        self._names[label] = owner
        node = self.registry.set_subnode_owner(self._eth_node, label, owner, self.ADDRESS)
        self.chain.emit(
            self.ADDRESS, "NameRegistered", (label,), {"owner": owner, "node": node}
        )
        return node

    def is_registered(self, label: str) -> bool:
        return label in self._names


class PublicResolver:
    """A resolver contract with EIP-1577 contenthash records."""

    def __init__(self, chain: Chain, registry: ENSRegistry, address: str) -> None:
        self.chain = chain
        self.registry = registry
        self.address = address
        self._contenthash: Dict[str, Contenthash] = {}

    def set_contenthash(self, node: str, contenthash: Contenthash, caller: str) -> None:
        """The EIP-1577 ``setContenthash`` call the paper filters for."""
        self._require_owner(node, caller)
        self._contenthash[node] = contenthash
        self.chain.emit(
            self.address,
            "ContenthashChanged",
            (node,),
            {"hash": contenthash.encode()},
        )

    def contenthash(self, node: str) -> Optional[Contenthash]:
        return self._contenthash.get(node)

    def _require_owner(self, node: str, caller: str) -> None:
        if self.registry.owner(node) != caller:
            raise PermissionError(f"{caller} does not own {node}")
