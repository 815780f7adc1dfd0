"""Peer identifiers.

An IPFS node is identified by its *peer ID*, derived from the public key of
a unique key pair (paper §2).  We model the key pair by 32 random bytes
(standing in for an Ed25519 public key) and derive the peer ID as the
multihash of those bytes, rendered base58btc with the conventional ``12D3``
/ ``Qm``-style structure abstracted to a simple ``sha2-256`` multihash.

Peer IDs are value objects: hashable, ordered by their DHT key, and cheap
to create in bulk (the simulator mints tens of thousands).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import total_ordering
from typing import ClassVar, Optional

from repro.ids.encoding import base58_encode
from repro.ids.keys import Key, key_from_bytes

_MULTIHASH_SHA256 = b"\x12\x20"  # code 0x12 (sha2-256), length 32


@total_ordering
@dataclass(frozen=True)
class PeerID:
    """A libp2p peer identifier.

    :ivar digest: 32-byte multihash digest of the (modelled) public key.
    """

    digest: bytes
    _dht_key: Key = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    # The base58 text, rendered on first use.  A class attribute, not a
    # field: it stays out of ``__eq__``, ``repr`` and the pickled state.
    _text: ClassVar[Optional[str]] = None

    def __post_init__(self) -> None:
        if len(self.digest) != 32:
            raise ValueError("peer ID digest must be 32 bytes")
        object.__setattr__(self, "_dht_key", key_from_bytes(self.multihash))
        # Peer IDs are dict keys on every hot path; hash once at mint time.
        object.__setattr__(self, "_hash", hash(self.digest))

    @classmethod
    def from_public_key(cls, public_key: bytes) -> "PeerID":
        """Derive the peer ID for a public key (sha2-256 multihash)."""
        return cls(hashlib.sha256(public_key).digest())

    @classmethod
    def generate(cls, rng) -> "PeerID":
        """Mint a fresh peer ID from a random key pair.

        :param rng: a :class:`random.Random`-like source.
        """
        public_key = rng.getrandbits(256).to_bytes(32, "big")
        return cls.from_public_key(public_key)

    @property
    def multihash(self) -> bytes:
        """The binary multihash (``0x12 0x20`` prefix plus digest)."""
        return _MULTIHASH_SHA256 + self.digest

    @property
    def dht_key(self) -> Key:
        """Position of this peer in the Kademlia keyspace."""
        return self._dht_key

    def to_base58(self) -> str:
        """Conventional base58btc rendering (``Qm...`` style), cached."""
        text = self._text
        if text is None:
            text = base58_encode(self.multihash)
            object.__setattr__(self, "_text", text)
        return text

    @classmethod
    def from_base58(cls, text: str) -> "PeerID":
        """Parse a base58btc peer ID string back into a :class:`PeerID`.

        Raises :class:`ValueError` unless the string decodes to a
        sha2-256 multihash.
        """
        from repro.ids.encoding import base58_decode

        multihash = base58_decode(text)
        if len(multihash) != 34 or multihash[:2] != _MULTIHASH_SHA256:
            raise ValueError(f"not a sha2-256 multihash peer ID: {text!r}")
        return cls(multihash[2:])

    def __str__(self) -> str:
        return self.to_base58()

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # ``hash(bytes)`` is salted per process: a cached hash must never
        # cross a pickle boundary (worker pools ship peer IDs around).
        return self.digest

    def __setstate__(self, digest: bytes) -> None:
        object.__setattr__(self, "digest", digest)
        object.__setattr__(self, "_dht_key", key_from_bytes(_MULTIHASH_SHA256 + digest))
        object.__setattr__(self, "_hash", hash(digest))

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, PeerID):
            return NotImplemented
        return self._dht_key < other._dht_key
