"""Content identifiers (CIDs).

A CID for item ``d`` is derived by hashing the content, ``CID(d) = h(d)``
(paper §2).  We implement CIDv1 with the ``raw`` codec and a sha2-256
multihash, rendered base32 with the ``b`` multibase prefix — the format
modern IPFS defaults to.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import total_ordering
from typing import ClassVar, Optional

from repro.ids.encoding import base32_encode
from repro.ids.keys import Key, key_from_bytes

_CID_VERSION = b"\x01"
_CODEC_RAW = b"\x55"
_MULTIHASH_SHA256 = b"\x12\x20"


@total_ordering
@dataclass(frozen=True)
class CID:
    """A CIDv1 (raw codec, sha2-256).

    :ivar digest: 32-byte sha2-256 digest of the content.
    """

    digest: bytes
    _dht_key: Key = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    # The base32 text, rendered on first use.  A class attribute, not a
    # field: it stays out of ``__eq__``, ``repr`` and the pickled state.
    _text: ClassVar[Optional[str]] = None

    def __post_init__(self) -> None:
        if len(self.digest) != 32:
            raise ValueError("CID digest must be 32 bytes")
        object.__setattr__(self, "_dht_key", key_from_bytes(self.multihash))
        # CIDs key provider registries and workload maps; hash once.
        object.__setattr__(self, "_hash", hash(self.digest))

    @classmethod
    def for_data(cls, data: bytes) -> "CID":
        """The CID identifying ``data`` (content addressing)."""
        return cls(hashlib.sha256(data).digest())

    @classmethod
    def generate(cls, rng) -> "CID":
        """Mint a CID for unique synthetic content.

        Used by workload generators and the gateway prober, which only need
        distinct identifiers, not actual bytes.
        """
        return cls(rng.getrandbits(256).to_bytes(32, "big"))

    @property
    def multihash(self) -> bytes:
        """The binary multihash of the content."""
        return _MULTIHASH_SHA256 + self.digest

    @property
    def binary(self) -> bytes:
        """The binary CID (version, codec, multihash)."""
        return _CID_VERSION + _CODEC_RAW + self.multihash

    @property
    def dht_key(self) -> Key:
        """Position of this CID in the Kademlia keyspace.

        Provider records for the CID live on the ``k`` peers whose DHT keys
        are closest (XOR) to this value.
        """
        return self._dht_key

    def to_base32(self) -> str:
        """CIDv1 string form: multibase prefix ``b`` plus base32 body, cached."""
        text = self._text
        if text is None:
            text = "b" + base32_encode(self.binary)
            object.__setattr__(self, "_text", text)
        return text

    @classmethod
    def from_base32(cls, text: str) -> "CID":
        """Parse a CIDv1 base32 string back into a :class:`CID`.

        Raises :class:`ValueError` for anything that is not a
        raw-codec/sha2-256 CIDv1 produced by this package.
        """
        from repro.ids.encoding import base32_decode

        if not text.startswith("b"):
            raise ValueError(f"missing multibase prefix: {text!r}")
        binary = base32_decode(text[1:])
        if len(binary) != 36 or binary[:2] != _CID_VERSION + _CODEC_RAW or binary[2:4] != _MULTIHASH_SHA256:
            raise ValueError(f"not a raw/sha2-256 CIDv1: {text!r}")
        return cls(binary[4:])

    def __str__(self) -> str:
        return self.to_base32()

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # ``hash(bytes)`` is salted per process: a cached hash must never
        # cross a pickle boundary (worker pools ship CIDs around).
        return self.digest

    def __setstate__(self, digest: bytes) -> None:
        object.__setattr__(self, "digest", digest)
        object.__setattr__(self, "_dht_key", key_from_bytes(_MULTIHASH_SHA256 + digest))
        object.__setattr__(self, "_hash", hash(digest))

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, CID):
            return NotImplemented
        return self._dht_key < other._dht_key


def cid_for_data(data: bytes) -> CID:
    """Convenience alias for :meth:`CID.for_data`."""
    return CID.for_data(data)
