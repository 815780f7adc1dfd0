"""The 256-bit Kademlia keyspace and the XOR metric.

IPFS places both peers and content into a shared 256-bit keyspace: a peer's
DHT key is ``SHA-256(peer ID bytes)``, and a CID's DHT key is
``SHA-256(multihash bytes)``.  Distance between keys is the XOR metric of
Maymounkov & Mazieres (Kademlia, IPTPS '02).

Keys are represented as plain ``int`` for speed; helper functions provide
the derived quantities that the routing table and crawler need.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left

#: Width of the keyspace in bits (SHA-256 output).
KEY_BITS = 256

#: Maximum key value (inclusive upper bound is ``KEY_SPACE - 1``).
KEY_SPACE = 1 << KEY_BITS

#: Type alias for readability; keys are ints in ``[0, KEY_SPACE)``.
Key = int


def key_from_bytes(data: bytes) -> Key:
    """Hash arbitrary bytes onto the 256-bit Kademlia keyspace.

    This mirrors go-libp2p-kad-dht, which uses SHA-256 of the binary
    identifier (peer ID or multihash) as the DHT key.
    """
    return int.from_bytes(hashlib.sha256(data).digest(), "big")


def xor_distance(a: Key, b: Key) -> int:
    """XOR distance between two keys (the Kademlia metric)."""
    return a ^ b


def common_prefix_len(a: Key, b: Key) -> int:
    """Number of leading bits shared by ``a`` and ``b``.

    Equal keys share all :data:`KEY_BITS` bits.
    """
    distance = a ^ b
    if distance == 0:
        return KEY_BITS
    return KEY_BITS - distance.bit_length()


def bucket_index(own: Key, other: Key) -> int:
    """Index of the k-bucket in which ``own`` stores ``other``.

    Bucket ``i`` holds peers whose common prefix length with ``own`` is
    exactly ``i``; equivalently, peers at XOR distance in
    ``[2^(255-i), 2^(256-i))``.  Raises :class:`ValueError` for
    ``own == other`` because a node never stores itself.
    """
    if own == other:
        raise ValueError("a node does not occupy a bucket of its own table")
    return common_prefix_len(own, other)


def select_closest(
    sorted_keys, target: Key, count: int, low: int = 0, high=None, start_prefix: int = 1
):
    """The ``count`` keys XOR-closest to ``target``, from a sorted list.

    Exploits a property of the metric: every key sharing at least ``p``
    leading bits with the target is strictly closer (XOR) than any key
    sharing fewer, so the smallest *aligned binary subtree* (prefix
    range) around the target still holding ``count`` keys is guaranteed
    to contain the true closest set — and prefix ranges are contiguous
    in sorted order, so the subtree is one slice.

    A caller that already knows an enclosing range starts the narrowing
    there: ``sorted_keys[low:high]`` must be the keys sharing
    ``target``'s first ``start_prefix - 1`` bits, and hold at least
    ``min(count, len(sorted_keys))`` of them.  The defaults start from
    the whole list.

    :param sorted_keys: keys in ascending order (no duplicates).
    :returns: the closest ``count`` keys, ordered by XOR distance.
    """
    keys = sorted_keys
    if not keys or count <= 0:
        return []
    want = min(len(keys), count)
    if high is None:
        high = len(keys)
    # Shrink the aligned range while it still holds enough keys.
    for prefix_len in range(start_prefix, KEY_BITS + 1):
        shift = KEY_BITS - prefix_len
        range_base = (target >> shift) << shift
        new_low = bisect_left(keys, range_base, low, high)
        new_high = bisect_left(keys, range_base + (1 << shift), new_low, high)
        if new_high - new_low < want:
            break
        low, high = new_low, new_high
    candidates = keys[low:high]
    candidates.sort(key=target.__xor__)
    return candidates[:count]


def key_to_hex(key: Key) -> str:
    """Render a key as a fixed-width hex string (for logs and debugging)."""
    return f"{key:064x}"


def random_key_in_bucket(own: Key, index: int, rng) -> Key:
    """Draw a uniform random key that falls into bucket ``index`` of ``own``.

    Used by the crawler and by bucket-refresh maintenance: the returned key
    shares exactly ``index`` leading bits with ``own`` (the bit at position
    ``index`` is flipped, lower bits are random).

    :param own: the key whose bucket layout is used.
    :param index: bucket index in ``[0, KEY_BITS)``.
    :param rng: a :class:`random.Random`-like source with ``getrandbits``.
    """
    if not 0 <= index < KEY_BITS:
        raise ValueError(f"bucket index out of range: {index}")
    # Keep the `index` high bits of `own`, flip bit `index`, randomize rest.
    shift = KEY_BITS - index
    prefix = (own >> shift) << shift if index > 0 else 0
    flipped_bit = ((own >> (shift - 1)) & 1) ^ 1
    low_bits = shift - 1
    suffix = rng.getrandbits(low_bits) if low_bits > 0 else 0
    return prefix | (flipped_bit << (shift - 1)) | suffix
