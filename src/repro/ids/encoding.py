"""Base58btc and RFC 4648 base32 encodings.

Peer IDs are conventionally rendered base58btc (the Bitcoin alphabet),
CIDv1 strings base32 lower-case without padding.  Base58 and base32
decoding are implemented here; base32 encoding is the standard
library's :func:`base64.b32encode`, lower-cased and unpadded.
"""

from __future__ import annotations

import base64

_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {char: value for value, char in enumerate(_B58_ALPHABET)}

_B32_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"
_B32_INDEX = {char: value for value, char in enumerate(_B32_ALPHABET)}


def base58_encode(data: bytes) -> str:
    """Encode bytes as a base58btc string."""
    # Leading zero bytes encode as leading '1' characters.
    leading_zeros = len(data) - len(data.lstrip(b"\x00"))
    number = int.from_bytes(data, "big")
    digits = []
    while number > 0:
        number, remainder = divmod(number, 58)
        digits.append(_B58_ALPHABET[remainder])
    return "1" * leading_zeros + "".join(reversed(digits))


def base58_decode(text: str) -> bytes:
    """Decode a base58btc string back to bytes.

    Raises :class:`ValueError` on characters outside the alphabet.
    """
    leading_ones = len(text) - len(text.lstrip("1"))
    number = 0
    for char in text:
        try:
            number = number * 58 + _B58_INDEX[char]
        except KeyError:
            raise ValueError(f"invalid base58 character: {char!r}") from None
    body = number.to_bytes((number.bit_length() + 7) // 8, "big") if number else b""
    return b"\x00" * leading_ones + body


def base32_encode(data: bytes) -> str:
    """Encode bytes as lower-case, unpadded RFC 4648 base32."""
    return base64.b32encode(data).decode("ascii").rstrip("=").lower()


def base32_decode(text: str) -> bytes:
    """Decode lower-case unpadded base32 back to bytes.

    Raises :class:`ValueError` on characters outside the alphabet.
    """
    bits = 0
    bit_count = 0
    output = bytearray()
    for char in text:
        try:
            bits = (bits << 5) | _B32_INDEX[char]
        except KeyError:
            raise ValueError(f"invalid base32 character: {char!r}") from None
        bit_count += 5
        if bit_count >= 8:
            bit_count -= 8
            output.append((bits >> bit_count) & 0xFF)
    return bytes(output)
