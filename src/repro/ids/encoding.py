"""Base58btc and RFC 4648 base32 encodings.

Peer IDs are conventionally rendered base58btc (the Bitcoin alphabet),
CIDv1 strings base32 lower-case without padding.  Base32 goes through
Python's C integer conversions: the encoder reads the bytes as one
``int`` and renders ten bits per table lookup, the decoder maps the
alphabet onto ``int(text, 32)``'s digits after a strict alphabet check.
"""

from __future__ import annotations

_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {char: value for value, char in enumerate(_B58_ALPHABET)}

_B32_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"
#: Every 10-bit value as its two base32 characters.
_B32_PAIRS = [high + low for high in _B32_ALPHABET for low in _B32_ALPHABET]
#: Our alphabet onto the digits ``int(text, 32)`` reads, value for value.
_B32_TO_DIGITS = str.maketrans(_B32_ALPHABET, "0123456789abcdefghijklmnopqrstuv")


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
    bits = len(data) * 8
    pairs = -(-bits // 10)
    # Zero-fill the tail to whole pairs; the slice drops an unused char.
    number = int.from_bytes(data, "big") << (pairs * 10 - bits)
    text = "".join(
        [_B32_PAIRS[(number >> shift) & 0x3FF] for shift in range(pairs * 10 - 10, -1, -10)]
    )
    return text[: -(-bits // 5)]


def base32_decode(text: str) -> bytes:
    """Decode lower-case unpadded base32 back to bytes.

    Raises :class:`ValueError` on characters outside the alphabet,
    before ``int`` could read an upper-case letter, a digit, a sign,
    an underscore or whitespace as part of a number.  Trailing bits
    that do not fill a byte are dropped.
    """
    if text.strip(_B32_ALPHABET):
        char = next(char for char in text if char not in _B32_ALPHABET)
        raise ValueError(f"invalid base32 character: {char!r}")
    size = len(text) * 5 // 8
    if not size:
        return b""
    number = int(text.translate(_B32_TO_DIGITS), 32)
    return (number >> (len(text) * 5 - size * 8)).to_bytes(size, "big")
