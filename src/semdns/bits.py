"""Bit strings and the geohash variant of base32.

Every identifier in this package is, underneath, an ordered sequence of
bits.  Bits render to DNS labels through a 32-symbol alphabet that avoids
characters easy to confuse (no a, i, l, o) -- the same alphabet geohashes
use, *not* RFC 4648 base32.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Public, bit-exact constant: symbol at index i encodes the 5-bit value i.
ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"

_SYMBOL_VALUE = {c: i for i, c in enumerate(ALPHABET)}


class PaddingError(ValueError):
    """Bit length is not a multiple of 5; no implicit padding is applied."""


class DecodeError(ValueError):
    """Input label contains a character outside the alphabet."""

    def __init__(self, char: str, position: int):
        self.char = char
        self.position = position
        super().__init__(
            f"character {char!r} at position {position} is not in the base32 alphabet"
        )


@dataclass(frozen=True)
class BitString:
    """Immutable ordered sequence of bits.

    Stored as a string of '0'/'1' characters; cheap to slice, concatenate
    and compare, which is all the codec needs.
    """

    bits: str = ""

    def __post_init__(self):
        if self.bits.strip("01"):
            raise ValueError(f"bits must contain only 0/1, got {self.bits!r}")

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitString":
        """MSB-first rendering of ``value`` in exactly ``width`` bits."""
        if value < 0:
            raise ValueError("value must be non-negative")
        if width < 0:
            raise ValueError("width must be non-negative")
        if value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        return cls(format(value, f"0{width}b") if width else "")

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitString":
        return cls("".join(format(b, "08b") for b in data))

    def to_int(self) -> int:
        return int(self.bits, 2) if self.bits else 0

    def __len__(self) -> int:
        return len(self.bits)

    def __add__(self, other: "BitString") -> "BitString":
        return BitString(self.bits + other.bits)

    def __getitem__(self, index) -> "BitString":
        return BitString(self.bits[index])

    def __iter__(self):
        return (int(b) for b in self.bits)

    def __str__(self) -> str:
        return self.bits


def b32_encode(bits: BitString) -> str:
    """Encode a bit string as base32 text, 5 bits per symbol, MSB first.

    Raises :class:`PaddingError` unless the length is a multiple of 5;
    padding is never added silently.
    """
    if len(bits) % 5:
        raise PaddingError(
            f"cannot encode {len(bits)} bits: length must be a multiple of 5"
        )
    raw = bits.bits
    return "".join(ALPHABET[int(raw[i : i + 5], 2)] for i in range(0, len(raw), 5))


def b32_decode(label: str) -> BitString:
    """Decode base32 text to bits.  Case-insensitive (DNS names are)."""
    out = []
    for pos, char in enumerate(label.lower()):
        value = _SYMBOL_VALUE.get(char)
        if value is None:
            raise DecodeError(char, pos)
        out.append(format(value, "05b"))
    return BitString("".join(out))
