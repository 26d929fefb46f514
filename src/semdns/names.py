"""Self-certifying device names and EUI64 derivation.

A device name is a hash of its public key, so anyone holding the key can
check the name without a PKI: digest = RIPEMD-160(SHA-256(key bytes)),
rendered as 32 base32 symbols.  An 8-byte EUI64 (usable as a LoRaWAN
DevEUI) is derived from the same digest with SHA3-256.

Keys are opaque byte strings here; interoperating parties must agree on
the key serialization they feed in.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .bits import BitString, b32_decode, b32_encode
from ._ripemd160 import ripemd160

NAME_DIGEST_BITS = 160
NAME_LABEL_LENGTH = NAME_DIGEST_BITS // 5  # 32 symbols
EUI64_BYTES = 8


class NameError_(ValueError):
    pass


@dataclass(frozen=True)
class SelfCertName:
    """160-bit key digest plus its base32 label."""

    digest: bytes

    def __post_init__(self):
        if len(self.digest) != NAME_DIGEST_BITS // 8:
            raise NameError_(f"digest must be 20 bytes, got {len(self.digest)}")

    @property
    def label(self) -> str:
        return b32_encode(BitString.from_bytes(self.digest))


@dataclass(frozen=True)
class Eui64Id:
    value: bytes

    def __post_init__(self):
        if len(self.value) != EUI64_BYTES:
            raise NameError_(f"EUI64 must be 8 bytes, got {len(self.value)}")

    def __str__(self) -> str:
        return "-".join(f"{b:02x}" for b in self.value)


def derive_name(pubkey: bytes) -> SelfCertName:
    """RIPEMD-160 over SHA-256 of the key bytes, as given."""
    if not pubkey:
        raise NameError_("public key bytes must be nonempty")
    return SelfCertName(ripemd160(hashlib.sha256(pubkey).digest()))


def verify_name(label: str, pubkey: bytes) -> bool:
    """True iff the label is the self-certifying name of the key.

    A malformed label (wrong length or bad characters) raises, so callers
    can distinguish it from an honest mismatch.
    """
    label = label.lower()
    if len(label) != NAME_LABEL_LENGTH:
        raise NameError_(
            f"self-certifying labels have {NAME_LABEL_LENGTH} symbols, got {len(label)}"
        )
    b32_decode(label)  # raises DecodeError on bad symbols
    return derive_name(pubkey).label == label


def derive_eui64(name: SelfCertName) -> Eui64Id:
    """First 8 bytes of SHA3-256 over the 20 raw digest bytes."""
    return Eui64Id(hashlib.sha3_256(name.digest).digest()[:EUI64_BYTES])
