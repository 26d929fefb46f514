"""Geohash encoding of WGS84 coordinates and the 64-bit geo-identifier.

Coordinates become bits by dichotomy: halve the interval, emit 1 when the
point sits in the upper half, repeat.  Latitude and longitude bit strings
are then Morton-interleaved (longitude first) and rendered in base32.
String prefixes of the result denote enclosing regions, which is what
makes geohash labels usable as DNS discovery prefixes.

A geo-identifier packs a 5-bit context id and 59 interleaved coordinate
bits (30 longitude, 29 latitude) into exactly 64 bits, so it can double
as a LoRaWAN DevEUI.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitString, b32_decode, b32_encode

GEO_CONTEXT_ID = 3
GEO_COORD_BITS = 59  # 30 longitude + 29 latitude
LAT_RANGE = (-90.0, 90.0)
LNG_RANGE = (-180.0, 180.0)
MAX_GEOHASH_LENGTH = 12


class GeoError(ValueError):
    pass


@dataclass(frozen=True)
class GeoPoint:
    """WGS84 coordinate in degrees. Longitude +180 wraps to -180."""

    latitude: float
    longitude: float

    def __post_init__(self):
        if not LAT_RANGE[0] <= self.latitude <= LAT_RANGE[1]:
            raise GeoError(f"latitude {self.latitude} outside [-90, 90]")
        if not LNG_RANGE[0] <= self.longitude <= LNG_RANGE[1]:
            raise GeoError(f"longitude {self.longitude} outside [-180, 180]")
        if self.longitude == LNG_RANGE[1]:
            object.__setattr__(self, "longitude", LNG_RANGE[0])


@dataclass(frozen=True)
class GeoCell:
    """The rectangular region a geohash denotes, plus its center point."""

    lat_interval: tuple[float, float]
    lng_interval: tuple[float, float]

    @property
    def center(self) -> GeoPoint:
        return GeoPoint(
            (self.lat_interval[0] + self.lat_interval[1]) / 2,
            (self.lng_interval[0] + self.lng_interval[1]) / 2,
        )

    @property
    def lat_error(self) -> float:
        return (self.lat_interval[1] - self.lat_interval[0]) / 2

    @property
    def lng_error(self) -> float:
        return (self.lng_interval[1] - self.lng_interval[0]) / 2

    def contains(self, p: GeoPoint) -> bool:
        return (
            self.lat_interval[0] <= p.latitude <= self.lat_interval[1]
            and self.lng_interval[0] <= p.longitude <= self.lng_interval[1]
        )


def bit_split(length_chars: int) -> tuple[int, int]:
    """(lat bits, lng bits) for a label of ``length_chars`` symbols.

    Interleaving starts with longitude, so longitude gets the extra bit
    when the total 5*length is odd.
    """
    total = 5 * length_chars
    return total // 2, total - total // 2


def coord_to_bits(value: float, coord_range: tuple[float, float], nbits: int) -> BitString:
    """Dichotomy encoding: bit i is 1 iff value is in the upper half interval.

    A value exactly on a midpoint goes to the upper half.
    """
    lo, hi = coord_range
    if not lo <= value <= hi:
        raise GeoError(f"coordinate {value} outside [{lo}, {hi}]")
    out = []
    for _ in range(nbits):
        mid = (lo + hi) / 2
        if value >= mid:
            out.append("1")
            lo = mid
        else:
            out.append("0")
            hi = mid
    return BitString("".join(out))


def bits_to_interval(bits: BitString, coord_range: tuple[float, float]) -> tuple[float, float]:
    """Inverse of the dichotomy: the interval remaining after all halvings."""
    lo, hi = coord_range
    for bit in bits:
        mid = (lo + hi) / 2
        if bit:
            lo = mid
        else:
            hi = mid
    return lo, hi


def interleave(lat_bits: BitString, lng_bits: BitString) -> BitString:
    """Morton merge: lng, lat, lng, lat, ... starting with longitude."""
    if len(lng_bits) - len(lat_bits) not in (0, 1):
        raise GeoError(
            f"cannot interleave {len(lat_bits)} lat bits with {len(lng_bits)} "
            f"lng bits: longitude must lead by 0 or 1"
        )
    out = []
    lat, lng = lat_bits.bits, lng_bits.bits
    for i in range(len(lng)):
        out.append(lng[i])
        if i < len(lat):
            out.append(lat[i])
    return BitString("".join(out))


def deinterleave(bits: BitString) -> tuple[BitString, BitString]:
    """Split a Morton string back into (lat bits, lng bits)."""
    return BitString(bits.bits[1::2]), BitString(bits.bits[0::2])


def _morton(p: GeoPoint, lat_n: int, lng_n: int) -> BitString:
    """Morton merge of ``lat_n`` latitude and ``lng_n`` longitude bits of ``p``."""
    return interleave(coord_to_bits(p.latitude, LAT_RANGE, lat_n),
                      coord_to_bits(p.longitude, LNG_RANGE, lng_n))


def _cell(bits: BitString) -> GeoCell:
    """The cell that interleaved coordinate bits denote."""
    lat_bits, lng_bits = deinterleave(bits)
    return GeoCell(
        bits_to_interval(lat_bits, LAT_RANGE),
        bits_to_interval(lng_bits, LNG_RANGE),
    )


def encode_geohash(p: GeoPoint, length_chars: int) -> str:
    """Geohash label of exactly ``length_chars`` symbols for a point."""
    if not 1 <= length_chars <= MAX_GEOHASH_LENGTH:
        raise GeoError(f"geohash length must be 1..{MAX_GEOHASH_LENGTH}, got {length_chars}")
    return b32_encode(_morton(p, *bit_split(length_chars)))


def decode_geohash(label: str) -> GeoCell:
    """Cell denoted by a geohash label; its center is the decoded position."""
    return _cell(b32_decode(label))


# ---------------------------------------------------------------------------
# 64-bit geo-identifier (DevEUI)


@dataclass(frozen=True)
class GeoIdentifier64:
    """Context id + 59 interleaved coordinate bits; 64 bits total."""

    context_id: int
    coordinate_bits: BitString

    def __post_init__(self):
        if len(self.coordinate_bits) != GEO_COORD_BITS:
            raise GeoError(
                f"geo-identifier needs {GEO_COORD_BITS} coordinate bits, "
                f"got {len(self.coordinate_bits)}"
            )

    @property
    def bits(self) -> BitString:
        return BitString.from_int(self.context_id, 5) + self.coordinate_bits

    def to_bytes(self) -> bytes:
        return self.bits.to_int().to_bytes(8, "big")

    def cell(self) -> GeoCell:
        return _cell(self.coordinate_bits)


def make_geo_identifier(p: GeoPoint, context_id: int = GEO_CONTEXT_ID) -> GeoIdentifier64:
    return GeoIdentifier64(context_id, _morton(p, GEO_COORD_BITS // 2, GEO_COORD_BITS // 2 + 1))


def geo_identifier_to_label(g: GeoIdentifier64) -> str:
    """Render 64 bits as 13 symbols with one explicit zero padding bit."""
    return b32_encode(g.bits + BitString("0"))


def geo_identifier_from_label(label: str) -> GeoIdentifier64:
    bits = b32_decode(label)
    if len(bits) != 65:
        raise GeoError(f"geo-identifier label must be 13 symbols, got {len(label)}")
    if bits[64:].to_int() != 0:
        raise GeoError("final padding bit must be zero")
    return GeoIdentifier64(bits[:5].to_int(), bits[5:64])
