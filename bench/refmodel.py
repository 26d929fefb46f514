"""Reference model the benchmark checks every server answer against.

The model is the load generator's own device table, kept up to date with
every write it sends.  Expected SRV/TXT/A answers are read from that
table, expected PTR sets come from a brute-force prefix filter over it,
and the secondary's IXFR replica must end equal to the record set the
table implies.  Identifiers come from the small integer-arithmetic
encoders below, written independently of ``semdns.geo`` and
``semdns.contexts`` so that the codec under test is checked, not trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"
SERVICE = ("_iot", "_udp")
ORIGIN = ("example",)
TTL = 100
SPLIT = 2  # identifier symbols per label, the server's --split-length
SOA_SERIAL = 1

# the DNS rtype codes the model speaks of (RFC 1035 / 2782)
T_A, T_SOA, T_PTR, T_TXT, T_SRV = 1, 6, 12, 16, 33


def b32(value: int, nbits: int) -> str:
    """``nbits`` (a multiple of 5) of ``value``, MSB first, as symbols."""
    return "".join(
        ALPHABET[(value >> shift) & 31] for shift in range(nbits - 5, -1, -5)
    )


def dichotomy(value: float, lo: int, hi: int, nbits: int) -> int:
    """Integer of the ``nbits`` halvings of [lo, hi] that hold ``value``.

    Exact rational arithmetic: a value on a midpoint goes to the upper
    half, and the top of the range maps to all ones.
    """
    cell = (Fraction(value) - lo) * (1 << nbits) // (hi - lo)
    return min(int(cell), (1 << nbits) - 1)


def interleave(lng: int, lat: int, lng_bits: int, lat_bits: int) -> int:
    """Morton merge starting with longitude; longitude leads by 0 or 1 bit."""
    out = 0
    for i in range(lng_bits):
        out = (out << 1) | (lng >> (lng_bits - 1 - i)) & 1
        if i < lat_bits:
            out = (out << 1) | (lat >> (lat_bits - 1 - i)) & 1
    return out


def geo_bits(lat: float, lng: float, nbits: int) -> int:
    if lng == 180:
        lng = -180  # the same meridian; semdns.geo.GeoPoint wraps it too
    lat_bits = nbits // 2
    lng_bits = nbits - lat_bits
    return interleave(dichotomy(lng, -180, 180, lng_bits),
                      dichotomy(lat, -90, 90, lat_bits), lng_bits, lat_bits)


def geohash(lat: float, lng: float, length: int) -> str:
    return b32(geo_bits(lat, lng, 5 * length), 5 * length)


def geo_eui(lat: float, lng: float) -> int:
    """The 64-bit geo-identifier: context 3, then 59 interleaved bits."""
    return (3 << 59) | geo_bits(lat, lng, 59)


def logical_id(building: int, floor: int, room: int) -> str:
    """Context 2 logical location: building 5 bits, floor 5, room 10."""
    return b32((2 << 20) | (building << 15) | (floor << 10) | room, 25)


def id_labels(prefix: str) -> tuple[str, ...]:
    """Identifier (or prefix) to labels, most-specific first."""
    chunks = [prefix[i:i + SPLIT] for i in range(0, len(prefix), SPLIT)]
    return tuple(reversed(chunks))


def id_owner(prefix: str) -> tuple[str, ...]:
    return id_labels(prefix) + SERVICE + ORIGIN


def name_text(name: tuple[str, ...]) -> str:
    return ".".join(name) + "."


@dataclass
class Device:
    instance: str
    ident: str
    port: int
    target: tuple[str, ...]
    txt: dict[str, str] = field(default_factory=dict)
    point: tuple[float, float] = (0.0, 0.0)

    @property
    def owner(self) -> tuple[str, ...]:
        return (self.instance,) + id_owner(self.ident)

    def records(self):
        yield (self.owner, TTL, T_SRV, (10, 20, self.port, self.target))
        yield (id_owner(self.ident), TTL, T_PTR, self.owner)
        for key, value in self.txt.items():
            yield (self.owner, TTL, T_TXT, f"{key}={value}")


class Model:
    """Device table plus the zone serial; the source of every expectation."""

    def __init__(self, gateways: dict[tuple[str, ...], str]):
        self.gateways = gateways
        self.devices: list[Device] = []
        self.serial = SOA_SERIAL
        self._names: set[tuple[str, ...]] = set()
        for gw in gateways:
            self._add_name(gw)

    def _add_name(self, name: tuple[str, ...]) -> None:
        for i in range(len(name) + 1):
            self._names.add(name[i:])

    def add(self, dev: Device) -> None:
        self.devices.append(dev)
        self._add_name(dev.owner)

    # -- expectations -------------------------------------------------------

    def exists(self, name: tuple[str, ...]) -> bool:
        """True when some record sits at or below ``name`` (else NXDOMAIN)."""
        return name in self._names

    def ptr_set(self, prefix: str) -> set[tuple[str, ...]]:
        return {d.owner for d in self.devices if d.ident.startswith(prefix)}

    def record_set(self) -> set:
        out = {(gw, TTL, T_A, addr) for gw, addr in self.gateways.items()}
        for dev in self.devices:
            out.update(dev.records())
        return out

    def master_file(self) -> str:
        o = name_text(ORIGIN)
        lines = [f"$ORIGIN {o}",
                 f"{o}\t{TTL}\tIN\tSOA\tns.{o} hostmaster.{o} {self.serial} 7200 900 86400 100"]
        for gw, addr in self.gateways.items():
            lines.append(f"{name_text(gw)}\t{TTL}\tIN\tA\t{addr}")
        for dev in self.devices:
            owner = name_text(dev.owner)
            lines.append(f"{owner}\t{TTL}\tIN\tSRV\t10 20 {dev.port} {name_text(dev.target)}")
            lines.append(f"{name_text(id_owner(dev.ident))}\t{TTL}\tIN\tPTR\t{owner}")
            for key, value in dev.txt.items():
                lines.append(f'{owner}\t{TTL}\tIN\tTXT\t"{key}={value}"')
        return "\n".join(lines) + "\n"


def norm(rr) -> tuple:
    """A record from the server, in the model's (owner, ttl, type, value) form."""
    d = rr.rdata
    kind = type(d).__name__
    if kind == "A":
        return (rr.owner, rr.ttl, T_A, d.address)
    if kind == "PTR":
        return (rr.owner, rr.ttl, T_PTR, d.target)
    if kind == "SRV":
        return (rr.owner, rr.ttl, T_SRV, (d.priority, d.weight, d.port, d.target))
    if kind == "TXT":
        return (rr.owner, rr.ttl, T_TXT, "".join(d.strings))
    if kind == "SOA":
        return (rr.owner, rr.ttl, T_SOA, d.serial)
    raise ValueError(f"record type {kind} is not in the model")


class Replica:
    """A secondary's copy of the zone, kept current by applying IXFR diffs."""

    def __init__(self, records: set, serial: int):
        self.records = set(records)
        self.serial = serial

    def apply(self, answers) -> str:
        """Apply one IXFR answer section; returns '' or what was wrong."""
        rows = [norm(rr) for rr in answers]
        if not rows or rows[0][2] != T_SOA or rows[-1][2] != T_SOA:
            return "IXFR answer is not framed by SOA records"
        current = rows[0][3]
        if len(rows) == 1:
            return "" if current == self.serial else f"IXFR reported {current} but sent no diff"
        body, i = rows[1:-1], 0
        while i < len(body):
            if body[i][2] != T_SOA or body[i][3] != self.serial:
                return f"IXFR step does not start at serial {self.serial}"
            j = i + 1
            while j < len(body) and body[j][2] != T_SOA:
                j += 1
            if j == len(body):
                return "IXFR step has no closing SOA"
            to_serial = body[j][3]
            if to_serial != self.serial + 1:
                return f"IXFR step {self.serial} -> {to_serial} skips a serial"
            k = j + 1
            while k < len(body) and body[k][2] != T_SOA:
                k += 1
            for row in body[i + 1:j]:
                if row not in self.records:
                    return f"IXFR deletes a record the replica lacks: {row}"
                self.records.remove(row)
            self.records.update(body[j + 1:k])
            self.serial, i = to_serial, k
        return "" if self.serial == current else f"IXFR diff ends at {self.serial}, not {current}"
