"""DNS names, resource records, and RFC 1035-style master-file text.

Names are tuples of lowercase labels, most-specific first, always
absolute; the root is the empty tuple.  Records carry structured rdata
(small dataclasses per type) so the zone, the wire codec, and the master
file all share one representation.  Each rdata class holds everything
known about its type: the type code, the field limits the wire imposes,
its wire codec and its master-file text.  Adding a type means one class
here, listed in ``RDATA_CLASSES``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

Name = tuple[str, ...]

# rtype codes (RFC 1035 / 2782)
TYPE_A = 1
TYPE_NS = 2
TYPE_CNAME = 5
TYPE_SOA = 6
TYPE_PTR = 12
TYPE_TXT = 16
TYPE_SRV = 33
TYPE_IXFR = 251
TYPE_AXFR = 252
TYPE_ANY = 255

CLASS_IN = 1
CLASS_NONE = 254
CLASS_ANY = 255

#: TTLs with the top bit set are treated as zero (RFC 2181 §8)
MAX_TTL = 0x7FFFFFFF
_U16 = 0xFFFF
_U32 = 0xFFFFFFFF


class RecordError(ValueError):
    pass


def parse_name(text: str) -> Name:
    """Dotted text to a label tuple; case-folded, trailing dot optional."""
    text = text.strip().lower()
    if text in (".", ""):
        return ()
    dotted = text.rstrip(".")
    if not dotted.isascii():
        raise RecordError(f"non-ASCII name {text!r}")
    if len(dotted) > 253:  # plus a length byte per label and the root label
        raise RecordError(f"name {text!r} exceeds 255 wire bytes")
    labels = tuple(dotted.split("."))
    for label in labels:
        if not label or len(label) > 63:
            raise RecordError(f"bad label {label!r} in name {text!r}")
    return labels


def name_text(name: Name) -> str:
    return ".".join(name) + "." if name else "."


def is_subdomain(name: Name, ancestor: Name) -> bool:
    """True when ``name`` equals or sits below ``ancestor``."""
    if not ancestor:
        return True
    return len(name) >= len(ancestor) and name[-len(ancestor):] == ancestor


# ---------------------------------------------------------------------------
# Rdata
#
# Each class names its type code (``rtype``) and how many master-file
# fields it takes (``nfields``, None for any number), enforces the field
# limits of the wire when built, and converts itself:
#   to_wire(w) / from_wire(r, end)  against wire._Writer / wire._Reader,
#                                   ``end`` being where the rdata stops;
#   to_text() / from_text(args, name)  master-file fields, ``name``
#                                   parsing each name field.

_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4_RE = re.compile(rf"{_OCTET}(?:\.{_OCTET}){{3}}")


@dataclass(frozen=True, slots=True)
class A:
    address: str  # canonical dotted-quad IPv4: ASCII digits, no leading zeros

    rtype = TYPE_A
    nfields = 1

    def __post_init__(self):
        if _IPV4_RE.fullmatch(self.address) is None:
            raise RecordError(f"bad IPv4 address {self.address!r}")

    def to_wire(self, w) -> None:
        w.buf += bytes(map(int, self.address.split(".")))

    @classmethod
    def from_wire(cls, r, end: int) -> "A":
        return cls("%d.%d.%d.%d" % tuple(r.take(4)))

    def to_text(self) -> str:
        return self.address

    @classmethod
    def from_text(cls, args: list[str], name: Callable[[str], Name]) -> "A":
        return cls(args[0])


@dataclass(frozen=True, slots=True)
class _Target:
    """Rdata that is one domain name: NS, CNAME and PTR."""

    target: Name

    nfields = 1

    def to_wire(self, w) -> None:
        w.name(self.target)

    @classmethod
    def from_wire(cls, r, end: int):
        return cls(r.name())

    def to_text(self) -> str:
        return name_text(self.target)

    @classmethod
    def from_text(cls, args: list[str], name: Callable[[str], Name]):
        return cls(name(args[0]))


class NS(_Target):
    __slots__ = ()
    rtype = TYPE_NS


class CNAME(_Target):
    __slots__ = ()
    rtype = TYPE_CNAME


class PTR(_Target):
    __slots__ = ()
    rtype = TYPE_PTR


@dataclass(frozen=True, slots=True)
class TXT:
    strings: tuple[str, ...]  # latin-1 text, each string at most 255 bytes

    rtype = TYPE_TXT
    nfields = None

    def __post_init__(self):
        for s in self.strings:
            if len(s.encode("latin-1")) > 255:
                raise RecordError("TXT character-strings are limited to 255 bytes")

    @property
    def text(self) -> str:
        return "".join(self.strings)

    def to_wire(self, w) -> None:
        buf = w.buf
        for s in self.strings:
            data = s.encode("latin-1")
            buf.append(len(data))
            buf += data

    @classmethod
    def from_wire(cls, r, end: int) -> "TXT":
        strings = []
        while r.pos < end:
            strings.append(r.take(r.u8()).decode("latin-1"))
        return cls(tuple(strings))

    def to_text(self) -> str:
        return " ".join('"%s"' % s.replace("\\", "\\\\").replace('"', '\\"')
                        for s in self.strings)

    @classmethod
    def from_text(cls, args: list[str], name: Callable[[str], Name]) -> "TXT":
        return cls(tuple(args))


@dataclass(frozen=True, slots=True)
class SRV:
    priority: int
    weight: int
    port: int
    target: Name

    rtype = TYPE_SRV
    nfields = 4

    def __post_init__(self):
        if not (0 <= self.priority <= _U16 and 0 <= self.weight <= _U16
                and 0 <= self.port <= _U16):
            raise RecordError(
                f"SRV priority {self.priority}, weight {self.weight} and "
                f"port {self.port} must each be 0..{_U16}")

    def to_wire(self, w) -> None:
        w.u16(self.priority)
        w.u16(self.weight)
        w.u16(self.port)
        w.name(self.target, compress=False)  # RFC 2782: no compression

    @classmethod
    def from_wire(cls, r, end: int) -> "SRV":
        return cls(r.u16(), r.u16(), r.u16(), r.name())

    def to_text(self) -> str:
        return f"{self.priority} {self.weight} {self.port} {name_text(self.target)}"

    @classmethod
    def from_text(cls, args: list[str], name: Callable[[str], Name]) -> "SRV":
        return cls(int(args[0]), int(args[1]), int(args[2]), name(args[3]))


@dataclass(frozen=True, slots=True)
class SOA:
    mname: Name
    rname: Name
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int

    rtype = TYPE_SOA
    nfields = 7

    def __post_init__(self):
        for value in (self.serial, self.refresh, self.retry, self.expire, self.minimum):
            if not 0 <= value <= _U32:
                raise RecordError(f"SOA number {value} outside 0..{_U32}")

    def to_wire(self, w) -> None:
        w.name(self.mname)
        w.name(self.rname)
        for value in (self.serial, self.refresh, self.retry, self.expire, self.minimum):
            w.u32(value)

    @classmethod
    def from_wire(cls, r, end: int) -> "SOA":
        return cls(r.name(), r.name(), r.u32(), r.u32(), r.u32(), r.u32(), r.u32())

    def to_text(self) -> str:
        return (
            f"{name_text(self.mname)} {name_text(self.rname)} {self.serial} "
            f"{self.refresh} {self.retry} {self.expire} {self.minimum}"
        )

    @classmethod
    def from_text(cls, args: list[str], name: Callable[[str], Name]) -> "SOA":
        return cls(name(args[0]), name(args[1]), *map(int, args[2:]))


Rdata = Union[A, NS, CNAME, PTR, TXT, SRV, SOA]

#: the one table of record types: wire decoding and master-file parsing
#: both find the rdata class here by type code
RDATA_CLASSES: dict[int, type] = {cls.rtype: cls for cls in (A, NS, CNAME, SOA, PTR, TXT, SRV)}

TYPE_NAMES = {code: cls.__name__ for code, cls in RDATA_CLASSES.items()}
TYPE_NAMES.update({TYPE_IXFR: "IXFR", TYPE_AXFR: "AXFR", TYPE_ANY: "ANY"})
TYPE_CODES = {v: k for k, v in TYPE_NAMES.items()}
TYPE_CODES["ALL"] = TYPE_ANY  # dig spelling


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    owner: Name
    ttl: int
    rdata: Rdata
    rclass: int = CLASS_IN

    def __post_init__(self):
        if not 0 <= self.ttl <= MAX_TTL:
            raise RecordError(f"TTL {self.ttl} outside 0..{MAX_TTL}")

    @property
    def rtype(self) -> int:
        return self.rdata.rtype

    @property
    def type_name(self) -> str:
        return TYPE_NAMES[self.rdata.rtype]

    def render(self) -> str:
        """One master-file line."""
        return (
            f"{name_text(self.owner)}\t{self.ttl}\tIN\t{self.type_name}\t"
            f"{self.rdata.to_text()}"
        )


def make_txt(text: str, chunk: int = 255) -> TXT:
    """TXT rdata from free text, split into ≤255-byte character-strings."""
    data = text.encode("latin-1")
    return TXT(tuple(
        data[i : i + chunk].decode("latin-1") for i in range(0, len(data), chunk)
    ) or ("",))


# ---------------------------------------------------------------------------
# Master-file text


def export_master_file(origin: Name, records: Iterable[ResourceRecord]) -> str:
    """Canonical master-file text: $ORIGIN, SOA first, rest sorted."""
    ordered = sorted(records, key=lambda r: (
        r.rtype != TYPE_SOA, tuple(reversed(r.owner)), r.rtype, r.rdata.to_text()))
    lines = [f"$ORIGIN {name_text(origin)}"]
    lines += [r.render() for r in ordered]
    return "\n".join(lines) + "\n"


def import_master_file(source: Union[str, Iterable[str]]) -> tuple[Name, list[ResourceRecord]]:
    """The $ORIGIN and records of master-file text, or of an open text
    file read a line at a time.  Both break lines where ``str.splitlines``
    does, so an error names the same line number either way."""
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = itertools.chain.from_iterable(map(str.splitlines, source))
    origin: Name = ()
    records = []
    name = name_memo()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        try:
            if line.startswith("$ORIGIN"):
                fields = line.split()
                if len(fields) != 2:
                    raise RecordError("$ORIGIN takes one name")
                origin = name(fields[1])
            else:
                records.append(parse_record_line(line, name))
        except RecordError as exc:
            raise RecordError(f"master file line {lineno}: {exc}") from exc
    return origin, records


def name_memo(known: Optional[Callable[[Name], Name]] = None) -> Callable[[str], Name]:
    """A ``parse_name`` that makes one tuple per spelling and one string
    per label, shared by every name; ``known`` maps a new name to the
    tuple to use instead, such as one a zone already holds."""
    names: dict[str, Name] = {}
    labels: dict[str, str] = {}

    def name(spelling: str) -> Name:
        parsed = names.get(spelling)
        if parsed is None:
            parsed = parse_name(spelling)
            parsed = tuple(map(labels.setdefault, parsed, parsed))
            if known is not None:
                parsed = known(parsed)
            names[spelling] = parsed
        return parsed

    return name


def parse_record_line(line: str, name: Callable[[str], Name] = parse_name) -> ResourceRecord:
    """One master-file record: owner, TTL, class IN, type, rdata fields.

    ``name`` parses each name field; an importer passes a ``name_memo``
    so that records share their name tuples.
    """
    fields = _tokenize(line)
    if len(fields) < 4:
        raise RecordError("a record needs an owner, a TTL, a class and a type")
    if fields[2].upper() != "IN":
        raise RecordError(f"unsupported class {fields[2]!r}")
    rtype = fields[3].upper()
    cls = RDATA_CLASSES.get(TYPE_CODES.get(rtype))
    if cls is None:
        raise RecordError(f"unsupported record type {fields[3]!r}")
    args = fields[4:]
    if cls.nfields is not None and len(args) != cls.nfields:
        raise RecordError(f"{rtype} takes {cls.nfields} fields, found {len(args)}")
    try:
        return ResourceRecord(name(fields[0]), int(fields[1]), cls.from_text(args, name))
    except RecordError:
        raise
    except ValueError as exc:  # a number field that is not an integer
        raise RecordError(str(exc)) from None


# a double-quoted string (backslash escapes any character), a bare word
# (which may hold quotes after its first character), or an unmatched quote
_TOKEN_RE = re.compile(r'("(?:[^"\\]|\\.)*")|([^\s"]\S*)|(")', re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def _tokenize(line: str) -> list[str]:
    """Whitespace split with double-quoted strings kept whole."""
    if '"' not in line:
        return line.split()
    out = []
    for quoted, bare, unmatched in _TOKEN_RE.findall(line):
        if bare:
            out.append(bare)
        elif quoted:
            body = quoted[1:-1]
            out.append(_ESCAPE_RE.sub(r"\1", body) if "\\" in body else body)
        else:
            raise RecordError("unterminated quoted string")
    return out
