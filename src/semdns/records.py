"""DNS names, resource records, and RFC 1035-style master-file text.

Names are tuples of lowercase labels, most-specific first, always
absolute; the root is the empty tuple.  Records carry structured rdata
(small dataclasses per type) so the zone, the wire codec, and the master
file all share one representation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

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

TYPE_NAMES = {
    TYPE_A: "A",
    TYPE_NS: "NS",
    TYPE_CNAME: "CNAME",
    TYPE_SOA: "SOA",
    TYPE_PTR: "PTR",
    TYPE_TXT: "TXT",
    TYPE_SRV: "SRV",
    TYPE_IXFR: "IXFR",
    TYPE_AXFR: "AXFR",
    TYPE_ANY: "ANY",
}
TYPE_CODES = {v: k for k, v in TYPE_NAMES.items()}
TYPE_CODES["ALL"] = TYPE_ANY  # dig spelling


class RecordError(ValueError):
    pass


_LABEL_RE = re.compile(r"^[!-.0-~]{1,63}$")  # printable ascii, no '/', ≤63 bytes


def parse_name(text: str) -> Name:
    """Dotted text to a label tuple; case-folded, trailing dot optional."""
    text = text.strip().lower()
    if text in (".", ""):
        return ()
    labels = tuple(l for l in text.rstrip(".").split("."))
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


@dataclass(frozen=True)
class A:
    address: str  # dotted-quad IPv4

    def __post_init__(self):
        parts = self.address.split(".")
        if len(parts) != 4 or any(not p.isdigit() or int(p) > 255 for p in parts):
            raise RecordError(f"bad IPv4 address {self.address!r}")


@dataclass(frozen=True)
class NS:
    target: Name


@dataclass(frozen=True)
class CNAME:
    target: Name


@dataclass(frozen=True)
class PTR:
    target: Name


@dataclass(frozen=True)
class TXT:
    strings: tuple[str, ...]

    def __post_init__(self):
        for s in self.strings:
            if len(s.encode("latin-1")) > 255:
                raise RecordError("TXT character-strings are limited to 255 bytes")

    @property
    def text(self) -> str:
        return "".join(self.strings)


@dataclass(frozen=True)
class SRV:
    priority: int
    weight: int
    port: int
    target: Name


@dataclass(frozen=True)
class SOA:
    mname: Name
    rname: Name
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int


Rdata = Union[A, NS, CNAME, PTR, TXT, SRV, SOA]

RDATA_TYPE = {A: TYPE_A, NS: TYPE_NS, CNAME: TYPE_CNAME, PTR: TYPE_PTR,
              TXT: TYPE_TXT, SRV: TYPE_SRV, SOA: TYPE_SOA}


@dataclass(frozen=True)
class ResourceRecord:
    owner: Name
    ttl: int
    rdata: Rdata
    rclass: int = CLASS_IN

    @property
    def rtype(self) -> int:
        return RDATA_TYPE[type(self.rdata)]

    @property
    def type_name(self) -> str:
        return TYPE_NAMES[self.rtype]

    def render(self) -> str:
        """One master-file line."""
        return (
            f"{name_text(self.owner)}\t{self.ttl}\tIN\t{self.type_name}\t"
            f"{render_rdata(self.rdata)}"
        )


def make_txt(text: str, chunk: int = 255) -> TXT:
    """TXT rdata from free text, split into ≤255-byte character-strings."""
    data = text.encode("latin-1")
    return TXT(tuple(
        data[i : i + chunk].decode("latin-1") for i in range(0, len(data), chunk)
    ) or ("",))


def render_rdata(rdata: Rdata) -> str:
    if isinstance(rdata, A):
        return rdata.address
    if isinstance(rdata, (NS, CNAME, PTR)):
        return name_text(rdata.target)
    if isinstance(rdata, TXT):
        return " ".join('"%s"' % s.replace("\\", "\\\\").replace('"', '\\"')
                        for s in rdata.strings)
    if isinstance(rdata, SRV):
        return f"{rdata.priority} {rdata.weight} {rdata.port} {name_text(rdata.target)}"
    if isinstance(rdata, SOA):
        return (
            f"{name_text(rdata.mname)} {name_text(rdata.rname)} {rdata.serial} "
            f"{rdata.refresh} {rdata.retry} {rdata.expire} {rdata.minimum}"
        )
    raise RecordError(f"cannot render rdata {rdata!r}")


# ---------------------------------------------------------------------------
# Master-file text


def export_master_file(origin: Name, records: Iterable[ResourceRecord]) -> str:
    """Canonical master-file text: $ORIGIN, SOA first, rest sorted."""
    records = list(records)
    soa = [r for r in records if isinstance(r.rdata, SOA)]
    rest = sorted(
        (r for r in records if not isinstance(r.rdata, SOA)),
        key=lambda r: (tuple(reversed(r.owner)), r.rtype, render_rdata(r.rdata)),
    )
    lines = [f"$ORIGIN {name_text(origin)}"]
    lines += [r.render() for r in soa + rest]
    return "\n".join(lines) + "\n"


def import_master_file(text: str) -> tuple[Name, list[ResourceRecord]]:
    origin: Name = ()
    records = []
    names: dict[str, Name] = {}  # one tuple per spelling, shared by every record
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        if line.startswith("$ORIGIN"):
            origin = parse_name(line.split(None, 1)[1])
            continue
        try:
            records.append(_parse_record_line(line, names))
        except (RecordError, ValueError, IndexError) as exc:
            raise RecordError(f"master file line {lineno}: {exc}") from exc
    return origin, records


def _parse_record_line(line: str, names: dict[str, Name] | None = None) -> ResourceRecord:
    if names is None:
        names = {}

    def name(text: str) -> Name:
        parsed = names.get(text)
        if parsed is None:
            parsed = names[text] = parse_name(text)
        return parsed

    fields = _tokenize(line)
    owner = name(fields[0])
    ttl = int(fields[1])
    if fields[2].upper() != "IN":
        raise RecordError(f"unsupported class {fields[2]!r}")
    rtype = fields[3].upper()
    args = fields[4:]
    if rtype == "A":
        rdata: Rdata = A(args[0])
    elif rtype == "NS":
        rdata = NS(name(args[0]))
    elif rtype == "CNAME":
        rdata = CNAME(name(args[0]))
    elif rtype == "PTR":
        rdata = PTR(name(args[0]))
    elif rtype == "TXT":
        rdata = TXT(tuple(args))
    elif rtype == "SRV":
        rdata = SRV(int(args[0]), int(args[1]), int(args[2]), name(args[3]))
    elif rtype == "SOA":
        rdata = SOA(name(args[0]), name(args[1]), *map(int, args[2:7]))
    else:
        raise RecordError(f"unsupported record type {rtype!r}")
    return ResourceRecord(owner, ttl, rdata)


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
