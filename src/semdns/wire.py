"""DNS wire format: message framing and name compression.

Covers exactly what an authoritative IoT-discovery service needs: QUERY
and UPDATE opcodes, AXFR/IXFR qtypes, and the rdata types in
``records.RDATA_CLASSES``, whose classes read and write their own rdata
through the writer and reader here.  Compression pointers are emitted
for owner names and compressible rdata names on output.  On input a
pointer must point back to a prior occurrence (RFC 1035 §4.1.4), which
rules out loops.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .records import (
    CLASS_IN, MAX_TTL, RDATA_CLASSES, Name, ResourceRecord,
)

OPCODE_QUERY = 0
OPCODE_UPDATE = 5

RCODE_NOERROR = 0
RCODE_FORMERR = 1
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3
RCODE_NOTIMP = 4
RCODE_REFUSED = 5
RCODE_NOTAUTH = 9  # RFC 2136: the server is not authoritative for the zone named
RCODE_NOTZONE = 10  # RFC 2136: an update record outside the zone

RCODE_NAMES = {
    RCODE_NOERROR: "NOERROR",
    RCODE_FORMERR: "FORMERR",
    RCODE_SERVFAIL: "SERVFAIL",
    RCODE_NXDOMAIN: "NXDOMAIN",
    RCODE_NOTIMP: "NOTIMP",
    RCODE_REFUSED: "REFUSED",
    RCODE_NOTAUTH: "NOTAUTH",
    RCODE_NOTZONE: "NOTZONE",
}

MAX_NAME_WIRE = 255
MAX_UDP_PAYLOAD = 1460  # amplification guard, .com-style record cap
#: the largest count a header field holds; a longer section cannot be encoded
MAX_SECTION = 0xFFFF

_HEADER = struct.Struct("!6H")  # id, flags, QDCOUNT, ANCOUNT, NSCOUNT, ARCOUNT
_QUESTION = struct.Struct("!HH")  # QTYPE, QCLASS
_RECORD = struct.Struct("!HHIH")  # TYPE, CLASS, TTL, RDLENGTH
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")


class WireError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Question:
    qname: Name
    qtype: int
    qclass: int = CLASS_IN


@dataclass(frozen=True, slots=True)
class Message:
    id: int = 0
    qr: bool = False
    opcode: int = OPCODE_QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = False
    ra: bool = False
    rcode: int = RCODE_NOERROR
    questions: tuple[Question, ...] = ()
    answers: tuple[ResourceRecord, ...] = ()
    authority: tuple[ResourceRecord, ...] = ()
    additional: tuple[ResourceRecord, ...] = ()

    def reply(self, rcode: int = RCODE_NOERROR,
              answers: tuple[ResourceRecord, ...] = (),
              authority: tuple[ResourceRecord, ...] = (),
              additional: tuple[ResourceRecord, ...] = (),
              tc: bool = False) -> "Message":
        """Response skeleton: echoes id, opcode, RD and question, sets QR
        and AA, clears RA; sets TC only when ``tc`` is true, since TC
        marks a truncated reply (RFC 1035 §4.1.1)."""
        return Message(self.id, True, self.opcode, True, tc,
                       self.rd, False, rcode, self.questions, answers, authority, additional)


# ---------------------------------------------------------------------------
# Encoding


class _Writer:
    __slots__ = ("buf", "offsets")

    def __init__(self, header: bytes):
        self.buf = bytearray(header)
        self.offsets: dict[Name, int] = {}

    def u16(self, v): self.buf += _U16.pack(v)
    def u32(self, v): self.buf += _U32.pack(v)

    def name(self, name: Name, compress: bool = True):
        if sum(map(len, name)) + len(name) >= MAX_NAME_WIRE:  # a length byte per label, then 0
            raise WireError(f"name {'.'.join(name)} exceeds 255 wire bytes")
        buf, offsets = self.buf, self.offsets
        for i in range(len(name)):
            suffix = name[i:]
            if compress:
                known = offsets.get(suffix)
                if known is not None:
                    buf += _U16.pack(0xC000 | known)
                    return
            if len(buf) < 0x3FFF:
                offsets[suffix] = len(buf)
            try:
                label = name[i].encode("ascii")
            except UnicodeEncodeError:
                raise WireError(f"non-ASCII label {name[i]!r}") from None
            if not 0 < len(label) <= 63:
                raise WireError(f"label {name[i]!r} is not 1..63 bytes")
            buf.append(len(label))
            buf += label
        buf.append(0)


def encode(msg: Message) -> bytes:
    counts = (len(msg.questions), len(msg.answers), len(msg.authority), len(msg.additional))
    if max(counts) > MAX_SECTION:
        raise WireError(f"a section of {max(counts)} entries exceeds {MAX_SECTION}")
    flags = (
        (msg.qr << 15) | (msg.opcode << 11) | (msg.aa << 10) | (msg.tc << 9)
        | (msg.rd << 8) | (msg.ra << 7) | msg.rcode
    )
    w = _Writer(_HEADER.pack(msg.id, flags, *counts))
    buf, name = w.buf, w.name
    for q in msg.questions:
        name(q.qname)
        buf += _QUESTION.pack(q.qtype, q.qclass)
    for section in (msg.answers, msg.authority, msg.additional):
        for rr in section:
            name(rr.owner)
            rdata = rr.rdata
            at = len(buf) + 8  # where RDLENGTH goes once the rdata is written
            buf += _RECORD.pack(rdata.rtype, rr.rclass, rr.ttl, 0)
            rdata.to_wire(w)
            _U16.pack_into(buf, at, len(buf) - at - 2)
    return bytes(buf)


def question_end(data: bytes) -> int | None:
    """The offset just past the question section of ``data`` if that is one
    question, named in plain labels that end inside it, else None.  Safe on
    untrusted bytes: it follows no pointer and reads nothing past the end."""
    if data[4:6] != b"\0\1":
        return None
    end, size = _HEADER.size, len(data)
    while end < size and 0 < data[end] < 0x40:  # a label
        end += 1 + data[end]
    # then the root label, QTYPE and QCLASS
    return end + 5 if end + 5 <= size and not data[end] else None


# ---------------------------------------------------------------------------
# Decoding


class _Reader:
    __slots__ = ("data", "pos", "names")

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos
        #: every name decoded so far, by the offset of each of its labels
        self.names: dict[int, Name] = {}

    def need(self, n):
        if self.pos + n > len(self.data):
            raise WireError("truncated message")

    def u8(self):
        self.need(1)
        self.pos += 1
        return self.data[self.pos - 1]

    def u16(self):
        self.need(2)
        self.pos += 2
        return _U16.unpack_from(self.data, self.pos - 2)[0]

    def u32(self):
        self.need(4)
        self.pos += 4
        return _U32.unpack_from(self.data, self.pos - 4)[0]

    def take(self, n):
        self.need(n)
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def name(self) -> Name:
        """The name at ``pos``, moving past it.  A compression pointer
        must point before the run of labels it ends, so each jump goes
        back and a loop cannot form; a jump to a name already decoded
        ends in one memo lookup."""
        data, names = self.data, self.names
        size = len(data)
        pos = run = self.pos
        after = None  # where the reader goes on: past the first pointer or the root
        labels: list[str] = []
        starts: list[int] = []
        tail: Name = ()
        while True:
            if pos >= size:
                raise WireError("truncated name")
            length = data[pos]
            if length == 0:
                if after is None:
                    after = pos + 1
                break
            if length < 0x40:
                stop = pos + 1 + length
                if stop > size:
                    raise WireError("truncated label")
                try:
                    labels.append(data[pos + 1 : stop].decode("ascii").lower())
                except UnicodeDecodeError:
                    raise WireError("non-ASCII byte in label") from None
                starts.append(pos)
                pos = stop
            elif length >= 0xC0:
                if pos + 1 >= size:
                    raise WireError("truncated compression pointer")
                if after is None:
                    after = pos + 2
                target = (length & 0x3F) << 8 | data[pos + 1]
                if target >= run:
                    raise WireError(
                        f"compression pointer at {pos} to {target} does not point back")
                known = names.get(target)
                if known is not None:
                    tail = known
                    break
                pos = run = target
            else:
                raise WireError(f"bad label length byte {length:#x}")
        self.pos = after
        name = tuple(labels) + tail
        if sum(map(len, name)) + len(name) >= MAX_NAME_WIRE:
            raise WireError("name exceeds 255 wire bytes")
        for i, at in enumerate(starts):
            names[at] = name[i:]
        return name


def decode(data: bytes) -> Message:
    size = len(data)
    if size < _HEADER.size:
        raise WireError("truncated message")
    msg_id, flags, qd, an, ns, ar = _HEADER.unpack_from(data)
    r = _Reader(data, _HEADER.size)
    name = r.name
    questions = []
    for _ in range(qd):
        qname = name()
        pos = r.pos
        if pos + 4 > size:
            raise WireError("truncated message")
        r.pos = pos + 4
        questions.append(Question(qname, *_QUESTION.unpack_from(data, pos)))
    records = []
    for _ in range(an + ns + ar):
        owner = name()
        pos = r.pos + 10
        if pos > size:
            raise WireError("truncated message")
        rtype, rclass, ttl, rdlength = _RECORD.unpack_from(data, pos - 10)
        end = pos + rdlength
        if end > size:
            raise WireError("truncated message")
        cls = RDATA_CLASSES.get(rtype)
        if cls is None:
            raise WireError(f"unsupported rdata type {rtype}")
        r.pos = pos
        rdata = cls.from_wire(r, end)
        if r.pos != end:
            raise WireError(f"rdata length mismatch for type {rtype}")
        records.append(ResourceRecord(owner, ttl if ttl <= MAX_TTL else 0, rdata, rclass))
    return Message(
        msg_id, bool(flags & 0x8000), (flags >> 11) & 0xF, bool(flags & 0x0400),
        bool(flags & 0x0200), bool(flags & 0x0100), bool(flags & 0x0080), flags & 0xF,
        tuple(questions), tuple(records[:an]), tuple(records[an : an + ns]),
        tuple(records[an + ns :]),
    )
