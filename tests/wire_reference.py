"""The wire codec as it was before the struct-per-record rewrite, kept as
the oracle that ``test_wire.py`` compares ``semdns.wire`` against.

It packs every field with its own call and decodes every name label by
label, following pointers with a per-name set of visited offsets, so it
accepts forward pointers that do not loop.  It builds the same
``Message`` and raises the same ``WireError`` as the package.
"""

import struct

from semdns.records import MAX_TTL, RDATA_CLASSES, ResourceRecord
from semdns.wire import MAX_NAME_WIRE, Message, Question, WireError


class Writer:
    def __init__(self):
        self.buf = bytearray()
        self.offsets = {}

    def u8(self, v): self.buf.append(v)
    def u16(self, v): self.buf += struct.pack("!H", v)
    def u32(self, v): self.buf += struct.pack("!I", v)

    def name(self, name, compress=True):
        wire_len = sum(len(l) + 1 for l in name) + 1
        if wire_len > MAX_NAME_WIRE:
            raise WireError(f"name {'.'.join(name)} exceeds 255 wire bytes")
        for i in range(len(name)):
            suffix = name[i:]
            known = self.offsets.get(suffix) if compress else None
            if known is not None:
                self.u16(0xC000 | known)
                return
            if len(self.buf) < 0x3FFF:
                self.offsets[suffix] = len(self.buf)
            try:
                label = name[i].encode("ascii")
            except UnicodeEncodeError:
                raise WireError(f"non-ASCII label {name[i]!r}") from None
            if not 0 < len(label) <= 63:
                raise WireError(f"label {name[i]!r} is not 1..63 bytes")
            self.u8(len(label))
            self.buf += label
        self.u8(0)

    def rdata(self, rdata):
        start_pos = len(self.buf)
        self.u16(0)  # rdlength placeholder
        rdata.to_wire(self)
        struct.pack_into("!H", self.buf, start_pos, len(self.buf) - start_pos - 2)


def encode(msg):
    w = Writer()
    flags = (
        (int(msg.qr) << 15) | (msg.opcode << 11) | (int(msg.aa) << 10)
        | (int(msg.tc) << 9) | (int(msg.rd) << 8) | (int(msg.ra) << 7)
        | msg.rcode
    )
    w.u16(msg.id)
    w.u16(flags)
    for count in (len(msg.questions), len(msg.answers), len(msg.authority), len(msg.additional)):
        w.u16(count)
    for q in msg.questions:
        w.name(q.qname)
        w.u16(q.qtype)
        w.u16(q.qclass)
    for rr in msg.answers + msg.authority + msg.additional:
        w.name(rr.owner)
        w.u16(rr.rtype)
        w.u16(rr.rclass)
        w.u32(rr.ttl)
        w.rdata(rr.rdata)
    return bytes(w.buf)


class Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def need(self, n):
        if self.pos + n > len(self.data):
            raise WireError("truncated message")

    def u8(self):
        self.need(1)
        v = self.data[self.pos]
        self.pos += 1
        return v

    def u16(self):
        self.need(2)
        v = struct.unpack_from("!H", self.data, self.pos)[0]
        self.pos += 2
        return v

    def u32(self):
        self.need(4)
        v = struct.unpack_from("!I", self.data, self.pos)[0]
        self.pos += 4
        return v

    def take(self, n):
        self.need(n)
        v = self.data[self.pos : self.pos + n]
        self.pos += n
        return v

    def name(self):
        labels = []
        pos = self.pos
        jumped = False
        seen = set()
        while True:
            if pos in seen:
                raise WireError("compression pointer loop")
            seen.add(pos)
            if pos >= len(self.data):
                raise WireError("truncated name")
            length = self.data[pos]
            if length & 0xC0 == 0xC0:
                if pos + 1 >= len(self.data):
                    raise WireError("truncated compression pointer")
                target = struct.unpack_from("!H", self.data, pos)[0] & 0x3FFF
                if not jumped:
                    self.pos = pos + 2
                jumped = True
                pos = target
            elif length == 0:
                if not jumped:
                    self.pos = pos + 1
                break
            elif length & 0xC0:
                raise WireError(f"bad label length byte {length:#x}")
            else:
                if pos + 1 + length > len(self.data):
                    raise WireError("truncated label")
                try:
                    label = self.data[pos + 1 : pos + 1 + length].decode("ascii")
                except UnicodeDecodeError:
                    raise WireError("non-ASCII byte in label") from None
                labels.append(label.lower())
                pos += 1 + length
        name = tuple(labels)
        if sum(len(l) + 1 for l in name) + 1 > MAX_NAME_WIRE:
            raise WireError("name exceeds 255 wire bytes")
        return name

    def rdata(self, rtype):
        rdlength = self.u16()
        end = self.pos + rdlength
        self.need(rdlength)
        cls = RDATA_CLASSES.get(rtype)
        if cls is None:
            raise WireError(f"unsupported rdata type {rtype}")
        rdata = cls.from_wire(self, end)
        if self.pos != end:
            raise WireError(f"rdata length mismatch for type {rtype}")
        return rdata


def decode(data):
    r = Reader(data)
    msg_id = r.u16()
    flags = r.u16()
    qd, an, ns, ar = r.u16(), r.u16(), r.u16(), r.u16()
    questions = tuple(
        Question(r.name(), r.u16(), r.u16()) for _ in range(qd)
    )

    def section(count):
        out = []
        for _ in range(count):
            owner = r.name()
            rtype = r.u16()
            rclass = r.u16()
            ttl = r.u32()
            if ttl > MAX_TTL:
                ttl = 0
            out.append(ResourceRecord(owner, ttl, r.rdata(rtype), rclass=rclass))
        return tuple(out)

    answers = section(an)
    authority = section(ns)
    additional = section(ar)
    return Message(
        id=msg_id,
        qr=bool(flags & 0x8000),
        opcode=(flags >> 11) & 0xF,
        aa=bool(flags & 0x0400),
        tc=bool(flags & 0x0200),
        rd=bool(flags & 0x0100),
        ra=bool(flags & 0x0080),
        rcode=flags & 0xF,
        questions=questions,
        answers=answers,
        authority=authority,
        additional=additional,
    )
