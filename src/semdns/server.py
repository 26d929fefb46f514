"""Authoritative DNS service over datagram and stream transports.

Query handling is pure (message in, message out) so it can be tested
without sockets; the transport layer adds the datagram byte cap with TC
fallback, stream framing for zone transfers, and the UPDATE access
policy (source allow-list plus an optional shared-secret token carried
as a ``token=...`` TXT record in the additional section).
"""

from __future__ import annotations

import functools
import logging
import selectors
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Optional

from . import wire
from .records import (
    CLASS_IN, CLASS_NONE, CLASS_ANY, Name, PTR, RecordError, ResourceRecord,
    TYPE_ANY, TYPE_AXFR, TYPE_CNAME, TYPE_IXFR, TYPE_PTR, TYPE_SOA, TYPE_TXT,
    is_subdomain, name_text, parse_name,
)
from .wire import (
    Message, OPCODE_QUERY, OPCODE_UPDATE, Question,
    RCODE_FORMERR, RCODE_NOERROR, RCODE_NOTAUTH, RCODE_NOTIMP, RCODE_NOTZONE,
    RCODE_NXDOMAIN, RCODE_REFUSED, RCODE_SERVFAIL,
)
from .zone import (
    DeviceRegistration, JournalFile, SizeGuardError, Zone, ZoneError,
    txt_key, txt_pair, txt_value,
)

log = logging.getLogger("semdns.server")

UPDATE_TOKEN_KEY = "token"
#: UPDATE-borne registrations are TXT records at this owner label under
#: the service name; the value packs the DeviceRegistration fields.
REGISTER_LABEL = "_register"
#: a TCP message carries a 2-byte length prefix (RFC 1035 §4.2.2)
MAX_STREAM_MESSAGE = 0xFFFF
#: datagram replies a DnsServer keeps for repeated queries; the oldest go first
REPLY_CACHE_SIZE = 4096
#: query types whose answer reads more than the records at the query name
_UNCACHED_QTYPES = frozenset({TYPE_ANY, TYPE_PTR, TYPE_SOA})


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 5300
    journal_file: Optional[str] = None
    update_secret: Optional[str] = None
    allowed_sources: Optional[tuple[str, ...]] = None  # None: any source

    def __post_init__(self):
        if not 0 <= self.port < 65536:
            raise ValueError(f"invalid port {self.port}")


# ---------------------------------------------------------------------------
# Pure query handling


def answer_query(msg: Message, zone: Zone) -> Message:
    """Authoritative answer for a standard QUERY message that ``dispatch``
    has admitted: one question, at or below the origin."""
    q = msg.questions[0]
    answers: list[ResourceRecord] = []
    target = q.qname
    # one zone read per name: chase CNAMEs inside the zone, exposing the
    # chain in the answer, and answer from the records at the last name
    here = zone.records_at(target)
    alias = next((r for r in here if r.rtype == TYPE_CNAME), None)
    for _ in range(8):
        if alias is None:
            break
        answers.append(alias)
        target = alias.rdata.target
        here = zone.records_at(target)
        alias = next((r for r in here if r.rtype == TYPE_CNAME), None)

    if q.qtype == TYPE_ANY:
        answers += here
        if target == zone.origin:
            answers.append(zone.soa_record())
    elif q.qtype == TYPE_PTR:
        # a chain that did not end (a loop) is answered as for any type
        discovered = sorted(zone.ptr_discover(target)) if alias is None else ()
        if discovered:
            answers += [
                ResourceRecord(q.qname, zone.default_ttl, PTR(instance))
                for instance in discovered
            ]
        else:
            answers += [r for r in here if r.rtype == TYPE_PTR]
    elif q.qtype == TYPE_SOA:
        if target == zone.origin:
            answers.append(zone.soa_record())
    else:
        answers += [r for r in here if r.rtype == q.qtype]

    if not answers and not here and not zone.has_owner(target):
        return msg.reply(rcode=RCODE_NXDOMAIN)
    return msg.reply(answers=tuple(answers))


def serve_axfr(msg: Message, zone: Zone, stream: bool) -> Message:
    """Full transfer: whole zone at the apex, the subtree elsewhere."""
    if not stream:
        return msg.reply(rcode=RCODE_REFUSED)
    q = msg.questions[0]
    if q.qname == zone.origin:
        records = zone.axfr_snapshot()
    else:
        subtree = zone.subtree(q.qname)
        if not subtree:
            return msg.reply(rcode=RCODE_NXDOMAIN)
        soa = zone.soa_record()
        records = [soa, *subtree, soa]
    return msg.reply(answers=tuple(records))


def serve_ixfr(msg: Message, zone: Zone, stream: bool) -> Message:
    """Incremental transfer from the serial in the query's authority SOA."""
    client_soas = [r for r in msg.authority if r.rtype == TYPE_SOA]
    if not client_soas:
        return msg.reply(rcode=RCODE_FORMERR)
    from_serial = client_soas[0].rdata.serial
    diff = zone.ixfr_diff(from_serial)
    current = zone.soa_record(diff.to_serial)
    if diff.fallback:
        return serve_axfr(msg, zone, stream=True) if stream else msg.reply(tc=True)
    if not diff.steps:
        return msg.reply(answers=(current,))
    records: list[ResourceRecord] = [current]
    prev = from_serial
    for step in diff.steps:
        records.append(zone.soa_record(prev))
        records.extend(step.deletions)
        records.append(zone.soa_record(step.serial))
        records.extend(step.additions)
        prev = step.serial
    records.append(current)
    reply = msg.reply(answers=tuple(records))
    if not stream and len(wire.encode(reply)) > wire.MAX_UDP_PAYLOAD:
        # datagram IXFR degrades to a single SOA telling the client to retry
        return msg.reply(answers=(current,))
    return reply


# ---------------------------------------------------------------------------
# Dynamic update


def handle_update(
    msg: Message,
    zone: Zone,
    config: ServerConfig,
    source: Optional[str] = None,
) -> Message:
    """Apply a dynamic UPDATE, admitted by ``dispatch``, restricted to
    TXT data records.

    Authorization: the source address must be on the allow-list (when one
    is configured) and, when a shared secret is configured, the additional
    section must carry a TXT record ``token=<secret>``.  The zone section
    names the zone's SOA (RFC 2136 §3.1.1): another type is FORMERR,
    another name NOTAUTH.  Prerequisites (RFC 2136 §2.4) are not
    supported: an UPDATE that carries any is NOTIMP.  A prescan (§3.4.1)
    then checks each update record's zone, class, type and TXT key and
    parses each registration; the records are then applied in order in
    one ``Zone.batch()`` (§3.4.2), which a failure undoes whole.
    """
    if not _authorized(msg, config, source):
        log.warning("refused UPDATE from %s: not authorized", source)
        return msg.reply(rcode=RCODE_REFUSED)
    zone_entry = msg.questions[0]
    if zone_entry.qtype != TYPE_SOA:
        log.warning("malformed UPDATE: zone section type %d is not SOA", zone_entry.qtype)
        return msg.reply(rcode=RCODE_FORMERR)
    if zone_entry.qname != zone.origin:
        log.warning("refused UPDATE: not authoritative for %s", name_text(zone_entry.qname))
        return msg.reply(rcode=RCODE_NOTAUTH)
    if msg.answers:
        log.warning("refused UPDATE: prerequisites are not supported")
        return msg.reply(rcode=RCODE_NOTIMP)

    register_owner = (REGISTER_LABEL,) + zone.service + zone.origin
    registrations: list[DeviceRegistration] = []
    for rr in msg.authority:
        if not is_subdomain(rr.owner, zone.origin):
            log.warning("refused UPDATE: %s is outside the zone", name_text(rr.owner))
            return msg.reply(rcode=RCODE_NOTZONE)
        if rr.rclass not in (CLASS_IN, CLASS_NONE, CLASS_ANY):
            log.warning("malformed UPDATE: record class %d", rr.rclass)
            return msg.reply(rcode=RCODE_FORMERR)
        if rr.rtype != TYPE_TXT:
            log.warning("refused UPDATE: record type %s not updatable", rr.type_name)
            return msg.reply(rcode=RCODE_REFUSED)
        if not txt_key(rr.rdata):  # no key=value form, or an empty key
            return msg.reply(rcode=RCODE_REFUSED)
        if rr.owner == register_owner:
            try:
                registrations.append(_parse_registration(txt_value(rr.rdata)))
            except ZoneError as exc:
                log.warning("malformed UPDATE: %s", exc)
                return msg.reply(rcode=RCODE_FORMERR)

    parsed = iter(registrations)
    status: list[ResourceRecord] = []
    try:
        with zone.batch():
            for rr in msg.authority:
                key = txt_key(rr.rdata)
                if rr.owner == register_owner:
                    changed, owner = zone.register_device(next(parsed))
                    status.append(ResourceRecord(
                        owner, 0,
                        txt_pair("status", "registered" if changed else "unchanged"),
                    ))
                elif rr.rclass == CLASS_IN:
                    zone.update_txt(rr.owner, key, txt_value(rr.rdata), ttl=rr.ttl)
                else:
                    # class NONE deletes only the records holding its data (RFC 2136
                    # §2.5.4); deleting data that is not there is a no-op (§3.4.2.3)
                    value = txt_value(rr.rdata) if rr.rclass == CLASS_NONE else None
                    if zone.txt_records(rr.owner, key, value):
                        zone.delete_txt(rr.owner, key, value)
    except (SizeGuardError, RecordError) as exc:
        # a record the wire cannot carry, or one too big for a datagram
        log.warning("refused UPDATE: %s", exc)
        return msg.reply(rcode=RCODE_REFUSED)
    except ZoneError as exc:
        log.warning("failed UPDATE: %s", exc)
        return msg.reply(rcode=RCODE_SERVFAIL)
    return msg.reply(additional=tuple(status))


def pack_registration(reg: DeviceRegistration) -> str:
    """Registration fields packed into one TXT value for the UPDATE wire.
    ValueError if a field holds the ';' that separates them, or a TXT key
    is one ``txt_pair`` refuses: empty, or holding the '=' that ends it."""
    parts = [
        f"instance={reg.instance}",
        f"id={reg.identifier}",
        f"port={reg.port}",
        f"target={name_text(reg.target)}",
        f"priority={reg.priority}",
        f"weight={reg.weight}",
    ]
    if reg.ttl is not None:
        parts.append(f"ttl={reg.ttl}")
    for k, v in reg.txt:
        txt_pair(k, v)
        parts.append(f"txt.{k}={v}")
    for part in parts:
        if ";" in part:
            raise ValueError(f"registration field {part!r} contains ';'")
    return ";".join(parts)


def _parse_registration(value: str) -> DeviceRegistration:
    """The registration packed in one TXT value; ZoneError if malformed,
    which includes a field other than ``txt.*`` given twice."""
    fields: dict[str, str] = {}
    txt: list[tuple[str, str]] = []
    for part in value.split(";"):
        if "=" not in part:
            raise ZoneError(f"malformed registration field {part!r}")
        k, v = part.split("=", 1)
        if k.startswith("txt."):
            txt.append((k[4:], v))
        elif k in fields:
            raise ZoneError(f"repeated registration field {k!r}")
        else:
            fields[k] = v
    try:
        reg = DeviceRegistration(
            instance=fields["instance"],
            identifier=fields["id"],
            port=int(fields["port"]),
            target=parse_name(fields["target"]),
            priority=int(fields.get("priority", 10)),
            weight=int(fields.get("weight", 20)),
            txt=tuple(txt),
            ttl=int(fields["ttl"]) if "ttl" in fields else None,
        )
    except (KeyError, ValueError) as exc:
        raise ZoneError(f"malformed registration {value!r}: {exc!r}") from exc
    if not (reg.instance and reg.identifier and reg.target):
        raise ZoneError(f"malformed registration {value!r}: empty instance, id or target")
    return reg


def _authorized(msg: Message, config: ServerConfig, source: Optional[str]) -> bool:
    if config.allowed_sources is not None and source not in config.allowed_sources:
        return False
    if config.update_secret is not None:
        for rr in msg.additional:
            if rr.rtype == TYPE_TXT and txt_key(rr.rdata) == UPDATE_TOKEN_KEY:
                if txt_value(rr.rdata) == config.update_secret:
                    return True
        return False
    return True


def update_token_record(secret: str, owner: Name = ()) -> ResourceRecord:
    """The additional-section record clients attach to authenticate."""
    return ResourceRecord(owner, 0, txt_pair(UPDATE_TOKEN_KEY, secret))


# ---------------------------------------------------------------------------
# Transport


def dispatch(data: bytes, zone: Zone, config: ServerConfig,
             stream: bool, source: Optional[str],
             cache: Optional[dict] = None) -> bytes:
    """Decode, admit, route, answer, encode; applies the datagram cap
    with TC and the stream-message cap with SERVFAIL.  A failure to
    answer or to encode the answer is a SERVFAIL carrying the query's
    id.  The reply echoes the question in the query's own letter case.
    A response (QR set) is dropped on purpose, unread: the result is
    empty and the transport sends nothing, so two servers never answer
    each other's replies.

    ``cache``, for datagrams only, maps a query's bytes after its id,
    question name lower-cased, to the records at the query name it was
    answered from and the reply after its id, question lower-cased.  A
    query found there is answered from it, with no decode, answer or
    encode, while the zone still holds that very tuple of records at the
    name (``records_at``)."""
    if len(data) > 2 and data[2] & 0x80:  # QR set: a response
        return b""
    end = key = None
    if cache is not None:
        key = data[2:]
        if not key.islower():  # a byte reads as a capital: fold the name's alone
            end = wire.question_end(data)
            key = None if end is None else data[2:12] + data[12:end - 4].lower() + data[end - 4:]
        hit = cache.get(key)
        if hit is not None and zone.records_at(hit[0][0].owner) is hit[0]:
            return _echo_question(data, end, data[:2] + hit[1])
    try:
        msg = wire.decode(data)
    except wire.WireError:
        msg_id = struct.unpack("!H", data[:2])[0] if len(data) >= 2 else 0
        return wire.encode(Message(id=msg_id, qr=True, rcode=RCODE_FORMERR))
    here = None  # the records a cacheable reply is built from
    try:
        # admission, here alone: NOTIMP, then FORMERR (RFC 2136 §3.1.1), then REFUSED
        if msg.opcode not in (OPCODE_QUERY, OPCODE_UPDATE):
            reply = msg.reply(rcode=RCODE_NOTIMP)
        elif len(msg.questions) != 1:
            reply = msg.reply(rcode=RCODE_FORMERR)
        elif not is_subdomain(msg.questions[0].qname, zone.origin):
            reply = msg.reply(rcode=RCODE_REFUSED)
        elif msg.opcode == OPCODE_UPDATE:
            reply = handle_update(msg, zone, config, source)
        elif msg.questions[0].qtype == TYPE_AXFR:
            reply = serve_axfr(msg, zone, stream)
        elif msg.questions[0].qtype == TYPE_IXFR:
            reply = serve_ixfr(msg, zone, stream)
        else:
            if cache is not None:
                # read before answering: a write in between only costs a miss
                here = _cache_version(msg.questions[0], zone)
            reply = answer_query(msg, zone)
        payload = wire.encode(reply)
    except Exception:
        log.exception("query handling failed")
        reply = msg.reply(rcode=RCODE_SERVFAIL)
        payload = wire.encode(reply)
    if not stream and len(payload) > wire.MAX_UDP_PAYLOAD:
        # too big for a datagram: empty truncated reply, client retries on stream
        payload = wire.encode(reply.reply(tc=True))
        here = None
    elif stream and len(payload) > MAX_STREAM_MESSAGE:
        # past the 2-byte length prefix; multi-message transfers are not served
        log.warning("answer of %d bytes exceeds one stream message: SERVFAIL", len(payload))
        payload = wire.encode(reply.reply(rcode=RCODE_SERVFAIL))
    end = end or wire.question_end(data)
    if here and end and reply.rcode == RCODE_NOERROR:
        cache[key] = (here, payload[2:])
        if len(cache) > REPLY_CACHE_SIZE:
            del cache[next(iter(cache))]
    return _echo_question(data, end, payload)


def _echo_question(query: bytes, end: Optional[int], payload: bytes) -> bytes:
    """``payload`` with the query's question bytes, which end at ``end``,
    in the letter case the query spelled them (DNS 0x20): the decoder
    lower-cases names.  Only a reply whose question equals the query's
    but for case is changed; a query with no ``end`` is left alone."""
    if end is None:
        return payload
    asked = query[12:end]
    if asked == payload[12:end] or asked.lower() != payload[12:end].lower():
        return payload
    return payload[:12] + asked + payload[end:]


def _cache_version(q: Question, zone: Zone):
    """The records at the query name, if the reply to ``q`` depends on
    nothing else (no CNAME, no zone-wide read), else None."""
    if q.qtype in _UNCACHED_QTYPES:
        return None
    here = zone.records_at(q.qname)
    if not here or any(r.rtype == TYPE_CNAME for r in here):
        return None
    return here


class _Conn:
    """One TCP peer: bytes read but not yet answered, replies not yet sent."""

    __slots__ = ("sock", "peer", "inbuf", "outbuf", "last_active", "eof", "events", "handler")

    def __init__(self, sock: socket.socket, peer: str, now: float):
        self.sock = sock
        self.peer = peer
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.last_active = now
        self.eof = False  # the peer has shut down its sending side
        self.events = selectors.EVENT_READ
        self.handler = None


class DnsServer:
    """UDP + TCP service around one zone, run by one selector thread.

    The thread answers every queued datagram inline.  Each TCP
    connection is non-blocking with an input and an output buffer:
    length-prefixed queries are answered in order as they arrive
    (RFC 7766 pipelining), and replies the peer has not yet read wait
    in the output buffer.  Connections idle for IDLE_TIMEOUT seconds
    are closed; at MAX_CONNECTIONS the longest-idle one makes room for
    a new peer.  Repeated datagram queries are answered from a reply
    cache of at most REPLY_CACHE_SIZE entries (see ``dispatch``).

    With a journal file, the zone adopts the file's history and then
    replays the entries after its serial; a gap or a deletion of a
    missing record raises ZoneError and no server is made.
    """

    IDLE_TIMEOUT = 10.0
    MAX_CONNECTIONS = 128

    def __init__(self, zone: Zone, config: ServerConfig):
        self.zone = zone
        self.config = config
        self._journal_file = None
        if config.journal_file:
            self._journal_file = JournalFile(config.journal_file)
            replayed = self._journal_file.attach(zone)
            if replayed:
                log.info("replayed %d journal entries, now at serial %d", replayed, zone.serial)
        #: datagram reply cache, see dispatch; the selector thread alone uses it
        self._replies: dict[bytes, tuple] = {}
        self._udp, self._tcp = _bind_pair(config.host, config.port)
        self.port: int = self._udp.getsockname()[1]
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        for sock, handler in ((self._udp, self._read_udp), (self._tcp, self._accept),
                              (self._wake_r, self._read_wake)):
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ, handler)
        self._conns: dict[socket.socket, _Conn] = {}
        self._next_reap: Optional[float] = None  # no connection can be idle before this
        self._stopping = False
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self._serve, name="semdns-server", daemon=True)
        self._thread.start()
        log.info("listening on %s:%d (udp+tcp)", self.config.host, self.port)

    def shutdown(self) -> None:
        """Stop the loop and close every socket; safe before start() and twice."""
        self._stopping = True
        if self._thread is None:
            self._close_all()
        else:
            try:
                self._wake_w.send(b"\0")
            except OSError:
                pass  # closed by an earlier shutdown()
            self._thread.join(timeout=5)
        self._wake_w.close()
        if self._journal_file is not None:
            self._journal_file.close()

    def serve_forever(self) -> None:
        self.start()
        try:
            self._thread.join()
        except KeyboardInterrupt:
            self.shutdown()

    # -- the loop ------------------------------------------------------------

    def _serve(self) -> None:
        try:
            while not self._stopping:
                timeout = None
                if self._next_reap is not None:
                    timeout = max(0.0, self._next_reap - time.monotonic())
                for key, mask in self._selector.select(timeout):
                    try:
                        key.data(mask)
                    except Exception:
                        log.exception("transport callback failed")
                        conn = self._conns.get(key.fileobj)
                        if conn is not None:
                            self._close(conn)
                if self._next_reap is not None and time.monotonic() >= self._next_reap:
                    self._reap_idle()
        finally:
            self._close_all()

    def _read_wake(self, mask: int) -> None:
        self._wake_r.recv(64)

    def _read_udp(self, mask: int) -> None:
        for _ in range(_BATCH):
            try:
                data, addr = self._udp.recvfrom(_MAX_DATAGRAM)
            except BlockingIOError:
                return
            payload = dispatch(data, self.zone, self.config, stream=False, source=addr[0],
                               cache=self._replies)
            if not payload:
                continue
            try:
                self._udp.sendto(payload, addr)
            except OSError as exc:
                log.warning("dropped reply to %s:%d: %s", addr[0], addr[1], exc)

    def _accept(self, mask: int) -> None:
        for _ in range(_BATCH):
            try:
                sock, addr = self._tcp.accept()
            except BlockingIOError:
                return
            if len(self._conns) >= self.MAX_CONNECTIONS:
                self._close(min(self._conns.values(), key=lambda c: c.last_active))
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            now = time.monotonic()
            conn = _Conn(sock, addr[0], now)
            conn.handler = functools.partial(self._on_conn, conn)
            self._selector.register(sock, conn.events, conn.handler)
            self._conns[sock] = conn
            if self._next_reap is None:
                self._next_reap = now + self.IDLE_TIMEOUT

    def _on_conn(self, conn: _Conn, mask: int) -> None:
        conn.last_active = time.monotonic()
        try:
            if mask & selectors.EVENT_READ:
                data = conn.sock.recv(_RECV_SIZE)
                if data:
                    conn.inbuf += data
                else:
                    conn.eof = True
            self._pump(conn)
        except BlockingIOError:
            return
        except OSError:  # reset by the peer
            self._close(conn)

    def _pump(self, conn: _Conn) -> None:
        """Answer whole queries in order and send, holding back while
        more than _HIGH_WATER reply bytes wait for the peer to read."""
        inbuf, outbuf = conn.inbuf, conn.outbuf
        while True:
            while len(outbuf) < _HIGH_WATER and len(inbuf) >= 2:
                end = 2 + int.from_bytes(inbuf[:2], "big")
                if len(inbuf) < end:
                    break
                query = bytes(inbuf[2:end])
                del inbuf[:end]
                payload = dispatch(query, self.zone, self.config, stream=True, source=conn.peer)
                if payload:
                    outbuf += struct.pack("!H", len(payload))
                    outbuf += payload
            if not outbuf:
                break
            try:
                sent = conn.sock.send(outbuf)
            except BlockingIOError:
                break
            del outbuf[:sent]
            if outbuf:
                break
        if conn.eof and not outbuf:
            self._close(conn)
            return
        events = selectors.EVENT_WRITE if outbuf else 0
        if not conn.eof and len(outbuf) < _HIGH_WATER:
            events |= selectors.EVENT_READ
        if events != conn.events:
            self._selector.modify(conn.sock, events, conn.handler)
            conn.events = events

    def _reap_idle(self) -> None:
        cutoff = time.monotonic() - self.IDLE_TIMEOUT
        for conn in [c for c in self._conns.values() if c.last_active <= cutoff]:
            self._close(conn)
        self._next_reap = (min(c.last_active for c in self._conns.values()) + self.IDLE_TIMEOUT
                           if self._conns else None)

    def _close(self, conn: _Conn) -> None:
        # a connection closed earlier in a batch may still have an event in it
        if self._conns.pop(conn.sock, None) is None:
            return
        self._selector.unregister(conn.sock)
        conn.sock.close()

    def _close_all(self) -> None:
        for conn in list(self._conns.values()):
            self._close(conn)
        for sock in (self._udp, self._tcp, self._wake_r):
            sock.close()
        self._selector.close()


#: datagrams or accepts handled per readiness event before other sockets get a turn
_BATCH = 64
_MAX_DATAGRAM = 65535
_RECV_SIZE = 16384
#: a connection is not read while this many reply bytes wait for its peer
_HIGH_WATER = 1 << 18
#: with port 0, ephemeral ports tried before giving up on a UDP+TCP pair
_BIND_ATTEMPTS = 8


def _bind_pair(host: str, port: int) -> tuple[socket.socket, socket.socket]:
    """A UDP socket and a listening TCP socket on one port.

    With port 0 the kernel picks the UDP port, which may be taken for
    TCP; each retry starts over on a fresh ephemeral port.
    """
    attempts_left = _BIND_ATTEMPTS if port == 0 else 1
    while True:
        attempts_left -= 1
        udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            udp.bind((host, port))
            tcp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            tcp.bind((host, udp.getsockname()[1]))
            tcp.listen()
            return udp, tcp
        except OSError:
            udp.close()
            tcp.close()
            if not attempts_left:
                raise

