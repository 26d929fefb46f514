"""Minimal DNS client for the CLI and integration tests.

Speaks to any server over UDP (with automatic TCP retry on truncation)
and over TCP for zone transfers and updates.

Each UDP query goes out from a fresh socket, so each gets a random
source port (RFC 5452).  TCP connections are reused (RFC 7766 §6.2.1):
the process keeps at most one idle connection, to the server it spoke
to last, and takes it for the next exchange with that server if a
non-blocking peek shows the server has not closed it.  A connection is
kept only after a whole reply that matches its query.
"""

from __future__ import annotations

import atexit
import os
import random
import socket
import struct
import threading
import time
from typing import Optional, Sequence

from . import wire
from .records import CLASS_ANY, Name, ResourceRecord, SOA, TYPE_AXFR, TYPE_IXFR, TYPE_SOA
from .server import REGISTER_LABEL, pack_registration, update_token_record
from .wire import Message, OPCODE_UPDATE, Question
from .zone import txt_pair

DEFAULT_TIMEOUT = 5.0
_U16 = struct.Struct("!H")


class ClientError(OSError):
    pass


def _udp_exchange(host: str, port: int, query: Message, payload: bytes,
                  timeout: float) -> Message:
    """Send one datagram and wait for the reply carrying the query's id and
    question; any other datagram (a stray or forged reply, or one that
    does not decode) is dropped and the wait goes on until the timeout."""
    deadline = time.monotonic() + timeout
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.sendto(payload, (host, port))
        while (left := deadline - time.monotonic()) > 0:
            sock.settimeout(left)
            try:
                data, _ = sock.recvfrom(65535)
            except socket.timeout:
                break
            if data[:2] != payload[:2]:
                continue
            try:
                reply = wire.decode(data)
            except wire.WireError:
                continue
            if reply.questions == query.questions:
                return reply
    raise ClientError(f"timeout waiting for {host}:{port}")


def _tcp_exchange(host: str, port: int, payload: bytes, timeout: float) -> bytes:
    """Send one length-prefixed query and return its reply, over the idle
    connection to ``host:port`` when it is still open, else over a new one.

    A reused connection that fails before any byte of the reply arrives
    (EOF, reset or broken pipe) is retried once on a new connection: the
    server closed it as idle, after the liveness check, so it did not
    read the query.  Nothing else is retried.  The connection is kept
    for the next exchange only after a whole reply that carries the
    query's id and question; after any error it is closed.
    """
    addr = (host, port)
    sock = _take_idle(addr)
    reply = None
    try:
        if sock is not None:
            try:
                reply = _ask(sock, payload, timeout)
            except _Unanswered:
                sock.close()
        if reply is None:
            sock = socket.create_connection(addr, timeout=timeout)
            reply = _ask(sock, payload, timeout)
    except OSError as exc:
        raise ClientError(f"stream exchange with {host}:{port} failed: {exc}") from exc
    finally:
        if reply is None and sock is not None:
            sock.close()
    if not _answers(payload, reply):
        sock.close()
        raise ClientError(f"stream reply from {host}:{port} does not match the query")
    _set_idle((addr, sock))
    return reply


class _Unanswered(ConnectionError):
    """The server closed the connection before any byte of the reply."""


def _ask(sock: socket.socket, payload: bytes, timeout: float) -> bytes:
    sock.settimeout(timeout)
    try:
        sock.sendall(_U16.pack(len(payload)) + payload)
        head = sock.recv(2)
    except (BrokenPipeError, ConnectionResetError) as exc:
        raise _Unanswered(exc) from exc
    if not head:
        raise _Unanswered("server closed the connection")
    (length,) = _U16.unpack(head + _recv_exact(sock, 2 - len(head)))
    return _recv_exact(sock, length)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("server closed mid-message")
        buf += chunk
    return buf


def _answers(query: bytes, reply: bytes) -> bool:
    """Whether ``reply`` carries the id, QDCOUNT and, byte for byte, the
    question section of ``query`` (a message this client encoded)."""
    end = 12
    for _ in range(_U16.unpack_from(query, 4)[0]):
        while 0 < query[end] < 0xC0:  # a label
            end += 1 + query[end]
        end += (2 if query[end] else 1) + 4  # a pointer or the root, then type and class
    return (reply[:2] == query[:2] and reply[4:6] == query[4:6]
            and reply[12:end] == query[12:end])


# The idle connection: ((host, port), socket) or None, shared by every thread.
_idle: Optional[tuple[tuple[str, int], socket.socket]] = None
_idle_lock = threading.Lock()


def _take_idle(addr: tuple[str, int]) -> Optional[socket.socket]:
    """The idle connection to ``addr`` if the server has not closed it."""
    global _idle
    with _idle_lock:
        if _idle is None or _idle[0] != addr:
            return None
        sock = _idle[1]
        _idle = None
    sock.setblocking(False)
    try:
        # EOF, a reset or a stray byte all mean the connection is not usable
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return sock
    except OSError:
        pass
    sock.close()
    return None


def _set_idle(new: Optional[tuple[tuple[str, int], socket.socket]]) -> None:
    """Make ``new`` the idle connection, closing the one it replaces."""
    global _idle
    with _idle_lock:
        old, _idle = _idle, new
    if old is not None:
        old[1].close()


def _close_idle_in_child() -> None:
    """After fork: the child must not share the parent's connection, and
    another thread of the parent may have held the lock."""
    global _idle_lock
    _idle_lock = threading.Lock()
    _set_idle(None)


atexit.register(_set_idle, None)
os.register_at_fork(after_in_child=_close_idle_in_child)


def exchange(msg: Message, host: str, port: int,
             tcp: bool = False, timeout: float = DEFAULT_TIMEOUT) -> Message:
    payload = wire.encode(msg)
    if not tcp:
        reply = _udp_exchange(host, port, msg, payload, timeout)
        if not reply.tc:
            return reply
    return wire.decode(_tcp_exchange(host, port, payload, timeout))


def query(host: str, port: int, qname: Name, qtype: int,
          timeout: float = DEFAULT_TIMEOUT) -> Message:
    msg = Message(
        id=random.randrange(1 << 16),
        questions=(Question(qname, qtype),),
    )
    return exchange(msg, host, port, timeout=timeout)


def axfr(host: str, port: int, qname: Name,
         timeout: float = DEFAULT_TIMEOUT) -> Message:
    msg = Message(
        id=random.randrange(1 << 16),
        questions=(Question(qname, TYPE_AXFR),),
    )
    return exchange(msg, host, port, tcp=True, timeout=timeout)


def ixfr(host: str, port: int, qname: Name, client_serial: int,
         timeout: float = DEFAULT_TIMEOUT) -> Message:
    soa = ResourceRecord(qname, 0, SOA((), (), client_serial, 0, 0, 0, 0))
    msg = Message(
        id=random.randrange(1 << 16),
        questions=(Question(qname, TYPE_IXFR),),
        authority=(soa,),
    )
    return exchange(msg, host, port, tcp=True, timeout=timeout)


def send_update(
    host: str,
    port: int,
    zone_name: Name,
    updates: Sequence[ResourceRecord],
    secret: Optional[str] = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> Message:
    """Dynamic UPDATE: ``updates`` go in the update section; the shared
    secret, when given, rides along as a token TXT in additional."""
    additional = (update_token_record(secret, zone_name),) if secret else ()
    msg = Message(
        id=random.randrange(1 << 16),
        opcode=OPCODE_UPDATE,
        questions=(Question(zone_name, TYPE_SOA),),
        authority=tuple(updates),
        additional=additional,
    )
    return exchange(msg, host, port, tcp=True, timeout=timeout)


def register_device(
    host: str,
    port: int,
    zone_name: Name,
    service: Name,
    reg,
    secret: Optional[str] = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> Message:
    """Register a device by sending the packed-registration UPDATE."""
    owner = (REGISTER_LABEL,) + service + zone_name
    record = ResourceRecord(owner, 0, txt_pair("register", pack_registration(reg)))
    return send_update(host, port, zone_name, (record,), secret=secret, timeout=timeout)


def txt_update_record(owner: Name, key: str, value: str, ttl: int) -> ResourceRecord:
    return ResourceRecord(owner, ttl, txt_pair(key, value))


def txt_delete_record(owner: Name, key: str) -> ResourceRecord:
    return ResourceRecord(owner, 0, txt_pair(key, ""), rclass=CLASS_ANY)
