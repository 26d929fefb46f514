"""Minimal DNS client for the CLI and integration tests.

Speaks to any server over UDP (with automatic TCP retry on truncation)
and over TCP for zone transfers and updates.
"""

from __future__ import annotations

import random
import socket
import struct
import time
from typing import Optional, Sequence

from . import wire
from .records import CLASS_ANY, Name, ResourceRecord, SOA, TYPE_AXFR, TYPE_IXFR, TYPE_SOA
from .server import REGISTER_LABEL, pack_registration, update_token_record
from .wire import Message, OPCODE_UPDATE, Question
from .zone import txt_pair

DEFAULT_TIMEOUT = 5.0


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
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.sendall(struct.pack("!H", len(payload)) + payload)
            header = _recv_exact(sock, 2)
            (length,) = struct.unpack("!H", header)
            return _recv_exact(sock, length)
    except (socket.timeout, ConnectionError) as exc:
        raise ClientError(f"stream exchange with {host}:{port} failed: {exc}") from exc


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("server closed mid-message")
        buf += chunk
    return buf


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
