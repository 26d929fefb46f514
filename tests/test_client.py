import os
import socket
import struct
import threading
from dataclasses import replace

import pytest

from semdns import client, wire
from semdns.records import A, ResourceRecord, TYPE_A, parse_name
from semdns.wire import Message, Question


@pytest.fixture
def fake_server():
    """A UDP socket that answers one query with the messages ``replies(query)`` returns."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(5)
    threads = []

    def serve(replies):
        def answer():
            data, addr = sock.recvfrom(65535)
            for reply in replies(wire.decode(data)):
                sock.sendto(wire.encode(reply), addr)
        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        threads.append(thread)

    yield sock.getsockname()[1], serve
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    sock.close()


def answer_with(query, address):
    return query.reply(answers=(ResourceRecord(query.questions[0].qname, 60, A(address)),))


def stray_replies(query):
    """Datagrams a client must not take for the answer to ``query``."""
    forged = answer_with(query, "6.6.6.6")
    return [
        replace(forged, id=(query.id + 1) % 65536),
        replace(forged, questions=(Question(parse_name("other.example"), TYPE_A),)),
    ]


def test_exchange_waits_past_stray_replies_for_its_own(fake_server):
    port, serve = fake_server
    serve(lambda query: stray_replies(query) + [answer_with(query, "1.2.3.4")])
    reply = client.query("127.0.0.1", port, parse_name("dev.example"), TYPE_A, timeout=5)
    assert [r.rdata.address for r in reply.answers] == ["1.2.3.4"]


def test_exchange_times_out_when_only_strays_arrive(fake_server):
    port, serve = fake_server
    serve(stray_replies)
    with pytest.raises(client.ClientError, match="timeout"):
        client.query("127.0.0.1", port, parse_name("dev.example"), TYPE_A, timeout=0.5)


# ---------------------------------------------------------------------------
# TCP connection reuse against a scripted server


def frame(msg):
    payload = wire.encode(msg)
    return struct.pack("!H", len(payload)) + payload


def answer(conn, query):
    conn.sendall(frame(query.reply()))


def half_then_close(conn, query):
    data = frame(query.reply())
    conn.sendall(data[:len(data) // 2])
    conn.shutdown(socket.SHUT_RDWR)


def silent(conn, query):
    pass


def wrong_id(conn, query):
    conn.sendall(frame(replace(query.reply(), id=(query.id + 1) % 65536)))


def wrong_question(conn, query):
    other = Question(parse_name("other.example"), TYPE_A)
    conn.sendall(frame(replace(query.reply(), questions=(other,))))


class ScriptedStreamServer:
    """A TCP listener whose thread serves one connection at a time and
    answers the n-th query it reads, over any connection, with
    ``script[n](conn, query)``; a query past the script closes the
    connection unanswered."""

    def __init__(self, script):
        self.script = script
        self.queries = []
        self.accepted = 0
        self.current = None
        self.closed = threading.Event()  # set each time a connection is closed
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.port = self.listener.getsockname()[1]
        self.stopping = False
        self.thread = threading.Thread(target=self.run, daemon=True)
        self.thread.start()

    def run(self):
        while not self.stopping:
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            self.accepted += 1
            self.current = conn
            with conn:
                conn.settimeout(5)
                try:
                    while True:
                        (length,) = struct.unpack("!H", client._recv_exact(conn, 2))
                        query = wire.decode(client._recv_exact(conn, length))
                        self.queries.append(query)
                        if len(self.queries) > len(self.script):
                            break
                        self.script[len(self.queries) - 1](conn, query)
                except OSError:  # the peer closed, or a step shut the connection
                    pass
            self.closed.set()

    def drop_connection(self):
        """Close the server side of the open connection and wait until it is closed."""
        self.closed.clear()
        self.current.shutdown(socket.SHUT_RDWR)
        assert self.closed.wait(5)

    def stop(self):
        self.stopping = True
        self.thread.join(timeout=5)
        self.listener.close()
        assert not self.thread.is_alive()


@pytest.fixture
def scripted():
    servers = []

    def start(*script):
        srv = ScriptedStreamServer(script)
        servers.append(srv)
        return srv

    yield start
    client._set_idle(None)  # the servers' threads wait on the client's kept connection
    for srv in servers:
        srv.stop()


def update(port, timeout=5):
    owner = parse_name("temperature.dr56._iot._udp")
    return client.send_update("127.0.0.1", port, (), [
        client.txt_update_record(owner, "temperature", "15", 100)], timeout=timeout)


def test_connection_closed_after_liveness_check_is_retried_once(scripted, monkeypatch):
    srv = scripted(answer, answer)
    update(srv.port)
    real_take = client._take_idle
    dropped = []

    def take_then_drop(addr):
        sock = real_take(addr)
        if sock is not None:  # the check passed: now the server closes it
            srv.drop_connection()
            dropped.append(sock)
        return sock
    monkeypatch.setattr(client, "_take_idle", take_then_drop)
    assert update(srv.port).rcode == wire.RCODE_NOERROR
    assert len(dropped) == 1  # the kept connection was taken
    assert len(srv.queries) == 2  # each UPDATE arrived once
    assert srv.accepted == 2
    assert client._idle is not None and client._idle[1] is not dropped[0]


@pytest.mark.parametrize("failure", [half_then_close, silent])
def test_failed_reply_on_kept_connection_is_not_retried_or_kept(scripted, failure):
    srv = scripted(answer, failure)
    update(srv.port)
    with pytest.raises(client.ClientError):
        update(srv.port, timeout=0.5)
    assert len(srv.queries) == 2  # no second send of the failed UPDATE
    assert srv.accepted == 1  # it went over the kept connection
    assert client._idle is None


@pytest.mark.parametrize("mismatch", [wrong_id, wrong_question])
def test_mismatched_stream_reply_is_an_error(scripted, mismatch):
    srv = scripted(mismatch)
    with pytest.raises(client.ClientError, match="does not match"):
        update(srv.port)
    assert client._idle is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_drops_the_idle_connection():
    ours, peer = socket.socketpair()
    with peer:
        client._set_idle((("127.0.0.1", 1), ours))
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only if the connection was dropped
            os._exit(0 if client._idle is None else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert client._idle == (("127.0.0.1", 1), ours)
        peer.sendall(b"x")  # the child's close left the parent's end open
        assert ours.recv(1) == b"x"
        client._set_idle(None)
    assert ours.fileno() == -1
