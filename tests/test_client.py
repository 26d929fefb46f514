import socket
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
