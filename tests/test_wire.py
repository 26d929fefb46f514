import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdns import wire
from semdns.records import (
    A, CNAME, NS, PTR, ResourceRecord, SOA, SRV, TXT, parse_name,
    TYPE_A, TYPE_PTR, TYPE_TXT, TYPE_ANY,
)
from semdns.wire import Message, Question, WireError, decode, encode

labels = st.text("abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=12)
names = st.lists(labels, min_size=0, max_size=5).map(tuple)
txt_strings = st.text(
    st.characters(min_codepoint=32, max_codepoint=126), min_size=0, max_size=80
)

rdatas = st.one_of(
    st.builds(A, st.tuples(*[st.integers(0, 255)] * 4).map(lambda t: ".".join(map(str, t)))),
    st.builds(NS, names),
    st.builds(CNAME, names),
    st.builds(PTR, names),
    st.builds(TXT, st.lists(txt_strings, min_size=1, max_size=3).map(tuple)),
    st.builds(SRV, st.integers(0, 65535), st.integers(0, 65535), st.integers(0, 65535), names),
    st.builds(SOA, names, names, *[st.integers(0, 2**32 - 1)] * 5),
)

records = st.builds(
    ResourceRecord, names, st.integers(0, 2**31 - 1), rdatas, st.just(1)
)

messages = st.builds(
    Message,
    id=st.integers(0, 65535),
    qr=st.booleans(),
    opcode=st.sampled_from([0, 5]),
    aa=st.booleans(),
    tc=st.booleans(),
    rd=st.booleans(),
    ra=st.booleans(),
    rcode=st.integers(0, 5),
    questions=st.lists(
        st.builds(Question, names, st.sampled_from([1, 2, 5, 6, 12, 16, 33, 251, 252, 255]), st.just(1)),
        max_size=2).map(tuple),
    answers=st.lists(records, max_size=4).map(tuple),
    authority=st.lists(records, max_size=2).map(tuple),
    additional=st.lists(records, max_size=2).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(messages)
def test_round_trip_identity(msg):
    assert decode(encode(msg)) == msg


def test_round_trip_maximum_length_name():
    # 3 x 63-byte labels + one 61-byte label = 255 wire bytes exactly
    name = ("x" * 63, "y" * 63, "z" * 63, "w" * 61)
    assert sum(len(l) + 1 for l in name) + 1 == 255
    msg = Message(id=7, questions=(Question(name, TYPE_A),),
                  answers=(ResourceRecord(name, 60, A("1.2.3.4")),))
    assert decode(encode(msg)) == msg


def test_name_too_long_rejected():
    name = tuple("x" * 63 for _ in range(4))
    msg = Message(questions=(Question(name, TYPE_A),))
    with pytest.raises(WireError):
        encode(msg)


@pytest.mark.parametrize("name", [("x" * 64, "com"), ("a", "", "com"), ("café",)])
def test_unencodable_label_rejected(name):
    msg = Message(answers=(ResourceRecord(name, 60, A("1.2.3.4")),))
    with pytest.raises(WireError):
        encode(msg)


def test_ttl_with_top_bit_set_reads_as_zero():
    data = bytearray(encode(Message(answers=(ResourceRecord(("a",), 60, A("1.2.3.4")),))))
    ttl_at = 12 + 3 + 4  # header, owner name "a", type and class
    data[ttl_at:ttl_at + 4] = (2**31).to_bytes(4, "big")
    assert decode(bytes(data)).answers[0].ttl == 0


def test_compression_reduces_size_and_round_trips():
    owner = parse_name("temperature.dr56._iot._udp.example.org")
    msg = Message(
        id=1, qr=True,
        questions=(Question(owner, TYPE_ANY),),
        answers=(
            ResourceRecord(owner, 100, SRV(10, 20, 8080, parse_name("dr56.unipr.it"))),
            ResourceRecord(owner, 100, TXT(("temperature=14",))),
            ResourceRecord(parse_name("dr56._iot._udp.example.org"), 100, PTR(owner)),
        ),
    )
    data = encode(msg)
    assert decode(data) == msg
    # the owner name occurs three times beyond the question; pointers
    # must beat spelling it out
    naive = len(data) + 2 * (sum(len(l) + 1 for l in owner) - 1)
    assert len(data) < naive


def test_decode_handles_pointer_in_question():
    # handcrafted: question name via a pointer to an earlier name
    base = encode(Message(id=3, questions=(Question(("abc", "de"), TYPE_A),)))
    # append a second question reusing the first qname through a pointer
    crafted = bytearray(base)
    crafted[4:6] = (0, 2)  # qdcount = 2
    crafted += bytes([0xC0, 12]) + (1).to_bytes(2, "big") + (1).to_bytes(2, "big")
    msg = decode(bytes(crafted))
    assert msg.questions[0].qname == msg.questions[1].qname == ("abc", "de")


def test_pointer_loop_rejected():
    header = bytes([0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0])  # id=1, qd=1
    crafted = header + bytes([0xC0, 12, 0, 1, 0, 1])  # qname points at itself
    with pytest.raises(WireError):
        decode(crafted)


def test_truncated_message_rejected():
    data = encode(Message(id=9, questions=(Question(("a",), TYPE_A),)))
    with pytest.raises(WireError):
        decode(data[:-3])


def test_uppercase_names_fold_on_decode():
    data = encode(Message(questions=(Question(("abc",), TYPE_A),)))
    # uppercase the label bytes in place
    swapped = data.replace(b"abc", b"ABC")
    assert decode(swapped).questions[0].qname == ("abc",)
