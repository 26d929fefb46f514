import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wire_reference
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


@settings(max_examples=300, deadline=None)
@given(messages)
def test_question_end_is_where_the_records_start(msg):
    # one question alone has an end; none or two have none
    questions_only = Message(id=msg.id, questions=msg.questions)
    expected = len(encode(questions_only)) if len(msg.questions) == 1 else None
    assert wire.question_end(encode(msg)) == expected


ONE_QUESTION = bytes.fromhex("0001 0000 0001 0000 0000 0000")


@pytest.mark.parametrize("data", [
    ONE_QUESTION + b"\x01a\xc0\x0c\x00\x01\x00\x01",  # a pointer in the name
    ONE_QUESTION + b"\x05ab",  # a label that runs past the end
    ONE_QUESTION + b"\x01a",  # no root label
    ONE_QUESTION + b"\x01a\x00\x00\x01\x00",  # QCLASS cut short
    ONE_QUESTION[:5],  # a short header
    ONE_QUESTION[:11],
], ids=["pointer", "label-past-end", "no-root", "short-qclass", "header-5", "header-11"])
def test_question_end_is_none_for_a_question_it_cannot_walk(data):
    assert wire.question_end(data) is None


@settings(max_examples=300, deadline=None)
@given(messages)
def test_encode_matches_reference_bytes(msg):
    assert encode(msg) == wire_reference.encode(msg)


@st.composite
def damaged_encodings(draw):
    """An encoded message with one to four bytes replaced, compression
    pointers written over it, or its end cut off."""
    data = bytearray(encode(draw(messages)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data) - 1))
        kind = draw(st.sampled_from(["byte", "pointer", "cut"]))
        if kind == "byte":
            data[at] = draw(st.integers(0, 255))
        elif kind == "pointer":
            target = draw(st.integers(0, len(data) - 1))
            data[at:at + 2] = bytes([0xC0 | target >> 8, target & 0xFF])
        else:
            del data[at:]
            break
    return bytes(data)


def decoded_or_error(decoder, data):
    try:
        return decoder(data)
    except WireError as exc:
        return exc


def is_forward_pointer_error(result):
    return isinstance(result, WireError) and "does not point back" in str(result)


@settings(max_examples=600, deadline=None)
@given(st.one_of(messages.map(encode), damaged_encodings()))
def test_decode_matches_reference(data):
    got = decoded_or_error(decode, data)
    want = decoded_or_error(wire_reference.decode, data)
    if isinstance(want, WireError):
        assert isinstance(got, WireError)
    else:
        # the one difference allowed: only the reference follows a pointer forward
        assert got == want or is_forward_pointer_error(got)


def header(qdcount, ancount=0):
    return struct.pack("!6H", 1, 0, qdcount, ancount, 0, 0)


A_IN = struct.pack("!HH", TYPE_A, 1)


def fixed(rtype, rdlength):
    return struct.pack("!HHIH", rtype, 1, 60, rdlength)


@pytest.mark.parametrize("data", [
    # the first question's name points at the second's
    header(2) + b"\xc0\x12" + A_IN + b"\x03abc\x00" + A_IN,
    # the second answer's owner points back into the TXT rdata at 31, where
    # label "a" is followed by a pointer to 35, past where that run began
    header(1, 2) + b"\x01b\x00" + A_IN
    + b"\x00" + fixed(TYPE_TXT, 8) + b"\x04\x01a\xc0\x23\x01b\x00"
    + b"\xc0\x1f" + fixed(TYPE_A, 4) + bytes(4),
], ids=["forward", "forward-after-a-jump"])
def test_forward_pointer_rejected(data):
    assert isinstance(wire_reference.decode(data), Message)
    with pytest.raises(WireError, match="does not point back"):
        decode(data)


def test_pointer_into_an_already_decoded_name():
    # "temperature.dr56.example" at 12; the second question starts at its
    # second label, 12 bytes in
    first = b"\x0btemperature\x04dr56\x07example\x00"
    data = header(2) + first + A_IN + b"\xc0\x18" + A_IN
    msg = decode(data)
    assert msg.questions[1].qname == ("dr56", "example")
    assert msg == wire_reference.decode(data)


def test_chain_of_pointers():
    # "a.b.c" at 12; "x" and a pointer to "b.c" at 23; "y" and a pointer to
    # the second name at 31; a pointer to the first name at 39, and at 45 a
    # pointer to that pointer
    data = (header(5) + b"\x01a\x01b\x01c\x00" + A_IN + b"\x01x\xc0\x0e" + A_IN
            + b"\x01y\xc0\x17" + A_IN + b"\xc0\x0c" + A_IN + b"\xc0\x27" + A_IN)
    msg = decode(data)
    assert [q.qname for q in msg.questions] == [
        ("a", "b", "c"), ("x", "b", "c"), ("y", "x", "b", "c"), ("a", "b", "c"),
        ("a", "b", "c")]
    assert msg == wire_reference.decode(data)


@pytest.mark.parametrize("section", ["questions", "answers", "authority", "additional"])
def test_section_over_65535_entries_rejected(section):
    entry = (Question(("a",), TYPE_A) if section == "questions"
             else ResourceRecord(("a",), 60, A("1.2.3.4")))
    with pytest.raises(WireError, match="exceeds 65535"):
        encode(Message(**{section: (entry,) * 65536}))


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
