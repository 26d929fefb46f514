from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_wire import records as wire_records

from semdns.records import (
    A, CNAME, NS, PTR, RecordError, ResourceRecord, SOA, SRV, TXT,
    _tokenize, export_master_file, import_master_file, is_subdomain, make_txt,
    name_text, parse_name,
)


class TestNames:
    def test_parse_and_render(self):
        assert parse_name("Temperature.DR56._iot._udp.") == (
            "temperature", "dr56", "_iot", "_udp")
        assert parse_name(".") == ()
        assert name_text(()) == "."
        assert name_text(("a", "b")) == "a.b."

    def test_rejects_bad_labels(self):
        with pytest.raises(RecordError):
            parse_name("a..b")
        with pytest.raises(RecordError):
            parse_name("x" * 64 + ".com")

    def test_is_subdomain(self):
        assert is_subdomain(parse_name("a.b.c"), parse_name("b.c"))
        assert is_subdomain(parse_name("b.c"), parse_name("b.c"))
        assert not is_subdomain(parse_name("b.c"), parse_name("a.b.c"))
        assert is_subdomain(parse_name("anything"), ())


class TestRdata:
    def test_a_validation(self):
        with pytest.raises(RecordError):
            A("256.1.1.1")
        assert A("160.78.28.203").address == "160.78.28.203"

    def test_txt_string_limit(self):
        with pytest.raises(RecordError):
            TXT(("x" * 256,))
        txt = make_txt("x" * 600)
        assert [len(s) for s in txt.strings] == [255, 255, 90]
        assert txt.text == "x" * 600


    def test_records_carry_no_instance_dict(self):
        # a zone holds one record and one rdata per resource record
        target = parse_name("h.example")
        for value in (A("10.0.0.1"), NS(target), CNAME(target), PTR(target), TXT(("k=v",)),
                      SRV(10, 20, 80, target), SOA(target, target, 1, 2, 3, 4, 5),
                      ResourceRecord(target, 100, A("10.0.0.1"))):
            assert not hasattr(value, "__dict__"), type(value).__name__


class TestMasterFile:
    def fixture_records(self):
        return [
            ResourceRecord((), 100, SOA(("ns",), ("hostmaster",), 7, 7200, 900, 86400, 100)),
            ResourceRecord(parse_name("temperature.dr56._iot._udp"), 100,
                           SRV(10, 20, 8080, parse_name("dr56.unipr.it"))),
            ResourceRecord(parse_name("temperature.dr56._iot._udp"), 100,
                           TXT(("temperature=14",))),
            ResourceRecord(parse_name("dr56.unipr.it"), 100, A("160.78.28.203")),
            ResourceRecord(parse_name("dr56._iot._udp"), 100,
                           PTR(parse_name("temperature.dr56._iot._udp"))),
            ResourceRecord(parse_name("a.12._iot._udp"), 100, NS(parse_name("ns.a.example"))),
            ResourceRecord(parse_name("a0.12._iot._udp"), 100,
                           CNAME(parse_name("0.a.12._iot._udp"))),
        ]

    def test_export_contains_transcript_lines(self):
        text = export_master_file((), self.fixture_records())
        assert "temperature.dr56._iot._udp." in text
        assert "SRV\t10 20 8080 dr56.unipr.it." in text
        assert "dr56.unipr.it.\t100\tIN\tA\t160.78.28.203" in text

    def test_round_trip_equal_record_set(self):
        records = self.fixture_records()
        origin, back = import_master_file(export_master_file((), records))
        assert origin == ()
        assert sorted(back, key=str) == sorted(records, key=str)

    def test_export_import_export_is_stable(self):
        text = export_master_file((), self.fixture_records())
        origin, records = import_master_file(text)
        assert export_master_file(origin, records) == text

    def test_txt_quoting_round_trip(self):
        record = ResourceRecord(("d",), 60, TXT(('say "hi"\\now', "b=c")))
        _, back = import_master_file(export_master_file((), [record]))
        assert back == [record]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(wire_records, max_size=6))
    def test_round_trip_any_records(self, records):
        origin, back = import_master_file(export_master_file((), records))
        assert origin == ()
        assert Counter(back) == Counter(records)

    def test_rejects_garbage(self):
        with pytest.raises(RecordError):
            import_master_file("not a record line at all\n")

    def test_rejects_unknown_type(self):
        with pytest.raises(RecordError):
            import_master_file("x. 60 IN MX 10 mail.example.\n")

    @pytest.mark.parametrize("line", [
        "x. 100 IN SOA ns. hostmaster. 1 7200 900",
        "x. 100 IN A 1.2.3.4 junk",
        "x. 100 IN SRV 70000 20 8080 h.example.",
        "x. 100 IN SRV 10 20 8080",
        "x. -5 IN A 1.2.3.4",
        "x. 100 IN A 001.2.3.4",
        "x. 100 IN A 1.2.3.٤",
        "x. 100 IN SOA ns. hostmaster. 1 7200 900 86400 4294967296",
        ".".join(["a" * 63] * 4) + ". 100 IN A 1.2.3.4",
        "x. 100 IN CNAME",
        "x. ten IN A 1.2.3.4",
        "x. 100 IN",
    ], ids=["short-soa", "extra-field", "srv-port-over-u16", "short-srv", "negative-ttl",
            "a-leading-zero", "a-non-ascii-digit", "soa-over-u32",
            "name-over-255-bytes", "cname-no-target", "ttl-not-a-number", "no-type"])
    def test_rejects_malformed_rdata_naming_the_line(self, line):
        with pytest.raises(RecordError, match="line 2"):
            import_master_file("$ORIGIN .\n" + line + "\n")


def reference_tokenize(line: str) -> list[str]:
    """The character loop the regex tokenizer replaced, kept as its oracle."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        if line[i].isspace():
            i += 1
        elif line[i] == '"':
            i += 1
            buf = []
            while i < n and line[i] != '"':
                if line[i] == "\\" and i + 1 < n:
                    i += 1
                buf.append(line[i])
                i += 1
            if i == n:
                raise RecordError("unterminated quoted string")
            i += 1
            out.append("".join(buf))
        else:
            j = i
            while j < n and not line[j].isspace():
                j += 1
            out.append(line[i:j])
            i = j
    return out


def tokens_or_error(tokenize, line):
    try:
        return tokenize(line)
    except RecordError:
        return RecordError


# quotes, backslashes, ASCII and Unicode spaces, line separators, and letters
tricky_lines = st.text(
    st.sampled_from('"\\ \t\n\x0b\x0c\x1c\x85\xa0\u2003\u2028\u3000ab=é;') | st.characters(),
    max_size=40,
)


class TestTokenize:
    @settings(max_examples=2000)
    @given(tricky_lines)
    def test_matches_reference_loop(self, line):
        assert tokens_or_error(_tokenize, line) == tokens_or_error(reference_tokenize, line)

    @pytest.mark.parametrize("line", [
        'a\t1 IN TXT "x y" "q\\"z"', '"" ""', '"ab"cd', 'a"b c"', '"unterminated',
        '"ends in backslash\\', '"\\\\"', '"escaped\\\nnewline"', "plain words only",
    ])
    def test_examples_match_reference_loop(self, line):
        assert tokens_or_error(_tokenize, line) == tokens_or_error(reference_tokenize, line)


def test_import_shares_name_tuples():
    text = (
        "$ORIGIN .\n"
        "a.example.\t100\tIN\tSRV\t10 20 80 h.example.\n"
        "a.example.\t100\tIN\tTXT\t\"k=v\"\n"
        "b.example.\t100\tIN\tCNAME\th.example.\n"
    )
    _, (srv, txt, cname) = import_master_file(text)
    assert srv.owner is txt.owner
    assert srv.rdata.target is cname.rdata.target


def test_import_shares_label_strings():
    text = (
        "$ORIGIN example.\n"
        "a.x.example.\t100\tIN\tSRV\t10 20 80 h.example.\n"
        "x.example.\t100\tIN\tPTR\ta.x.example.\n"
    )
    origin, (srv, ptr) = import_master_file(text)
    assert srv.owner[1] is ptr.owner[0]  # "x" in two spellings
    assert srv.owner[-1] is srv.rdata.target[-1] is origin[0]
