import errno
import itertools
import os
import random
import select
import socket
import struct
import sys
import tempfile
import threading
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import SOA_LINE, SOA_MASTER_FILE, HalfWrites, build_fixture_zone
from semdns import client, server as server_module, wire
from semdns.records import (
    A, CLASS_NONE, CNAME, PTR, ResourceRecord, SOA, SRV, TXT,
    make_txt, parse_record_line,
    TYPE_A, TYPE_ANY, TYPE_AXFR, TYPE_CNAME, TYPE_IXFR, TYPE_PTR, TYPE_SOA,
    TYPE_SRV, TYPE_TXT,
    parse_name,
)
from semdns.server import (
    DnsServer,
    REGISTER_LABEL,
    ServerConfig,
    answer_query,
    dispatch,
    handle_update,
    pack_registration,
    serve_axfr,
    serve_ixfr,
    update_token_record,
)
from semdns.wire import (
    Message, OPCODE_UPDATE, Question,
    RCODE_FORMERR, RCODE_NOERROR, RCODE_NOTAUTH, RCODE_NOTIMP, RCODE_NOTZONE, RCODE_NXDOMAIN,
    RCODE_REFUSED, RCODE_SERVFAIL,
)
from semdns.zone import (
    DeviceRegistration, JournalEntry, JournalFile, SplitPolicy, Zone, txt_pair, txt_value,
)


def ask(zone, name, qtype):
    return answer_query(
        Message(id=1, questions=(Question(parse_name(name), qtype),)), zone)


def admit(zone, msg, stream=False, cache=None):
    """``msg`` through ``dispatch``, where every message is admitted."""
    return wire.decode(dispatch(wire.encode(msg), zone, ServerConfig(port=0),
                                stream=stream, source=None, cache=cache))


class TestAnswerQuery:
    def test_ptr_prefix_transcript(self, fixture_zone):
        reply = ask(fixture_zone, "_dr._iot._udp", TYPE_PTR)
        assert reply.rcode == RCODE_NOERROR and reply.qr and reply.aa
        assert {r.rdata.target for r in reply.answers} == {
            parse_name("humidity.dr12._iot._udp"),
            parse_name("temperature.dr34._iot._udp"),
            parse_name("temperature.dr56._iot._udp"),
        }
        assert all(r.ttl == 100 and r.owner == parse_name("_dr._iot._udp")
                   for r in reply.answers)

    def test_instance_any_transcript(self, fixture_zone):
        reply = ask(fixture_zone, "temperature.dr56._iot._udp", TYPE_ANY)
        rdatas = {str(r.rdata.__class__.__name__): r.rdata for r in reply.answers}
        assert rdatas["SRV"] == SRV(10, 20, 8080, parse_name("dr56.unipr.it"))
        assert rdatas["TXT"].text == "temperature=14"

    def test_a_transcript(self, fixture_zone):
        reply = ask(fixture_zone, "dr56.unipr.it", TYPE_A)
        assert [r.rdata.address for r in reply.answers] == ["160.78.28.203"]

    def test_exact_ptr_fallback(self, fixture_zone):
        # no device identifier matches, but a literal PTR exists at the owner
        reply = ask(fixture_zone, "dr56._iot._udp", TYPE_PTR)
        assert {r.rdata.target for r in reply.answers} == {
            parse_name("temperature.dr56._iot._udp")}

    def test_nxdomain(self, fixture_zone):
        assert ask(fixture_zone, "nothing.here", TYPE_A).rcode == RCODE_NXDOMAIN

    def test_nodata_is_noerror(self, fixture_zone):
        reply = ask(fixture_zone, "dr56.unipr.it", TYPE_SRV)
        assert reply.rcode == RCODE_NOERROR and reply.answers == ()

    def test_soa_at_apex(self, fixture_zone):
        reply = ask(fixture_zone, ".", TYPE_SOA)
        assert reply.answers[0].rdata.serial == fixture_zone.serial

    def test_any_at_apex_includes_soa(self, fixture_zone):
        reply = ask(fixture_zone, ".", TYPE_ANY)
        assert any(r.rtype == TYPE_SOA for r in reply.answers)

    def test_out_of_zone_refused(self):
        zone = Zone(origin=parse_name("example.org"))
        msg = Message(id=1, questions=(Question(parse_name("other.net"), TYPE_A),))
        assert admit(zone, msg).rcode == RCODE_REFUSED

    def test_unknown_opcode_notimp(self, fixture_zone):
        msg = Message(id=1, opcode=2, questions=(Question((), TYPE_A),))
        assert admit(fixture_zone, msg).rcode == RCODE_NOTIMP

    def test_wrong_question_count_formerr(self, fixture_zone):
        q = Question((), TYPE_A)
        assert admit(fixture_zone, Message(id=1)).rcode == RCODE_FORMERR
        assert admit(fixture_zone, Message(id=1, questions=(q, q))).rcode == RCODE_FORMERR

    def test_cname_chain_exposed(self):
        zone = Zone(policy=SplitPolicy("multi", 1))
        zone.register_device(DeviceRegistration("t", "a2", 1, parse_name("h.example")))
        zone.add_record(ResourceRecord(
            parse_name("a2._iot._udp"), 100, CNAME(parse_name("2.a._iot._udp"))))
        reply = ask(zone, "t.a2._iot._udp", TYPE_SRV)
        # no CNAME at the instance spelling itself, so this is NXDOMAIN...
        assert reply.rcode == RCODE_NXDOMAIN
        # ...but the identifier alias resolves through the chain
        reply = ask(zone, "a2._iot._udp", TYPE_PTR)
        assert any(r.rtype == TYPE_CNAME for r in reply.answers)
        assert {r.rdata.target for r in reply.answers if r.rtype == TYPE_PTR} == {
            parse_name("t.2.a._iot._udp")}


    @pytest.mark.parametrize("name, qtype, reads, owner_checks", [
        ("temperature.dr56._iot._udp", TYPE_SRV, 1, 0),  # found
        ("dr56.unipr.it", TYPE_SRV, 1, 0),                # NODATA at an owner
        ("_dr._iot._udp", TYPE_TXT, 1, 1),                # empty non-terminal
        ("nothing.here", TYPE_A, 1, 1),                   # NXDOMAIN
    ])
    def test_one_zone_read_per_name(self, fixture_zone, monkeypatch, name, qtype,
                                    reads, owner_checks):
        calls = {"records_at": 0, "has_owner": 0}
        for method in calls:
            original = getattr(Zone, method)

            def counted(self, *args, _original=original, _method=method):
                calls[_method] += 1
                return _original(self, *args)
            monkeypatch.setattr(Zone, method, counted)
        ask(fixture_zone, name, qtype)
        assert calls == {"records_at": reads, "has_owner": owner_checks}

    def test_one_zone_read_per_cname_hop(self, monkeypatch):
        zone = Zone()
        zone.add_record(ResourceRecord(parse_name("a.example"), 100, CNAME(parse_name("b.example"))))
        zone.add_record(ResourceRecord(parse_name("b.example"), 100, A("10.0.0.1")))
        calls = []
        original = Zone.records_at
        monkeypatch.setattr(Zone, "records_at",
                            lambda self, *args: calls.append(args) or original(self, *args))
        reply = ask(zone, "a.example", TYPE_A)
        assert [r.rtype for r in reply.answers] == [TYPE_CNAME, TYPE_A]
        assert calls == [(parse_name("a.example"),), (parse_name("b.example"),)]


class TestAxfr:
    def test_datagram_refused(self, fixture_zone):
        msg = Message(id=1, questions=(Question((), TYPE_AXFR),))
        assert serve_axfr(msg, fixture_zone, stream=False).rcode == RCODE_REFUSED

    def test_apex_soa_framing(self, fixture_zone):
        msg = Message(id=1, questions=(Question((), TYPE_AXFR),))
        reply = serve_axfr(msg, fixture_zone, stream=True)
        assert reply.answers[0].rtype == TYPE_SOA
        assert reply.answers[-1].rtype == TYPE_SOA
        assert len(reply.answers) == len(fixture_zone.records()) + 2

    def test_subtree_transfer(self, fixture_zone):
        apex = parse_name("dr56._iot._udp")
        msg = Message(id=1, questions=(Question(apex, TYPE_AXFR),))
        reply = serve_axfr(msg, fixture_zone, stream=True)
        body = reply.answers[1:-1]
        assert body and all(r.owner[-len(apex):] == apex for r in body)

    def test_empty_subtree_nxdomain(self, fixture_zone):
        msg = Message(id=1, questions=(Question(parse_name("zz._iot._udp"), TYPE_AXFR),))
        assert serve_axfr(msg, fixture_zone, stream=True).rcode == RCODE_NXDOMAIN

    def test_the_master_files_soa_is_served_and_frames_the_transfer(self):
        zone = Zone.from_master_file(SOA_MASTER_FILE)
        soa = parse_record_line(SOA_LINE)
        reply = admit(zone, Message(id=1, questions=(Question(("example",), TYPE_SOA),)))
        assert reply.answers == (soa,)
        axfr = admit(zone, Message(id=1, questions=(Question(("example",), TYPE_AXFR),)),
                     stream=True)
        assert axfr.answers[0] == axfr.answers[-1] == soa


def ixfr_query(serial):
    return Message(
        id=1,
        questions=(Question((), TYPE_IXFR),),
        authority=(ResourceRecord((), 0, SOA((), (), serial, 0, 0, 0, 0)),),
    )


class TestIxfr:
    def test_missing_client_soa_formerr(self, fixture_zone):
        msg = Message(id=1, questions=(Question((), TYPE_IXFR),))
        assert serve_ixfr(msg, fixture_zone, stream=True).rcode == RCODE_FORMERR

    def test_up_to_date_single_soa(self, fixture_zone):
        reply = serve_ixfr(ixfr_query(fixture_zone.serial), fixture_zone, stream=True)
        assert len(reply.answers) == 1
        assert reply.answers[0].rdata.serial == fixture_zone.serial

    def test_step_framing(self, fixture_zone):
        start = fixture_zone.serial
        owner = parse_name("temperature.dr56._iot._udp")
        fixture_zone.update_txt(owner, "temperature", "15")
        reply = serve_ixfr(ixfr_query(start), fixture_zone, stream=True)
        serials = [r.rdata.serial for r in reply.answers if r.rtype == TYPE_SOA]
        # current, then (old, new) per step, then current again
        assert serials == [start + 1, start, start + 1, start + 1]
        texts = [r.rdata.text for r in reply.answers if r.rtype == TYPE_TXT]
        assert texts == ["temperature=14", "temperature=15"]

    def test_serial_wraps_to_zero(self):
        # RFC 1982: 2**32-2 -> 2**32-1 -> 0
        start = 2**32 - 2
        zone = Zone(serial=start)
        zone.register_device(DeviceRegistration("t", "dr56", 8080, parse_name("h.example")))
        zone.update_txt(parse_name("t.dr56._iot._udp"), "temperature", "15")
        assert zone.serial == 0
        config = ServerConfig(port=0)
        soa = wire.decode(dispatch(wire.encode(Message(id=3, questions=(Question((), TYPE_SOA),))),
                                   zone, config, stream=False, source=None))
        assert soa.rcode == RCODE_NOERROR
        assert [r.rdata.serial for r in soa.answers] == [0]
        reply = wire.decode(dispatch(wire.encode(ixfr_query(start)), zone, config,
                                     stream=True, source=None))
        assert reply.rcode == RCODE_NOERROR
        serials = [r.rdata.serial for r in reply.answers if r.rtype == TYPE_SOA]
        assert serials == [0, start, start + 1, start + 1, 0, 0]
        assert [r.rdata.text for r in reply.answers if r.rtype == TYPE_TXT] == [
            "temperature=15"]
        # a secondary already at 0 is up to date, one at 2**32-1 gets one step
        assert zone.ixfr_diff(0).steps == ()
        assert [e.serial for e in zone.ixfr_diff(start + 1).steps] == [0]

    def test_fallback_becomes_axfr_on_stream(self):
        zone = build_fixture_zone()
        zone.journal_retention = 1
        owner = parse_name("temperature.dr56._iot._udp")
        zone.update_txt(owner, "temperature", "15")
        zone.update_txt(owner, "temperature", "16")
        reply = serve_ixfr(ixfr_query(2), zone, stream=True)
        assert len(reply.answers) == len(zone.records()) + 2

    def test_fallback_truncates_on_datagram(self):
        zone = build_fixture_zone()
        zone.journal_retention = 1
        zone.update_txt(parse_name("temperature.dr56._iot._udp"), "temperature", "15")
        zone.update_txt(parse_name("temperature.dr56._iot._udp"), "temperature", "16")
        assert serve_ixfr(ixfr_query(2), zone, stream=False).tc

    def test_oversized_datagram_degrades_to_soa(self, fixture_zone):
        start = fixture_zone.serial
        owner = parse_name("temperature.dr56._iot._udp")
        for i in range(40):
            fixture_zone.update_txt(owner, f"k{i}", "v" * 80)
        reply = serve_ixfr(ixfr_query(start), fixture_zone, stream=False)
        assert len(reply.answers) == 1
        assert reply.answers[0].rdata.serial == fixture_zone.serial


def update_msg(updates, additional=()):
    return Message(
        id=1, opcode=OPCODE_UPDATE,
        questions=(Question((), TYPE_SOA),),
        authority=tuple(updates),
        additional=tuple(additional),
    )


class TestUpdate:
    def test_plain_txt_update(self, fixture_zone):
        owner = parse_name("temperature.dr56._iot._udp")
        rr = ResourceRecord(owner, 100, txt_pair("temperature", "15"))
        reply = handle_update(update_msg([rr]), fixture_zone, ServerConfig(port=0))
        assert reply.rcode == RCODE_NOERROR
        assert [t.rdata.text for t in fixture_zone.records_at(owner, TYPE_TXT)] == [
            "temperature=15"]

    def test_non_txt_refused_and_zone_unchanged(self, fixture_zone):
        before = fixture_zone.serial
        rr = ResourceRecord(parse_name("evil.example"), 60, A("6.6.6.6"))
        reply = handle_update(update_msg([rr]), fixture_zone, ServerConfig(port=0))
        assert reply.rcode == RCODE_REFUSED
        assert fixture_zone.serial == before

    def test_zone_section_names_the_zones_soa(self):
        # RFC 2136 §3.1.1: ZTYPE SOA, else FORMERR; ZNAME the zone, else NOTAUTH
        zone = Zone(origin=("example",))
        host = ("h", "example")
        zone.add_record(ResourceRecord(host, 100, A("10.0.0.1")))
        data = ResourceRecord(host, 100, txt_pair("k", "v"))
        serial = zone.serial
        for zname, ztype, rcode in ((host, TYPE_A, RCODE_FORMERR),
                                    (zone.origin, TYPE_A, RCODE_FORMERR),
                                    (host, TYPE_SOA, RCODE_NOTAUTH)):
            msg = Message(id=1, opcode=OPCODE_UPDATE, questions=(Question(zname, ztype),),
                          authority=(data,))
            assert handle_update(msg, zone, ServerConfig(port=0)).rcode == rcode
            assert zone.serial == serial and zone.records_at(host, TYPE_TXT) == ()
        msg = Message(id=1, opcode=OPCODE_UPDATE, questions=(Question(zone.origin, TYPE_SOA),),
                      authority=(data,))
        assert handle_update(msg, zone, ServerConfig(port=0)).rcode == RCODE_NOERROR
        assert zone.serial == serial + 1 and zone.records_at(host, TYPE_TXT) == (data,)

    def test_zone_section_checked_after_authorization(self):
        zone = Zone(origin=("example",))
        msg = Message(id=1, opcode=OPCODE_UPDATE, questions=(Question(("h", "example"), TYPE_A),))
        config = ServerConfig(port=0, update_secret="hunter2")
        assert handle_update(msg, zone, config).rcode == RCODE_REFUSED

    def test_secret_required(self, fixture_zone):
        config = ServerConfig(port=0, update_secret="hunter2")
        owner = parse_name("temperature.dr56._iot._udp")
        rr = ResourceRecord(owner, 100, txt_pair("temperature", "15"))
        before = fixture_zone.serial
        assert handle_update(update_msg([rr]), fixture_zone, config).rcode == RCODE_REFUSED
        bad = update_token_record("wrong")
        assert handle_update(
            update_msg([rr], [bad]), fixture_zone, config).rcode == RCODE_REFUSED
        assert fixture_zone.serial == before
        good = update_token_record("hunter2")
        assert handle_update(
            update_msg([rr], [good]), fixture_zone, config).rcode == RCODE_NOERROR

    def test_source_allow_list(self, fixture_zone):
        config = ServerConfig(port=0, allowed_sources=("10.0.0.1",))
        owner = parse_name("temperature.dr56._iot._udp")
        rr = ResourceRecord(owner, 100, txt_pair("temperature", "15"))
        assert handle_update(
            update_msg([rr]), fixture_zone, config, source="10.9.9.9"
        ).rcode == RCODE_REFUSED
        assert handle_update(
            update_msg([rr]), fixture_zone, config, source="10.0.0.1"
        ).rcode == RCODE_NOERROR

    def test_registration_over_update(self, fixture_zone):
        reg = DeviceRegistration("pressure", "dr78", 9000, parse_name("dr78.unipr.it"))
        owner = (REGISTER_LABEL,) + fixture_zone.service
        rr = ResourceRecord(owner, 0, txt_pair("register", pack_registration(reg)))
        reply = handle_update(update_msg([rr]), fixture_zone, ServerConfig(port=0))
        assert reply.rcode == RCODE_NOERROR
        assert [txt_value(r.rdata) for r in reply.additional] == ["registered"]
        assert fixture_zone.records_at(
            parse_name("pressure.dr78._iot._udp"), TYPE_SRV)
        # idempotent: the same registration reports unchanged
        reply = handle_update(update_msg([rr]), fixture_zone, ServerConfig(port=0))
        assert [txt_value(r.rdata) for r in reply.additional] == ["unchanged"]

    def test_malformed_registration_refused(self, fixture_zone):
        owner = (REGISTER_LABEL,) + fixture_zone.service
        rr = ResourceRecord(owner, 0, txt_pair("register", "garbage"))
        reply = handle_update(update_msg([rr]), fixture_zone, ServerConfig(port=0))
        assert reply.rcode != RCODE_NOERROR

    @pytest.mark.parametrize("value", [
        "garbage",
        "instance=x;id=dr78;port=80;target=a..b",
        "instance=x;id=dr78;target=dr78.unipr.it",
        "instance=x;id=dr78;port=eighty;target=dr78.unipr.it",
        "instance=;id=dr78;port=80;target=dr78.unipr.it",
        "instance=x;id=dr78;port=80;target=dr78.unipr.it;port=9",
    ], ids=["no-fields", "bad-target", "no-port", "non-numeric-port", "empty-instance",
            "repeated-field"])
    def test_malformed_registration_formerr(self, fixture_zone, value):
        owner = (REGISTER_LABEL,) + fixture_zone.service
        txt = ResourceRecord(parse_name("temperature.dr56._iot._udp"), 100,
                             txt_pair("temperature", "15"))
        reg = ResourceRecord(owner, 0, txt_pair("register", value))
        before = fixture_zone.serial
        reply = wire.decode(dispatch(wire.encode(update_msg([txt, reg])), fixture_zone,
                                     ServerConfig(port=0), stream=False, source="127.0.0.1"))
        assert reply.rcode == RCODE_FORMERR
        # found while validating, before anything is applied
        assert fixture_zone.serial == before

    @pytest.mark.parametrize("reg", [
        DeviceRegistration("x", "dr78", 80, parse_name("dr78.unipr.it"),
                           txt=(("k", "x;txt.evil=1"),)),
        DeviceRegistration("x", "dr78", 80, parse_name("dr78.unipr.it"), txt=(("k", "x;port=9"),)),
        DeviceRegistration("x;port=9", "dr78", 80, parse_name("dr78.unipr.it")),
        DeviceRegistration("x", "dr78", 80, parse_name("dr78.unipr.it"), txt=(("k;a", "1"),)),
    ], ids=["txt-field", "port-field", "instance", "txt-key"])
    def test_a_separator_in_a_registration_field_is_refused_before_sending(self, reg):
        with pytest.raises(ValueError, match="';'"):
            pack_registration(reg)

    @pytest.mark.parametrize("key", ["a=b", ""])
    def test_a_txt_key_the_zone_refuses_is_refused_before_sending(self, key):
        # "txt.a=b=c" would reach the server as key "a" with value "b=c"
        reg = DeviceRegistration("x", "dr78", 80, parse_name("dr78.unipr.it"), txt=((key, "c"),))
        with pytest.raises(ValueError, match="TXT key"):
            pack_registration(reg)

    @pytest.mark.parametrize("rclass", [2, 3, 4, 253])
    def test_an_update_record_of_another_class_is_formerr(self, fixture_zone, rclass):
        # RFC 2136 §3.4.1.2: an update record's class is the zone's, NONE or ANY
        owner = parse_name("temperature.dr56._iot._udp")
        updates = [ResourceRecord(owner, 100, txt_pair("a", "1")),
                   ResourceRecord(owner, 100, txt_pair("b", "2"), rclass=rclass)]
        serial, before = fixture_zone.serial, fixture_zone.records_at(owner)
        reply = wire.decode(dispatch(wire.encode(update_msg(updates)), fixture_zone,
                                     ServerConfig(port=0), stream=True, source="127.0.0.1"))
        assert reply.rcode == RCODE_FORMERR
        assert fixture_zone.serial == serial and fixture_zone.records_at(owner) is before

    def test_an_update_with_prerequisites_is_notimp(self, fixture_zone):
        # RFC 2136 §3.2: prerequisites are not evaluated, so none is applied
        owner = parse_name("temperature.dr56._iot._udp")
        # "this value exists" (§2.4.2), which fails: the owner holds temperature=14
        prerequisite = ResourceRecord(owner, 0, txt_pair("temperature", "99"))
        msg = Message(id=1, opcode=OPCODE_UPDATE, questions=(Question((), TYPE_SOA),),
                      answers=(prerequisite,),
                      authority=(ResourceRecord(owner, 100, txt_pair("temperature", "15")),))
        serial, before = fixture_zone.serial, fixture_zone.records_at(owner)
        reply = wire.decode(dispatch(wire.encode(msg), fixture_zone, ServerConfig(port=0),
                                     stream=True, source="127.0.0.1"))
        assert reply.rcode == RCODE_NOTIMP
        assert fixture_zone.serial == serial and fixture_zone.records_at(owner) is before

    def test_deleting_an_absent_key_is_a_no_op(self, fixture_zone):
        # RFC 2136 §3.4.2.3: deleting data that is not there is ignored
        owner = parse_name("temperature.dr56._iot._udp")
        rr = ResourceRecord(owner, 0, txt_pair("humidity", ""), rclass=CLASS_NONE)
        serial, journal = fixture_zone.serial, fixture_zone.journal()
        reply = wire.decode(dispatch(wire.encode(update_msg([rr])), fixture_zone,
                                     ServerConfig(port=0), stream=False, source="127.0.0.1"))
        assert reply.rcode == RCODE_NOERROR
        assert fixture_zone.serial == serial and fixture_zone.journal() == journal

    def test_class_none_with_data_not_held_is_a_no_op(self, fixture_zone):
        # RFC 2136 §2.5.4: class NONE deletes only a record whose data matches
        owner = parse_name("temperature.dr56._iot._udp")
        rr = ResourceRecord(owner, 0, txt_pair("temperature", "99"), rclass=CLASS_NONE)
        serial, journal = fixture_zone.serial, fixture_zone.journal()
        before = fixture_zone.records_at(owner)
        assert admit(fixture_zone, update_msg([rr])).rcode == RCODE_NOERROR
        assert fixture_zone.serial == serial and fixture_zone.journal() == journal
        assert fixture_zone.records_at(owner) is before

    def test_class_none_deletes_exactly_the_matching_record(self, fixture_zone):
        owner = parse_name("temperature.dr56._iot._udp")
        held, other = (ResourceRecord(owner, 100, txt_pair("temperature", value))
                       for value in ("14", "15"))
        fixture_zone.add_record(other)  # two values for one key
        rr = ResourceRecord(owner, 0, txt_pair("temperature", "14"), rclass=CLASS_NONE)
        assert admit(fixture_zone, update_msg([rr])).rcode == RCODE_NOERROR
        assert fixture_zone.journal()[-1] == JournalEntry(7, (held,), ())
        assert fixture_zone.records_at(owner, TYPE_TXT) == (other,)

    def test_absent_delete_then_set_is_one_step(self, fixture_zone):
        owner = parse_name("temperature.dr56._iot._udp")
        serial = fixture_zone.serial
        updates = [client.txt_delete_record(owner, "humidity"),
                   ResourceRecord(owner, 100, txt_pair("temperature", "99"))]
        reply = wire.decode(dispatch(wire.encode(update_msg(updates)), fixture_zone,
                                     ServerConfig(port=0), stream=False, source="127.0.0.1"))
        assert reply.rcode == RCODE_NOERROR
        assert fixture_zone.serial == serial + 1
        assert [t.rdata.text for t in fixture_zone.records_at(owner, TYPE_TXT)] == [
            "temperature=99"]

    def test_one_update_is_one_serial_and_one_journal_entry(self, fixture_zone):
        # RFC 2136 §3.7: the zone changes once per UPDATE, whatever it carries
        owner = parse_name("temperature.dr56._iot._udp")
        reg = DeviceRegistration("pressure", "dr78", 9000, parse_name("dr78.unipr.it"))
        updates = [ResourceRecord(owner, 100, txt_pair("a", "1")),
                   ResourceRecord((REGISTER_LABEL,) + fixture_zone.service, 0,
                                  txt_pair("register", pack_registration(reg))),
                   ResourceRecord(owner, 100, txt_pair("b", "2"))]
        journal, config = fixture_zone.journal(), ServerConfig(port=0)
        reply = wire.decode(dispatch(wire.encode(update_msg(updates)), fixture_zone, config,
                                     stream=True, source="127.0.0.1"))
        assert reply.rcode == RCODE_NOERROR
        assert fixture_zone.serial == 6
        entry, = fixture_zone.journal()[len(journal):]
        assert entry.serial == 6 and entry.deletions == ()
        assert [r.rtype for r in entry.additions] == [TYPE_TXT, TYPE_SRV, TYPE_PTR, TYPE_TXT]
        ixfr = wire.decode(dispatch(wire.encode(ixfr_query(5)), fixture_zone, config,
                                    stream=True, source=None))
        serials = [r.rdata.serial for r in ixfr.answers if r.rtype == TYPE_SOA]
        assert serials == [6, 5, 6, 6]  # one step, 5 -> 6
        assert ixfr.answers[3:-1] == entry.additions

    def test_setting_the_value_held_takes_a_serial_and_an_empty_step(self, fixture_zone):
        owner = parse_name("temperature.dr56._iot._udp")
        same = ResourceRecord(owner, 100, txt_pair("temperature", "14"))
        records = fixture_zone.records()
        assert same in records
        reply = handle_update(update_msg([same]), fixture_zone, ServerConfig(port=0))
        assert reply.rcode == RCODE_NOERROR
        assert Counter(fixture_zone.records()) == Counter(records)
        assert fixture_zone.journal()[-1] == JournalEntry(6, (), ())

    def test_txt_set_twice_in_one_update_replays_after_a_restart(self, tmp_path):
        zone = build_fixture_zone()
        text = zone.export_master_file()
        owner = parse_name("temperature.dr56._iot._udp")
        updates = [ResourceRecord(owner, 100, txt_pair("temperature", "15")),
                   ResourceRecord(owner, 100, txt_pair("temperature", "16")),
                   ResourceRecord(owner, 100, txt_pair("a", "1")),
                   client.txt_delete_record(owner, "a")]
        journal = JournalFile(tmp_path / "journal.jsonl")
        journal.attach(zone)
        try:
            reply = handle_update(update_msg(updates), zone, ServerConfig(port=0))
        finally:
            journal.close()
        assert reply.rcode == RCODE_NOERROR
        entry, = journal.load()
        assert [r.rdata.text for r in entry.deletions] == ["temperature=14"]
        assert [r.rdata.text for r in entry.additions] == ["temperature=16"]
        reborn = Zone.from_master_file(text, policy=zone.policy)
        assert journal.attach(reborn) == 1
        assert reborn.serial == zone.serial == 6
        assert sorted(map(str, reborn.records())) == sorted(map(str, zone.records()))

    def test_size_guard_refused(self, fixture_zone):
        owner = parse_name("temperature.dr56._iot._udp")
        rr = ResourceRecord(owner, 100, txt_pair("blob", "x" * 2000))
        reply = handle_update(update_msg([rr]), fixture_zone, ServerConfig(port=0))
        assert reply.rcode == RCODE_REFUSED

    @pytest.mark.parametrize("reg", [
        DeviceRegistration("pressure", "dr78", 70000, parse_name("dr78.unipr.it")),
        DeviceRegistration("pressure", "dr78", 9000, parse_name("dr78.unipr.it"), ttl=-1),
        DeviceRegistration("pressure", "dr78", 9000, parse_name("dr78.unipr.it"), ttl=2**31),
        # 60 four-symbol labels: an owner name of over 300 wire bytes
        DeviceRegistration("pressure", "dr78" * 60, 9000, parse_name("dr78.unipr.it")),
        DeviceRegistration("p" * 64, "dr78", 9000, parse_name("dr78.unipr.it")),
        DeviceRegistration("café", "dr78", 9000, parse_name("dr78.unipr.it")),
    ], ids=["port-70000", "ttl-minus-1", "ttl-2^31", "owner-over-255-bytes",
            "label-over-63-bytes", "non-ascii-label"])
    def test_unencodable_registration_refused_and_zone_still_transfers(
            self, fixture_zone, reg):
        owner = (REGISTER_LABEL,) + fixture_zone.service
        rr = ResourceRecord(owner, 0, txt_pair("register", pack_registration(reg)))
        before = fixture_zone.serial
        config = ServerConfig(port=0)
        reply = wire.decode(dispatch(wire.encode(update_msg([rr])), fixture_zone, config,
                                     stream=True, source="127.0.0.1"))
        assert reply.rcode != RCODE_NOERROR
        assert fixture_zone.serial == before
        axfr = Message(id=2, questions=(Question((), TYPE_AXFR),))
        transfer = wire.decode(dispatch(wire.encode(axfr), fixture_zone, config,
                                        stream=True, source="127.0.0.1"))
        assert transfer.rcode == RCODE_NOERROR
        assert len(transfer.answers) == len(fixture_zone.records()) + 2

    def test_refused_update_applies_nothing(self, fixture_zone):
        # RFC 2136 §3.7: a TXT set before a refused registration is not kept
        owner = parse_name("temperature.dr56._iot._udp")
        reg = DeviceRegistration("pressure", "dr78", 70000, parse_name("dr78.unipr.it"))
        updates = [ResourceRecord(owner, 100, txt_pair("temperature", "99")),
                   ResourceRecord((REGISTER_LABEL,) + fixture_zone.service, 0,
                                  txt_pair("register", pack_registration(reg)))]
        txt, journal = fixture_zone.records_at(owner, TYPE_TXT), fixture_zone.journal()
        assert fixture_zone.serial == 5
        reply = wire.decode(dispatch(wire.encode(update_msg(updates)), fixture_zone,
                                     ServerConfig(port=0), stream=False, source="127.0.0.1"))
        assert reply.rcode == RCODE_REFUSED
        assert fixture_zone.records_at(owner, TYPE_TXT) == txt
        assert fixture_zone.serial == 5 and fixture_zone.journal() == journal

    def test_a_failed_journal_append_changes_nothing(self, tmp_path):
        # RFC 2136 §3.4.2: a failure in persistent storage undoes the update
        zone = build_fixture_zone()
        text, path = zone.export_master_file(), tmp_path / "journal.jsonl"
        journal = JournalFile(path)
        journal.attach(zone)
        append = zone.on_mutate

        def full_disk_once(entry):
            zone.on_mutate = append
            raise OSError(28, "No space left on device")

        zone.on_mutate = full_disk_once
        owner = parse_name("temperature.dr56._iot._udp")
        records, journal_before = zone.records(), zone.journal()
        try:
            for value, rcode in (("20", RCODE_SERVFAIL), ("21", RCODE_NOERROR)):
                update = update_msg([ResourceRecord(owner, 100, txt_pair("temperature", value))])
                reply = wire.decode(dispatch(wire.encode(update), zone, ServerConfig(port=0),
                                             stream=False, source="127.0.0.1"))
                assert reply.rcode == rcode
                if rcode == RCODE_SERVFAIL:
                    assert zone.records() == records and zone.serial == 5
                    assert zone.journal() == journal_before and not path.exists()
        finally:
            journal.close()
        assert zone.serial == 6
        assert [t.rdata.text for t in zone.records_at(owner, TYPE_TXT)] == ["temperature=21"]
        reborn = Zone.from_master_file(text, policy=zone.policy)
        assert JournalFile(path).attach(reborn) == 1
        assert reborn.serial == 6 and Counter(reborn.records()) == Counter(zone.records())

    def test_the_update_section_applies_in_order(self):
        # RFC 2136 §3.4.2: a registration placed by the len= records before it
        zone = Zone(policy=SplitPolicy("dynamic"))
        reg = DeviceRegistration("t", "dr56", 80, parse_name("h.example"))
        updates = [ResourceRecord(zone.service, 100, txt_pair("len", "2")),
                   ResourceRecord(("dr",) + zone.service, 100, txt_pair("len", "2")),
                   ResourceRecord((REGISTER_LABEL,) + zone.service, 0,
                                  txt_pair("register", pack_registration(reg)))]
        reply = admit(zone, update_msg(updates))
        assert reply.rcode == RCODE_NOERROR
        assert [txt_value(r.rdata) for r in reply.additional] == ["registered"]
        assert zone.records_at(parse_name("t.56.dr._iot._udp"), TYPE_SRV)
        assert zone.serial == 2 and len(zone.journal()) == 1

    def test_record_outside_the_zone_is_notzone(self):
        # RFC 2136 §3.4.1.3
        zone = Zone(origin=parse_name("example.org"))
        inside = ResourceRecord(parse_name("t.example.org"), 100, txt_pair("k", "v"))
        outside = ResourceRecord(parse_name("www.evil.com"), 100, txt_pair("k", "v"))
        msg = Message(id=1, opcode=OPCODE_UPDATE,
                      questions=(Question(zone.origin, TYPE_SOA),),
                      authority=(inside, outside))
        reply = wire.decode(dispatch(wire.encode(msg), zone, ServerConfig(port=0),
                                     stream=True, source="127.0.0.1"))
        assert reply.rcode == RCODE_NOTZONE
        assert zone.serial == 1 and zone.records() == []

    @pytest.mark.parametrize("text", ["=x", "novalue"])
    def test_txt_without_a_key_refused(self, fixture_zone, caplog, text):
        owner = parse_name("temperature.dr56._iot._udp")
        rr = ResourceRecord(owner, 100, make_txt(text))
        reply = wire.decode(dispatch(wire.encode(update_msg([rr])), fixture_zone,
                                     ServerConfig(port=0), stream=False, source="127.0.0.1"))
        assert reply.rcode == RCODE_REFUSED
        assert fixture_zone.serial == 5
        assert "failed UPDATE" not in caplog.text


RESTART_OWNERS = [parse_name(n) for n in (
    "temperature.dr56._iot._udp", "humidity.dr12._iot._udp", "co2.dr78._iot._udp")]
update_records = st.one_of(
    st.builds(lambda owner, key, value: ResourceRecord(owner, 100, txt_pair(key, value)),
              st.sampled_from(RESTART_OWNERS), st.sampled_from("ab"), st.sampled_from("012")),
    st.builds(client.txt_delete_record, st.sampled_from(RESTART_OWNERS), st.sampled_from("ab")),
    st.builds(lambda instance, ident: ResourceRecord(
                  (REGISTER_LABEL, "_iot", "_udp"), 0, txt_pair("register", pack_registration(
                      DeviceRegistration(instance, ident, 9000, parse_name(f"{ident}.unipr.it"))))),
              st.sampled_from(["co2", "temperature"]), st.sampled_from(["dr56", "dr78"])),
)


#: what becomes of an UPDATE sent to the restarting server: applied, refused
#: for an oversized TXT record placed among its records, or failed by a
#: journal append that stops halfway
FATES = ("applied", "refused", "append fails")


@settings(max_examples=60, deadline=None)
@given(history=st.lists(st.tuples(st.lists(update_records, min_size=1, max_size=4),
                                  st.sampled_from(FATES), st.integers(0, 4), st.booleans()),
                        max_size=8),
       retention=st.sampled_from([2, 1024]))
def test_restarts_anywhere_in_an_update_history_change_nothing(history, retention):
    """UPDATEs of one to four records, with a restart from the master file
    and the journal file after any of them: the zone, its serial and the
    IXFR from every serial match a server that never restarted and never
    received the UPDATEs that were refused or failed to persist."""
    text = build_fixture_zone().export_master_file()
    policy, config = SplitPolicy("static", 4), ServerConfig(port=0)
    live = Zone.from_master_file(text, policy=policy, journal_retention=retention)
    oversized = ResourceRecord(RESTART_OWNERS[0], 100, txt_pair("blob", "x" * 2000))
    with tempfile.TemporaryDirectory() as tmp:
        journal = JournalFile(os.path.join(tmp, "journal.jsonl"))

        def restart():
            journal.close()
            zone = Zone.from_master_file(text, policy=policy, journal_retention=retention)
            journal.attach(zone)
            return zone

        zone = restart()
        try:
            for updates, fate, at, then_restart in history:
                if fate == "refused":
                    msg = update_msg(updates[:at] + [oversized] + updates[at:])
                    assert handle_update(msg, zone, config).rcode == RCODE_REFUSED
                else:
                    msg = update_msg(updates)
                    if fate == "append fails":
                        journal._fh = HalfWrites(journal._fh or open(journal.path, "ab", 0))
                    try:
                        reply = handle_update(msg, zone, config)
                    except OSError:
                        reply = None  # a write that did not persist: answered SERVFAIL
                    finally:
                        if isinstance(journal._fh, HalfWrites):
                            journal._fh = journal._fh.fh
                    if reply is not None:
                        assert reply == handle_update(msg, live, config)
                if then_restart:
                    zone = restart()
            zone = restart()  # the journal file holds what was answered, no more
        finally:
            journal.close()
    assert zone.serial == live.serial
    assert Counter(zone.records()) == Counter(live.records())
    assert zone.journal() == live.journal()
    oldest = live.journal()[0].serial - 1 if live.journal() else live.serial
    for serial in range(oldest - 1, live.serial + 1):  # and one the journal no longer holds
        assert zone.ixfr_diff(serial) == live.ixfr_diff(serial)


class TestDispatch:
    def test_garbage_is_formerr(self, fixture_zone):
        reply = wire.decode(dispatch(
            b"\x12\x34nonsense", fixture_zone, ServerConfig(port=0),
            stream=False, source=None))
        assert reply.rcode == RCODE_FORMERR and reply.id == 0x1234

    @pytest.mark.parametrize("stream", [False, True], ids=["udp", "tcp"])
    def test_a_response_is_dropped_unread(self, fixture_zone, monkeypatch, stream):
        data = wire.encode(Message(id=7, qr=True, questions=(
            Question(parse_name("temperature.dr56._iot._udp"), TYPE_SRV),)))

        def boom(*args):
            raise AssertionError("a response must not be decoded")
        monkeypatch.setattr(wire, "decode", boom)
        cache = None if stream else {}
        assert dispatch(data, fixture_zone, ServerConfig(port=0),
                        stream=stream, source=None, cache=cache) == b""
        assert not cache

    def test_datagram_cap_sets_tc(self, fixture_zone):
        for i in range(80):
            fixture_zone.register_device(DeviceRegistration(
                f"dev{i}", f"dr{i:02d}", 8080, parse_name(f"h{i}.example")))
        q = wire.encode(Message(id=5, questions=(
            Question(parse_name("_dr._iot._udp"), TYPE_PTR),)))
        udp = wire.decode(dispatch(q, fixture_zone, ServerConfig(port=0),
                                   stream=False, source=None))
        assert udp.tc and not udp.answers
        tcp = wire.decode(dispatch(q, fixture_zone, ServerConfig(port=0),
                                   stream=True, source=None))
        assert not tcp.tc and len(tcp.answers) >= 80


    @pytest.mark.parametrize("stream", [False, True], ids=["udp", "tcp"])
    def test_admission_table(self, stream):
        """One precedence for every opcode, question count, name and
        qtype: NOTIMP, then FORMERR, then REFUSED; transfers included.
        An UPDATE's zone section then names the zone's SOA: FORMERR for
        another type, NOTAUTH for another name (RFC 2136 §3.1.1)."""
        zone = Zone(origin=("example",))
        zone.add_record(ResourceRecord(("h", "example"), 100, A("10.0.0.1")))
        names = {"inside": ("example",), "below": ("h", "example"),
                 "outside": ("other", "org"), "root": ()}
        qtypes = (TYPE_A, TYPE_PTR, TYPE_AXFR, TYPE_IXFR, TYPE_SOA)
        cache, serial = None if stream else {}, zone.serial
        for opcode, count, where, qtype in itertools.product(
                (0, 2, 4, OPCODE_UPDATE), (0, 1, 2), names, qtypes):
            authority = ()
            if opcode == 0 and qtype == TYPE_IXFR:  # the serial the client holds
                authority = (zone.soa_record(),)
            msg = Message(id=7, opcode=opcode, authority=authority,
                          questions=(Question(names[where], qtype),) * count)
            if opcode not in (0, OPCODE_UPDATE):
                expected = RCODE_NOTIMP
            elif count != 1:
                expected = RCODE_FORMERR
            elif where not in ("inside", "below"):
                expected = RCODE_REFUSED
            elif opcode == OPCODE_UPDATE and qtype != TYPE_SOA:
                expected = RCODE_FORMERR
            elif opcode == OPCODE_UPDATE and where != "inside":
                expected = RCODE_NOTAUTH
            elif opcode == 0 and qtype == TYPE_AXFR and not stream:
                expected = RCODE_REFUSED  # a full transfer needs a stream
            else:
                expected = RCODE_NOERROR
            reply = admit(zone, msg, stream, cache)
            assert (reply.rcode, reply.id) == (expected, 7), (opcode, count, where, qtype)
        assert zone.serial == serial

    def test_cname_loop_answers_ptr_as_other_types(self, caplog):
        zone = Zone()
        a, b = parse_name("a._iot._udp"), parse_name("b._iot._udp")
        zone.add_record(ResourceRecord(a, 100, CNAME(b)))
        zone.add_record(ResourceRecord(b, 100, CNAME(a)))
        replies = {}
        for qtype in (TYPE_SRV, TYPE_PTR):
            q = wire.encode(Message(id=9, questions=(Question(a, qtype),)))
            replies[qtype] = wire.decode(dispatch(q, zone, ServerConfig(port=0),
                                                  stream=False, source=None))
        srv, ptr = replies[TYPE_SRV], replies[TYPE_PTR]
        assert srv.rcode == ptr.rcode == RCODE_NOERROR
        assert len(srv.answers) == 8 and ptr.answers == srv.answers
        assert not [r for r in caplog.records if r.exc_info]

    def test_query_with_tc_set_gets_a_complete_reply_without_tc(self, fixture_zone):
        q = wire.encode(Message(id=7, tc=True, questions=(
            Question(parse_name("temperature.dr56._iot._udp"), TYPE_SRV),)))
        reply = wire.decode(dispatch(q, fixture_zone, ServerConfig(port=0),
                                     stream=False, source=None))
        assert reply.rcode == RCODE_NOERROR and len(reply.answers) == 1
        assert not reply.tc

    def test_non_ascii_label_is_formerr(self, fixture_zone):
        q = bytearray(wire.encode(Message(id=0x4242, questions=(
            Question(parse_name("temperature.dr56._iot._udp"), TYPE_SRV),))))
        q[13] = 0xE9  # a byte of the first label
        reply = wire.decode(dispatch(bytes(q), fixture_zone, ServerConfig(port=0),
                                     stream=False, source=None))
        assert reply.rcode == RCODE_FORMERR and reply.id == 0x4242

    def test_stream_answer_over_one_message_is_servfail(self, large_zone):
        q = wire.encode(Message(id=9, questions=(Question((), TYPE_AXFR),)))
        reply = wire.decode(dispatch(q, large_zone, ServerConfig(port=0),
                                     stream=True, source=None))
        assert reply.rcode == RCODE_SERVFAIL and reply.id == 9 and not reply.answers

    @pytest.mark.parametrize("stream", [False, True], ids=["udp", "tcp"])
    def test_unencodable_answer_is_servfail(self, fixture_zone, monkeypatch, stream):
        def flood(msg, zone):  # more answers than ANCOUNT can count
            return msg.reply(answers=(ResourceRecord(("a",), 60, A("1.2.3.4")),) * 65536)
        monkeypatch.setattr(server_module, "answer_query", flood)
        q = wire.encode(Message(id=0x5151, questions=(Question(("a",), TYPE_A),)))
        reply = wire.decode(dispatch(q, fixture_zone, ServerConfig(port=0),
                                     stream=stream, source=None))
        assert reply.rcode == RCODE_SERVFAIL and reply.id == 0x5151 and not reply.answers


def udp_query(name, qtype, msg_id=1, rd=False):
    return wire.encode(Message(id=msg_id, rd=rd, questions=(Question(name, qtype),)))


def uncached(data, zone):
    return dispatch(data, zone, ServerConfig(port=0), stream=False, source="127.0.0.1")


def cached(data, zone, cache):
    return dispatch(data, zone, ServerConfig(port=0), stream=False, source="127.0.0.1",
                    cache=cache)


class TestReplyCache:
    OWNER = parse_name("temperature.dr56._iot._udp")

    def test_hit_skips_decode_answer_and_encode(self, fixture_zone, monkeypatch):
        cache = {}
        first = cached(udp_query(self.OWNER, TYPE_SRV, 1), fixture_zone, cache)
        assert len(cache) == 1
        data = udp_query(self.OWNER, TYPE_SRV, 0xBEEF)

        def boom(*args):
            raise AssertionError("a hit must not reach the codec or the answer")
        for module, name in ((wire, "decode"), (wire, "encode"),
                             (server_module, "answer_query")):
            monkeypatch.setattr(module, name, boom)
        again = cached(data, fixture_zone, cache)
        assert again == b"\xbe\xef" + first[2:]

    def test_change_at_the_owner_is_a_miss(self, fixture_zone):
        cache = {}
        data = udp_query(self.OWNER, TYPE_TXT)
        cached(data, fixture_zone, cache)
        fixture_zone.update_txt(self.OWNER, "temperature", "15")
        reply = wire.decode(cached(data, fixture_zone, cache))
        assert [r.rdata.text for r in reply.answers] == ["temperature=15"]
        assert cached(data, fixture_zone, cache) == uncached(data, fixture_zone)

    @pytest.mark.parametrize("name, qtype", [
        ("temperature.dr56._iot._udp", TYPE_ANY),
        ("_dr._iot._udp", TYPE_PTR),
        ("dr56._iot._udp", TYPE_PTR),
        (".", TYPE_SOA),
        ("nothing.dr56._iot._udp", TYPE_SRV),  # NXDOMAIN
        ("_iot._udp", TYPE_SRV),  # an empty non-terminal
        ("temperature.dr56._iot._udp", TYPE_AXFR),
    ])
    def test_replies_that_read_more_than_the_owner_are_not_stored(
            self, fixture_zone, name, qtype):
        cache = {}
        cached(udp_query(parse_name(name), qtype), fixture_zone, cache)
        assert cache == {}

    def test_oversize_owner_gets_the_empty_tc_reply_and_is_not_stored(self, fixture_zone):
        big = parse_name("big.dr56._iot._udp")
        for i in range(20):
            fixture_zone.add_record(ResourceRecord(big, 100, make_txt(f"k{i}=" + "x" * 80)))
        cache = {}
        data = udp_query(big, TYPE_TXT)
        reply = cached(data, fixture_zone, cache)
        assert reply == uncached(data, fixture_zone)
        decoded = wire.decode(reply)
        assert decoded.tc and not decoded.answers
        assert cache == {}

    def test_cname_owner_is_not_stored(self, fixture_zone):
        alias, target = parse_name("alias.unipr.it"), parse_name("dr56.unipr.it")
        fixture_zone.add_record(ResourceRecord(alias, 100, CNAME(target)))
        cache = {}
        data = udp_query(alias, TYPE_A)
        first = wire.decode(cached(data, fixture_zone, cache))
        assert [r.rtype for r in first.answers] == [TYPE_CNAME, TYPE_A]
        # a change at the target shows at once through the alias
        fixture_zone.add_record(ResourceRecord(target, 100, A("160.78.28.204")))
        second = wire.decode(cached(data, fixture_zone, cache))
        assert len(second.answers) == 3
        assert alias not in [entry[0][0].owner for entry in cache.values()]

    def test_cache_never_grows_past_its_cap(self, fixture_zone):
        cache = {}
        # each query type is a distinct key, and each reply is a cacheable empty NOERROR
        qtypes = range(1000, 1000 + server_module.REPLY_CACHE_SIZE + 10)
        for qtype in qtypes:
            cached(udp_query(self.OWNER, qtype), fixture_zone, cache)
            assert len(cache) <= server_module.REPLY_CACHE_SIZE
        assert len(cache) == server_module.REPLY_CACHE_SIZE
        # the oldest went first
        assert udp_query(self.OWNER, qtypes[9])[2:] not in cache
        assert udp_query(self.OWNER, qtypes[10])[2:] in cache

    def test_tcp_never_reads_the_cache(self, serve):
        srv = serve()
        data = udp_query(self.OWNER, TYPE_TXT, msg_id=0x0102)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp:
            udp.settimeout(5)
            udp.sendto(data, ("127.0.0.1", srv.port))
            good = udp.recv(65535)
            # a poisoned entry shows on the datagram path and nowhere else
            (here, _), = srv._replies.values()
            srv._replies[data[2:]] = (here, b"poison")
            udp.sendto(data, ("127.0.0.1", srv.port))
            assert udp.recv(65535) == b"\x01\x02poison"
        with tcp_connect(srv.port) as sock:
            sock.sendall(struct.pack("!H", len(data)) + data)
            (length,) = struct.unpack("!H", client._recv_exact(sock, 2))
            assert client._recv_exact(sock, length) == good

    def test_datagram_replies_equal_uncached_dispatch(self, serve):
        """Random UPDATEs between random datagram queries: every reply is,
        byte for byte, what dispatch without the cache gives on the zone."""
        rng = random.Random(20261019)
        srv = serve()
        zone, port = srv.zone, srv.port
        owners = [parse_name(n) for n in (
            "temperature.dr56._iot._udp", "humidity.dr12._iot._udp",
            "temperature.dr34._iot._udp")]
        names = owners + [parse_name(n) for n in (
            "dr56.unipr.it", "_dr._iot._udp", "dr56._iot._udp", "nothing.dr56._iot._udp",
            "co2.dr77._iot._udp")]
        qtypes = (TYPE_SRV, TYPE_TXT, TYPE_TXT, TYPE_A, TYPE_PTR, TYPE_ANY, TYPE_SOA)
        answered = []
        real_answer = server_module.answer_query

        def counting(msg, zone):
            if threading.current_thread().name == "semdns-server":
                answered.append(msg.id)
            return real_answer(msg, zone)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(server_module, "answer_query", counting)
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp:
                udp.settimeout(5)
                queries = 0
                for _ in range(600):
                    roll = rng.random()
                    if roll < 0.12:
                        owner = rng.choice(owners)
                        client.send_update("127.0.0.1", port, (), [client.txt_update_record(
                            owner, rng.choice("ab"), str(rng.randrange(5)), 100)])
                    elif roll < 0.18:
                        client.send_update("127.0.0.1", port, (), [client.txt_delete_record(
                            rng.choice(owners), rng.choice("ab"))])
                    elif roll < 0.21:
                        ident = "dr%02d" % rng.randrange(70, 80)
                        client.register_device("127.0.0.1", port, (), ("_iot", "_udp"),
                                               DeviceRegistration(
                                                   "co2", ident, rng.randrange(1024, 2048),
                                                   parse_name(f"{ident}.unipr.it")))
                    else:
                        name = rng.choice(names)
                        if rng.random() < 0.3:
                            name = tuple(l.upper() for l in name)
                        data = udp_query(name, rng.choice(qtypes), rng.randrange(1 << 16),
                                         rd=rng.random() < 0.5)
                        udp.sendto(data, ("127.0.0.1", port))
                        assert udp.recv(65535) == uncached(data, zone), wire.decode(data)
                        queries += 1
        # many datagrams were answered from the cache, not all of them
        assert queries / 10 < queries - len(answered) < queries
        assert 0 < len(srv._replies) <= server_module.REPLY_CACHE_SIZE


class TestQuestionCase:
    """DNS 0x20: a reply echoes the question in the letter case of the
    query, so the client's byte match (``client._answers``) accepts it."""

    NAME = ("TEMPERATURE", "Dr56", "_IOT", "_udp")

    def test_udp(self, serve):
        srv = serve()
        reply = client.query("127.0.0.1", srv.port, self.NAME, TYPE_SRV, timeout=2)
        assert [r.rdata.port for r in reply.answers] == [8080]
        data = udp_query(self.NAME, TYPE_SRV, msg_id=7)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp:
            udp.settimeout(5)
            udp.sendto(data, ("127.0.0.1", srv.port))
            assert client._answers(data, udp.recv(65535))

    def test_tcp(self, serve):
        srv = serve()
        msg = Message(id=9, questions=(Question(self.NAME, TYPE_SRV),))
        reply = client.exchange(msg, "127.0.0.1", srv.port, tcp=True)
        assert [r.rdata.port for r in reply.answers] == [8080]
        data = wire.encode(msg)
        with tcp_connect(srv.port) as sock:
            sock.sendall(struct.pack("!H", len(data)) + data)
            (length,) = struct.unpack("!H", client._recv_exact(sock, 2))
            assert client._answers(data, client._recv_exact(sock, length))

    def test_reply_cache_hit(self, fixture_zone):
        cache = {}
        first = udp_query(self.NAME, TYPE_SRV, msg_id=1)
        assert client._answers(first, cached(first, fixture_zone, cache))
        assert len(cache) == 1
        again = udp_query(self.NAME, TYPE_SRV, msg_id=2)
        assert client._answers(again, cached(again, fixture_zone, cache))
        # another spelling is the same entry, answered in its own case
        lower = udp_query(tuple(label.lower() for label in self.NAME), TYPE_SRV, msg_id=3)
        assert client._answers(lower, cached(lower, fixture_zone, cache))
        assert len(cache) == 1

    def test_random_case_queries_share_one_entry(self, fixture_zone, monkeypatch):
        answered = []
        real_answer = server_module.answer_query
        monkeypatch.setattr(server_module, "answer_query",
                            lambda msg, zone: answered.append(msg.id) or real_answer(msg, zone))
        rng = random.Random(20)
        name = parse_name("temperature.dr56._iot._udp")
        cache, hits = {}, 0
        for msg_id in range(1000):
            spelled = tuple("".join(rng.choice((c.lower(), c.upper())) for c in label)
                            for label in name)
            data = udp_query(spelled, TYPE_SRV, msg_id)
            expected = uncached(data, fixture_zone)
            answered.clear()
            reply = cached(data, fixture_zone, cache)
            hits += not answered
            assert reply == expected and client._answers(data, reply)
        assert hits >= 999 and len(cache) == 1

    def test_qtype_bytes_are_not_case_folded(self, fixture_zone):
        # qtype 65 is the byte 0x41, "A"; folded it would read 97, "a"
        cache = {}
        for qtype in (65, 97):
            data = udp_query(("temperature", "dr56", "_iot", "_udp"), qtype)
            assert wire.decode(cached(data, fixture_zone, cache)).questions[0].qtype == qtype
        assert len(cache) == 2

    @pytest.mark.parametrize("data", [
        bytes.fromhex("0141 0000 0001 0000 0000 0000 c000 0001 0001"),  # a pointer
        bytes.fromhex("0141 0000 0001 0000 0000 0000 0574 656d"),       # cut short
        bytes.fromhex("0141 0000 0001"),                                 # no question
    ], ids=["pointer", "cut-short", "header-only"])
    def test_a_question_that_cannot_be_walked_is_a_miss(self, fixture_zone, data):
        # the pointer spells "a." from the header, so its reply would be cacheable
        fixture_zone.add_record(ResourceRecord(("a",), 100, A("10.0.0.1")))
        cache = {}
        for _ in range(2):
            assert cached(data, fixture_zone, cache) == uncached(data, fixture_zone)
        assert cache == {}

    def test_truncated_and_failed_replies_echo_too(self, fixture_zone, monkeypatch):
        big = ("BIG", "Dr56", "_iot", "_udp")
        for i in range(20):
            fixture_zone.add_record(
                ResourceRecord(parse_name("big.dr56._iot._udp"), 100, make_txt(f"k{i}=" + "x" * 80)))
        data = udp_query(big, TYPE_TXT)
        reply = uncached(data, fixture_zone)
        assert wire.decode(reply).tc and client._answers(data, reply)

        def boom(*args):
            raise RuntimeError("answer failed")
        monkeypatch.setattr(server_module, "answer_query", boom)
        data = udp_query(self.NAME, TYPE_SRV)
        reply = uncached(data, fixture_zone)
        assert wire.decode(reply).rcode == RCODE_SERVFAIL and client._answers(data, reply)

    def test_a_compressed_question_section_is_left_alone(self, fixture_zone):
        data = wire.encode(Message(id=3, questions=(
            Question(self.NAME, TYPE_SRV), Question(self.NAME, TYPE_TXT))))
        assert b"\xc0\x0c" in data  # the second name points to the first
        reply = uncached(data, fixture_zone)
        assert wire.decode(reply).rcode == RCODE_FORMERR
        assert reply[12:] == data[12:].lower()


    def test_a_name_pointing_into_the_header_is_left_alone(self, fixture_zone):
        # the id's bytes 0x01 'A' and the zero flags spell the name "A."
        data = bytes.fromhex("0141 0000 0001 0000 0000 0000 c000 0021 0001")
        assert wire.decode(data).questions == (Question(("a",), TYPE_SRV),)
        reply = wire.decode(uncached(data, fixture_zone))
        assert reply.id == 0x0141 and reply.questions == (Question(("a",), TYPE_SRV),)


PROPERTY_ZONE = build_fixture_zone()
SRV_QUERY = wire.encode(Message(id=0x1234, questions=(
    Question(parse_name("temperature.dr56._iot._udp"), TYPE_SRV),)))


@st.composite
def damaged_queries(draw):
    """A valid SRV query with one to four bytes replaced."""
    data = bytearray(SRV_QUERY)
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.binary(min_size=2, max_size=200), damaged_queries()), st.booleans())
def test_dispatch_always_replies_with_the_query_id(data, stream):
    """Any bytes get a reply with their id, but a response (QR set): that
    one is dropped, and its result is empty."""
    payload = dispatch(data, PROPERTY_ZONE, ServerConfig(port=0), stream=stream, source=None)
    if len(data) > 2 and data[2] & 0x80:
        assert payload == b""
        return
    reply = wire.decode(payload)
    assert reply.id == int.from_bytes(data[:2], "big")


class TestLiveServer:
    def test_query_over_sockets(self, running_server):
        host, port, _ = running_server
        reply = client.query(host, port, parse_name("dr56.unipr.it"), TYPE_A)
        assert [r.rdata.address for r in reply.answers] == ["160.78.28.203"]

    def test_truncation_retry_over_tcp(self, running_server):
        host, port, zone = running_server
        for i in range(80):
            zone.register_device(DeviceRegistration(
                f"dev{i}", f"dr{i:02d}", 8080, parse_name(f"h{i}.example")))
        reply = client.query(host, port, parse_name("_dr._iot._udp"), TYPE_PTR)
        assert len(reply.answers) >= 80  # client silently retried on stream

    def test_update_then_query_and_ixfr(self, running_server):
        host, port, zone = running_server
        start = zone.serial
        owner = parse_name("temperature.dr56._iot._udp")
        reply = client.send_update(
            host, port, (), [client.txt_update_record(owner, "temperature", "15", 100)])
        assert reply.rcode == RCODE_NOERROR
        reply = client.query(host, port, owner, TYPE_TXT)
        assert [r.rdata.text for r in reply.answers] == ["temperature=15"]
        reply = client.ixfr(host, port, (), start)
        texts = [r.rdata.text for r in reply.answers if r.rtype == TYPE_TXT]
        assert texts == ["temperature=14", "temperature=15"]

    def test_delete_txt_over_update(self, running_server):
        host, port, _ = running_server
        owner = parse_name("temperature.dr56._iot._udp")
        reply = client.send_update(
            host, port, (), [client.txt_delete_record(owner, "temperature")])
        assert reply.rcode == RCODE_NOERROR
        reply = client.query(host, port, owner, TYPE_TXT)
        assert reply.answers == ()

    def test_register_device_over_sockets(self, running_server):
        host, port, _ = running_server
        reg = DeviceRegistration("co2", "dr90", 7000, parse_name("dr90.unipr.it"),
                                 txt=(("co2", "412"),))
        reply = client.register_device(host, port, (), ("_iot", "_udp"), reg)
        assert reply.rcode == RCODE_NOERROR
        got = client.query(host, port, parse_name("co2.dr90._iot._udp"), TYPE_ANY)
        kinds = {type(r.rdata).__name__ for r in got.answers}
        assert kinds == {"SRV", "TXT"}

    def test_axfr_over_sockets(self, running_server):
        host, port, zone = running_server
        reply = client.axfr(host, port, ())
        assert reply.answers[0].rtype == TYPE_SOA
        assert len(reply.answers) == len(zone.records()) + 2

    def test_restart_preserves_ixfr_history(self, tmp_path):
        zone = build_fixture_zone()
        config = ServerConfig(port=0, journal_file=str(tmp_path / "journal.jsonl"))
        server = DnsServer(zone, config)
        server.start()
        host, port = "127.0.0.1", server.port
        owner = parse_name("temperature.dr56._iot._udp")
        start = zone.serial
        client.send_update(host, port, (),
                           [client.txt_update_record(owner, "temperature", "15", 100)])
        text = zone.export_master_file()
        server.shutdown()

        reborn = Zone.from_master_file(text, policy=zone.policy)
        server2 = DnsServer(reborn, config)
        server2.start()
        try:
            reply = client.ixfr(host, server2.port, (), start)
            texts = [r.rdata.text for r in reply.answers if r.rtype == TYPE_TXT]
            assert texts == ["temperature=14", "temperature=15"]
        finally:
            server2.shutdown()


    def test_restart_replays_the_journal(self, tmp_path):
        # a master file at serial 1, and one TXT set before each of two restarts
        first = Zone(serial=0)
        first.register_device(DeviceRegistration(
            "temperature", "dr56", 8080, parse_name("dr56.unipr.it")))
        text = first.export_master_file()
        path = tmp_path / "journal.jsonl"
        owner = parse_name("temperature.dr56._iot._udp")
        seen = []
        for value in ("1", "2"):
            zone = Zone.from_master_file(text, policy=first.policy)
            server = DnsServer(zone, ServerConfig(port=0, journal_file=str(path)))
            server.start()
            try:
                reply = client.send_update("127.0.0.1", server.port, (),
                                           [client.txt_update_record(owner, "a", value, 100)])
                assert reply.rcode == RCODE_NOERROR
                soa = client.query("127.0.0.1", server.port, (), TYPE_SOA).answers[0]
                txt = client.query("127.0.0.1", server.port, owner, TYPE_TXT).answers
                seen.append((soa.rdata.serial, [r.rdata.text for r in txt]))
            finally:
                server.shutdown()
        assert seen == [(2, ["a=1"]), (3, ["a=2"])]
        assert [e.serial for e in JournalFile(path).load()] == [2, 3]

    def test_journal_readable_before_shutdown(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        zone = build_fixture_zone()
        server = DnsServer(zone, ServerConfig(port=0, journal_file=str(path)))
        server.start()
        owner = parse_name("temperature.dr56._iot._udp")
        try:
            for i in range(5):
                client.send_update("127.0.0.1", server.port, (),
                                   [client.txt_update_record(owner, "temperature", str(i), 100)])
                # a second reader sees every entry as soon as the UPDATE is answered
                assert JournalFile(path).load() == zone.journal()[-(i + 1):]
        finally:
            server.shutdown()
        assert server._journal_file._fh is None


@pytest.fixture
def serve(monkeypatch):
    """Start a server on the fixture zone; DnsServer constants may be patched first."""
    servers = []

    def start(zone=None, **constants):
        for name, value in constants.items():
            monkeypatch.setattr(DnsServer, name, value)
        srv = DnsServer(zone or build_fixture_zone(), ServerConfig(port=0))
        srv.start()
        servers.append(srv)
        return srv

    yield start
    for srv in servers:
        srv.shutdown()


def tcp_connect(port):
    return socket.create_connection(("127.0.0.1", port), timeout=5)


def frame(msg):
    payload = wire.encode(msg)
    return struct.pack("!H", len(payload)) + payload


def read_message(sock):
    (length,) = struct.unpack("!H", client._recv_exact(sock, 2))
    return wire.decode(client._recv_exact(sock, length))


A_QUERY = Question(parse_name("dr56.unipr.it"), TYPE_A)


class TestTransport:
    def test_udp_queries_start_no_threads(self, serve):
        srv = serve()
        before = threading.active_count()
        counts = set()
        for _ in range(500):
            reply = client.query("127.0.0.1", srv.port, A_QUERY.qname, TYPE_A)
            assert reply.answers
            counts.add(threading.active_count())
        assert counts == {before}

    def test_pipelined_queries_answered_in_order(self, serve):
        srv = serve()
        with tcp_connect(srv.port) as sock:
            sock.sendall(frame(Message(id=1, questions=(A_QUERY,)))
                         + frame(Message(id=2, questions=(
                             Question(parse_name("temperature.dr56._iot._udp"), TYPE_TXT),))))
            first, second = read_message(sock), read_message(sock)
        assert (first.id, second.id) == (1, 2)
        assert first.answers[0].rdata.address == "160.78.28.203"
        assert second.answers[0].rdata.text == "temperature=14"

    def test_a_response_gets_no_datagram(self, serve):
        srv = serve()
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp:
            udp.settimeout(5)
            udp.sendto(wire.encode(Message(id=1, qr=True, questions=(A_QUERY,))),
                       ("127.0.0.1", srv.port))
            udp.sendto(wire.encode(Message(id=2, questions=(A_QUERY,))), ("127.0.0.1", srv.port))
            # datagrams are answered in order: a reply to the first would come first
            assert wire.decode(udp.recv(2048)).id == 2

    def test_a_response_gets_nothing_and_the_stream_stays_open(self, serve):
        srv = serve()
        with tcp_connect(srv.port) as sock:
            sock.sendall(frame(Message(id=1, qr=True, questions=(A_QUERY,)))
                         + frame(Message(id=2, questions=(A_QUERY,))))
            assert read_message(sock).id == 2
            sock.sendall(frame(Message(id=3, questions=(A_QUERY,))))
            assert read_message(sock).id == 3

    def test_half_closed_peer_still_answered(self, serve):
        srv = serve()
        with tcp_connect(srv.port) as sock:
            sock.sendall(frame(Message(id=3, questions=(A_QUERY,))))
            sock.shutdown(socket.SHUT_WR)
            assert read_message(sock).id == 3
            assert sock.recv(1) == b""  # then the server closes

    def test_idle_peer_closed_after_timeout(self, serve):
        srv = serve(IDLE_TIMEOUT=0.2)
        with tcp_connect(srv.port) as sock:
            sock.sendall(b"\x00")  # half a length prefix, never finished
            t0 = time.monotonic()
            assert sock.recv(1) == b""
            assert time.monotonic() - t0 < 2

    def test_idle_peer_does_not_delay_udp(self, serve):
        srv = serve()
        with tcp_connect(srv.port) as sock:
            sock.sendall(b"\x00\x40partial")
            t0 = time.monotonic()
            for _ in range(20):
                assert client.query("127.0.0.1", srv.port, A_QUERY.qname, TYPE_A,
                                    timeout=2).answers
            assert time.monotonic() - t0 < 2

    def test_connection_cap_evicts_longest_idle(self, serve):
        srv = serve(MAX_CONNECTIONS=2)
        oldest, newer = tcp_connect(srv.port), tcp_connect(srv.port)
        with oldest, newer:
            newer.sendall(frame(Message(id=4, questions=(A_QUERY,))))
            assert read_message(newer).id == 4
            with tcp_connect(srv.port) as third:
                third.sendall(frame(Message(id=5, questions=(A_QUERY,))))
                assert read_message(third).id == 5
                assert oldest.recv(1) == b""
                newer.sendall(frame(Message(id=6, questions=(A_QUERY,))))
                assert read_message(newer).id == 6

    def test_pipelined_large_transfers_arrive_whole_and_in_order(self, serve):
        zone = Zone()
        for i in range(250):
            zone.register_device(DeviceRegistration(
                f"dev{i}", f"dr{i:03d}", 8080, parse_name(f"h{i}.example"),
                txt=(("data", "x" * 150),)))
        srv = serve(zone)
        count = 100
        with tcp_connect(srv.port) as sock:
            # every query goes out, and the sending side is shut, before any
            # reply is read, so the replies (about 6 MB) back up past the
            # socket buffers and must still drain after the peer's EOF
            sock.sendall(b"".join(frame(Message(id=i, questions=(Question((), TYPE_AXFR),)))
                                  for i in range(count)))
            sock.shutdown(socket.SHUT_WR)
            sizes = []
            for i in range(count):
                (length,) = struct.unpack("!H", client._recv_exact(sock, 2))
                reply = wire.decode(client._recv_exact(sock, length))
                assert reply.id == i and reply.rcode == RCODE_NOERROR
                assert len(reply.answers) == len(zone.records()) + 2
                sizes.append(length)
            assert sock.recv(1) == b""
        assert min(sizes) > 50_000

    def test_axfr_over_one_message_is_servfail(self, serve, large_zone):
        srv = serve(large_zone)
        reply = client.axfr("127.0.0.1", srv.port, ())
        assert reply.rcode == RCODE_SERVFAIL and not reply.answers

    def test_failing_callback_does_not_stop_the_server(self, serve, monkeypatch):
        srv = serve()
        original = server_module.dispatch
        failures = iter([True])

        def flaky(*args, **kwargs):
            if next(failures, False):
                raise RuntimeError("injected")
            return original(*args, **kwargs)
        monkeypatch.setattr(server_module, "dispatch", flaky)
        with pytest.raises(client.ClientError):
            client.query("127.0.0.1", srv.port, A_QUERY.qname, TYPE_A, timeout=0.5)
        assert client.query("127.0.0.1", srv.port, A_QUERY.qname, TYPE_A).answers

    def test_concurrent_clients(self, serve):
        srv = serve()
        errors = []

        def worker(n):
            try:
                for i in range(40):
                    msg = Message(id=(n << 8) | i, questions=(A_QUERY,))
                    reply = client.exchange(msg, "127.0.0.1", srv.port, tcp=bool(i % 2))
                    if reply.id != msg.id or reply.answers[0].rdata.address != "160.78.28.203":
                        errors.append(reply)
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


TXT_OWNER = parse_name("temperature.dr56._iot._udp")


def set_temperature(port, value, **kwargs):
    reply = client.send_update("127.0.0.1", port, (), [
        client.txt_update_record(TXT_OWNER, "temperature", str(value), 100)], **kwargs)
    assert reply.rcode == RCODE_NOERROR
    return reply


def kept_connection(port):
    """The client's idle connection, which must be to ``port``."""
    addr, sock = client._idle
    assert addr == ("127.0.0.1", port)
    return sock


def reused_connection(port):
    """Two UPDATEs over one kept connection, which is returned."""
    set_temperature(port, 1)
    sock = kept_connection(port)
    set_temperature(port, 2)
    assert kept_connection(port) is sock
    return sock


def wait_until_closed_by_server(sock):
    """Block until the peer's FIN is readable on ``sock``."""
    assert select.select([sock], [], [], 5)[0]
    assert sock.recv(1, socket.MSG_PEEK) == b""


@pytest.fixture
def asks(monkeypatch):
    """Every socket ``client._ask`` sends a query on, in order."""
    sent = []
    real = client._ask

    def spy(sock, payload, timeout):
        sent.append(sock)
        return real(sock, payload, timeout)
    monkeypatch.setattr(client, "_ask", spy)
    return sent


class TestClientConnectionReuse:
    def test_updates_and_transfers_share_one_connection(self, serve):
        srv = serve()
        start = srv.zone.serial
        ports = set()
        for i in range(20):
            set_temperature(srv.port, i)
            ports.add(kept_connection(srv.port).getsockname()[1])
        reply = client.ixfr("127.0.0.1", srv.port, (), start)
        assert len([r for r in reply.answers if r.rtype == TYPE_TXT]) == 40
        ports.add(kept_connection(srv.port).getsockname()[1])
        reply = client.axfr("127.0.0.1", srv.port, ())
        assert len(reply.answers) == len(srv.zone.records()) + 2
        ports.add(kept_connection(srv.port).getsockname()[1])
        assert len(ports) == 1
        assert len(srv._conns) == 1
        (server_side,) = srv._conns
        assert server_side.getpeername()[1] in ports

    def check_next_update_after_close(self, srv, old, asks):
        """The server has closed ``old``, the kept connection: the next
        UPDATE sees that before sending, and is applied exactly once."""
        wait_until_closed_by_server(old)
        serial = srv.zone.serial
        set_temperature(srv.port, 99)
        assert srv.zone.serial == serial + 1
        assert len(asks) == 1 and asks[0] is not old
        assert old.fileno() == -1  # closed by the liveness check

    def test_update_after_idle_close(self, serve, asks):
        srv = serve(IDLE_TIMEOUT=0.2)
        old = reused_connection(srv.port)
        asks.clear()
        self.check_next_update_after_close(srv, old, asks)

    def test_update_after_eviction(self, serve, asks):
        srv = serve(MAX_CONNECTIONS=1)
        old = reused_connection(srv.port)
        with tcp_connect(srv.port) as other:
            other.sendall(frame(Message(id=8, questions=(A_QUERY,))))
            assert read_message(other).id == 8
            asks.clear()
            self.check_next_update_after_close(srv, old, asks)

    def test_update_after_restart_on_the_same_port(self, asks):
        zone = build_fixture_zone()
        srv = DnsServer(zone, ServerConfig(port=0))
        srv.start()
        try:
            old = reused_connection(srv.port)
        finally:
            srv.shutdown()
        reborn = DnsServer(zone, ServerConfig(port=srv.port))
        reborn.start()
        try:
            asks.clear()
            self.check_next_update_after_close(reborn, old, asks)
        finally:
            reborn.shutdown()


def returns_within(fn, seconds=5):
    t = threading.Thread(target=fn, daemon=True)
    t.start()
    t.join(timeout=seconds)
    return not t.is_alive()


class TestLifecycle:
    def test_shutdown_before_start_returns(self):
        srv = DnsServer(build_fixture_zone(), ServerConfig(port=0))
        assert returns_within(srv.shutdown)
        assert returns_within(srv.shutdown)

    def test_shutdown_twice_returns(self):
        srv = DnsServer(build_fixture_zone(), ServerConfig(port=0))
        srv.start()
        assert returns_within(srv.shutdown)
        assert returns_within(srv.shutdown)

    def test_port_zero_retries_when_tcp_port_is_taken(self, monkeypatch):
        real_bind = socket.socket.bind
        refused = []

        def bind(sock, addr):
            if sock.type == socket.SOCK_STREAM and not refused:
                refused.append(addr)
                raise OSError(errno.EADDRINUSE, "Address already in use")
            return real_bind(sock, addr)
        monkeypatch.setattr(socket.socket, "bind", bind)
        srv = DnsServer(build_fixture_zone(), ServerConfig(port=0))
        srv.start()
        try:
            assert refused
            assert client.query("127.0.0.1", srv.port, A_QUERY.qname, TYPE_A).answers
            assert client.axfr("127.0.0.1", srv.port, ()).answers
        finally:
            srv.shutdown()

    def test_port_zero_gives_up_with_the_last_error(self, monkeypatch):
        real_bind = socket.socket.bind

        def bind(sock, addr):
            if sock.type == socket.SOCK_STREAM:
                raise OSError(errno.EADDRINUSE, "Address already in use")
            return real_bind(sock, addr)
        monkeypatch.setattr(socket.socket, "bind", bind)
        with pytest.raises(OSError) as info:
            DnsServer(build_fixture_zone(), ServerConfig(port=0))
        assert info.value.errno == errno.EADDRINUSE
