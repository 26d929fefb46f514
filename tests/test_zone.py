import gc
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HalfWrites, build_fixture_zone
from semdns.bits import ALPHABET
from semdns.geo import GeoPoint, encode_geohash
from semdns.records import (
    A, CNAME, NS, PTR, RecordError, ResourceRecord, SRV, TXT,
    TYPE_CNAME, TYPE_NS, TYPE_PTR, TYPE_SRV, TYPE_TXT,
    parse_name,
)
from semdns.zone import (
    DeviceRegistration,
    JournalEntry,
    JournalFile,
    SizeGuardError,
    SplitPolicy,
    Zone,
    ZoneError,
    join_labels,
    journal_entry_from_json,
    journal_entry_to_json,
    serial_gt,
    split_labels,
    txt_key,
    txt_pair,
    txt_value,
)


class TestRegistration:
    def test_creates_srv_ptr(self, fixture_zone):
        owner = parse_name("temperature.dr56._iot._udp")
        srvs = fixture_zone.records_at(owner, TYPE_SRV)
        assert len(srvs) == 1
        assert srvs[0].rdata == SRV(10, 20, 8080, parse_name("dr56.unipr.it"))
        assert srvs[0].ttl == 100
        ptrs = fixture_zone.records_at(parse_name("dr56._iot._udp"), TYPE_PTR)
        assert [p.rdata.target for p in ptrs] == [owner]

    def test_txt_data_attached(self, fixture_zone):
        owner = parse_name("temperature.dr56._iot._udp")
        txts = fixture_zone.records_at(owner, TYPE_TXT)
        assert [t.rdata.text for t in txts] == ["temperature=14"]

    def test_reregistration_is_noop(self, fixture_zone):
        before = fixture_zone.serial
        changed, owner = fixture_zone.register_device(DeviceRegistration(
            "temperature", "dr56", 8080, parse_name("dr56.unipr.it"),
            txt=(("temperature", "14"),),
        ))
        assert not changed
        assert owner == parse_name("temperature.dr56._iot._udp")
        assert fixture_zone.serial == before

    def test_empty_instance_rejected(self, fixture_zone):
        with pytest.raises(ZoneError):
            fixture_zone.register_device(DeviceRegistration(
                "", "dr56", 1, parse_name("h.example")))

    def test_custom_ttl(self):
        zone = Zone()
        zone.register_device(DeviceRegistration(
            "t", "ab", 1, parse_name("h.example"), ttl=30))
        owner = zone.instance_owner(DeviceRegistration("t", "ab", 1, parse_name("h.example")))
        assert zone.records_at(owner, TYPE_SRV)[0].ttl == 30


class TestSplitPolicies:
    def test_static_chunks_most_specific_first(self):
        policy = SplitPolicy("static", 2)
        assert split_labels("dr5r7p", policy) == ["7p", "5r", "dr"]
        assert split_labels("dr5r7", policy) == ["7", "5r", "dr"]

    def test_join_inverts_split(self):
        for ident in ("d", "dr", "dr5r7p4rx6kz"):
            for length in (1, 2, 3, 4, 5):
                labels = split_labels(ident, SplitPolicy("static", length))
                assert join_labels(labels) == ident

    def test_join_strips_underscores(self):
        assert join_labels(["_56", "_dr"]) == "dr56"

    def test_multi_same_canonical_split(self):
        assert split_labels("abcd", SplitPolicy("multi", 2)) == \
            split_labels("abcd", SplitPolicy("static", 2))

    def test_dynamic_walks_len_txts(self):
        zone = Zone(policy=SplitPolicy("dynamic"))
        apex = parse_name("_iot._udp")
        zone.add_record(ResourceRecord(apex, 100, txt_pair("len", "2")))
        zone.add_record(ResourceRecord(("dr",) + apex, 100, txt_pair("len", "3")))
        zone.add_record(ResourceRecord(("5r7",) + ("dr",) + apex, 100, txt_pair("len", "1")))
        assert split_labels("dr5r7p", zone.policy, zone) == ["p", "5r7", "dr"]

    def test_dynamic_missing_len_fails(self):
        zone = Zone(policy=SplitPolicy("dynamic"))
        with pytest.raises(ZoneError):
            split_labels("dr56", zone.policy, zone)

    def test_dynamic_without_zone_fails(self):
        with pytest.raises(ZoneError):
            split_labels("dr56", SplitPolicy("dynamic"))

    def test_malformed_len_fails(self):
        zone = Zone(policy=SplitPolicy("dynamic"))
        zone.add_record(ResourceRecord(parse_name("_iot._udp"), 100, txt_pair("len", "two")))
        with pytest.raises(ZoneError):
            split_labels("dr", zone.policy, zone)

    def test_empty_identifier_rejected(self):
        with pytest.raises(ZoneError):
            split_labels("", SplitPolicy("static", 2))

    def test_bad_policy_params(self):
        with pytest.raises(ZoneError):
            SplitPolicy("nope", 2)
        with pytest.raises(ZoneError):
            SplitPolicy("static", 0)

    @given(st.text("0123456789bcdefghjkmnpqrstuvwxyz", min_size=1, max_size=13),
           st.integers(1, 6))
    def test_static_round_trip(self, ident, length):
        assert join_labels(split_labels(ident, SplitPolicy("static", length))) == ident


class TestPtrDiscovery:
    def test_prefix_matches_all_three(self, fixture_zone):
        targets = fixture_zone.ptr_discover(parse_name("_dr._iot._udp"))
        assert targets == {
            parse_name("humidity.dr12._iot._udp"),
            parse_name("temperature.dr34._iot._udp"),
            parse_name("temperature.dr56._iot._udp"),
        }

    def test_full_identifier_matches_one(self, fixture_zone):
        assert fixture_zone.ptr_discover(parse_name("dr56._iot._udp")) == {
            parse_name("temperature.dr56._iot._udp")}

    def test_no_match(self, fixture_zone):
        assert fixture_zone.ptr_discover(parse_name("zz._iot._udp")) == set()

    def test_outside_service_subtree(self, fixture_zone):
        assert fixture_zone.ptr_discover(parse_name("dr56.unipr.it")) == set()

    def test_split_labels_join_for_matching(self):
        zone = Zone(policy=SplitPolicy("static", 2))
        zone.register_device(DeviceRegistration(
            "t", "dr5r7p", 1, parse_name("h.example")))
        # a shorter, differently-chunked prefix still matches by string prefix
        assert zone.ptr_discover(parse_name("_dr5r._iot._udp")) == {
            parse_name("t.7p.5r.dr._iot._udp")}

    def test_cname_alias_is_transparent(self):
        zone = Zone(policy=SplitPolicy("multi", 1))
        zone.register_device(DeviceRegistration("t", "a2", 1, parse_name("h.example")))
        zone.add_record(ResourceRecord(
            parse_name("a2._iot._udp"), 100, CNAME(parse_name("2.a._iot._udp"))))
        flat = zone.ptr_discover(parse_name("a2._iot._udp"))
        nested = zone.ptr_discover(parse_name("2.a._iot._udp"))
        assert flat == nested == {parse_name("t.2.a._iot._udp")}



class TestMultiCnames:
    def test_hex_example(self):
        zone = Zone(policy=SplitPolicy("multi", 2))
        symbols = list("0123456789abcdef")
        zone.generate_multi_cnames("12", "a", 1, parse_name("ns.a.example"),
                                   symbols=symbols)
        apex = parse_name("a.12._iot._udp")
        assert [r.rdata.target for r in zone.records_at(apex, TYPE_NS)] == [
            parse_name("ns.a.example")]
        aliases = [r for r in zone.records() if r.rtype == TYPE_CNAME]
        assert len(aliases) == 16
        assert zone.records_at(parse_name("a2.12._iot._udp"), TYPE_CNAME)[0].rdata \
            .target == parse_name("2.a.12._iot._udp")

    def test_repoint_replaces_ns_only(self):
        zone = Zone(policy=SplitPolicy("multi", 1))
        zone.generate_multi_cnames("p", "a", 1, parse_name("ns1.example"),
                                   symbols=["0", "1"])
        serial = zone.serial
        zone.generate_multi_cnames("p", "a", 1, parse_name("ns2.example"),
                                   symbols=["0", "1"])
        apex = parse_name("a.p._iot._udp")
        assert [r.rdata.target for r in zone.records_at(apex, TYPE_NS)] == [
            parse_name("ns2.example")]
        assert len([r for r in zone.records() if r.rtype == TYPE_CNAME]) == 2
        assert zone.serial == serial + 1

    def test_alias_collision_rejected(self):
        zone = Zone(policy=SplitPolicy("multi", 1))
        zone.add_record(ResourceRecord(
            parse_name("a0.p._iot._udp"), 100, A("1.2.3.4")))
        with pytest.raises(ZoneError):
            zone.generate_multi_cnames("p", "a", 1, parse_name("ns.example"),
                                       symbols=["0"])

    def test_default_symbols_cover_alphabet(self):
        zone = Zone(policy=SplitPolicy("multi", 1))
        zone.generate_multi_cnames("p", "a", 1, parse_name("ns.example"))
        aliases = [r for r in zone.records() if r.rtype == TYPE_CNAME]
        assert len(aliases) == 32


class TestTxtUpdates:
    def test_replacement_bumps_serial_once(self, fixture_zone):
        owner = parse_name("temperature.dr56._iot._udp")
        before = fixture_zone.serial
        entry = fixture_zone.update_txt(owner, "temperature", "15")
        assert fixture_zone.serial == before + 1
        assert [t.rdata.text for t in fixture_zone.records_at(owner, TYPE_TXT)] == [
            "temperature=15"]
        assert [r.rdata.text for r in entry.deletions] == ["temperature=14"]
        assert [r.rdata.text for r in entry.additions] == ["temperature=15"]

    def test_new_key_adds(self, fixture_zone):
        owner = parse_name("temperature.dr56._iot._udp")
        fixture_zone.update_txt(owner, "unit", "celsius")
        texts = {t.rdata.text for t in fixture_zone.records_at(owner, TYPE_TXT)}
        assert texts == {"temperature=14", "unit=celsius"}

    def test_delete(self, fixture_zone):
        owner = parse_name("temperature.dr56._iot._udp")
        fixture_zone.delete_txt(owner, "temperature")
        assert fixture_zone.records_at(owner, TYPE_TXT) == ()
        with pytest.raises(ZoneError):
            fixture_zone.delete_txt(owner, "temperature")

    def test_size_guard_rejects_oversized(self, fixture_zone):
        owner = parse_name("temperature.dr56._iot._udp")
        before = fixture_zone.serial
        with pytest.raises(SizeGuardError):
            fixture_zone.update_txt(owner, "blob", "x" * 2000)
        assert fixture_zone.serial == before
        assert [t.rdata.text for t in fixture_zone.records_at(owner, TYPE_TXT)] == [
            "temperature=14"]

    def test_bad_key_rejected(self):
        with pytest.raises(ZoneError):
            txt_pair("a=b", "c")
        with pytest.raises(ZoneError):
            txt_pair("", "c")

    def test_txt_helpers(self):
        rdata = txt_pair("temperature", "14")
        assert txt_key(rdata) == "temperature"
        assert txt_value(rdata) == "14"
        assert txt_key(TXT(("noequals",))) is None


class TestSerialAndJournal:
    def test_serial_monotone_and_gapless(self):
        zone = Zone()
        serials = []
        for i in range(10):
            entry = zone.add_record(
                ResourceRecord((f"d{i}",), 60, A("10.0.0.1")))
            serials.append(entry.serial)
        assert serials == list(range(2, 12))
        assert [e.serial for e in zone.journal()] == serials

    def test_retention_trims_oldest(self):
        zone = Zone(journal_retention=5)
        for i in range(12):
            zone.add_record(ResourceRecord((f"d{i}",), 60, A("10.0.0.1")))
        journal = zone.journal()
        assert len(journal) == 5
        assert journal[-1].serial == zone.serial

    def test_delete_missing_record_fails_cleanly(self):
        zone = Zone()
        ghost = ResourceRecord(("g",), 60, A("10.0.0.1"))
        with pytest.raises(ZoneError):
            zone._mutate((ghost,), ())
        assert zone.serial == 1

    def test_a_missing_deletion_leaves_the_earlier_ones_in_place(self, fixture_zone):
        host = parse_name("dr56.unipr.it")
        present, = fixture_zone.records_at(host)
        ghost = ResourceRecord(host, 100, A("10.0.0.1"))
        state = zone_state(fixture_zone)
        with pytest.raises(ZoneError, match="cannot delete missing"):
            fixture_zone._mutate((present, ghost), ())
        assert zone_state(fixture_zone) == state
        assert_indexes_match_scans(fixture_zone)

    def test_deletions_count_duplicates(self):
        zone = Zone()
        rr = ResourceRecord(("g",), 60, A("10.0.0.1"))
        zone.add_record(rr)
        state = zone_state(zone)
        with pytest.raises(ZoneError):
            zone._mutate((rr, rr), ())
        assert zone_state(zone) == state
        zone.add_record(rr)
        zone._mutate((rr, rr), ())
        assert zone.records() == [] and zone.records_at(("g",)) == ()


def zone_state(zone):
    """What a failed write must leave as it was: the records, every read
    index, the serial and the journal."""
    return (zone.records(), dict(zone._owners), list(zone._names), list(zone._ptrs),
            zone.serial, zone.journal())


class TestBatch:
    OWNER = parse_name("temperature.dr56._iot._udp")

    def test_one_serial_and_one_entry(self, fixture_zone):
        seen = []
        fixture_zone.on_mutate = seen.append
        journal = fixture_zone.journal()
        with fixture_zone.batch():
            assert fixture_zone.update_txt(self.OWNER, "a", "1") is None
            assert fixture_zone.update_txt(self.OWNER, "b", "2") is None
            # applied at once, committed at the end
            assert len(fixture_zone.records_at(self.OWNER, TYPE_TXT)) == 3
            assert fixture_zone.serial == 5 and seen == []
        entry, = seen
        assert fixture_zone.serial == entry.serial == 6
        assert fixture_zone.journal() == journal + [entry]
        assert entry.deletions == ()
        assert [r.rdata.text for r in entry.additions] == ["a=1", "b=2"]

    def test_the_entry_is_the_net_diff(self, fixture_zone):
        text = fixture_zone.export_master_file()
        with fixture_zone.batch():
            for value in ("15", "16"):
                fixture_zone.update_txt(self.OWNER, "temperature", value)
            fixture_zone.update_txt(self.OWNER, "k", "1")
            fixture_zone.delete_txt(self.OWNER, "k")
        entry = fixture_zone.journal()[-1]
        assert [r.rdata.text for r in entry.deletions] == ["temperature=14"]
        assert [r.rdata.text for r in entry.additions] == ["temperature=16"]
        reborn = Zone.from_master_file(text, policy=fixture_zone.policy)
        assert reborn.replay_journal([entry]) == 1
        assert Counter(reborn.records()) == Counter(fixture_zone.records())

    def test_writes_that_cancel_out_take_an_empty_step(self, fixture_zone):
        # as setting a value the zone already holds does outside a batch
        records = fixture_zone.records()
        rr = ResourceRecord(("g",), 60, A("10.0.0.1"))
        with fixture_zone.batch():
            fixture_zone.add_record(rr)
            fixture_zone._mutate((rr,), ())
        assert fixture_zone.records() == records
        assert fixture_zone.journal()[-1] == JournalEntry(6, (), ())

    def test_a_block_without_writes_takes_no_serial(self, fixture_zone):
        state = zone_state(fixture_zone)
        with fixture_zone.batch():
            fixture_zone.records_at(self.OWNER)
        assert zone_state(fixture_zone) == state

    def test_a_block_that_raises_is_undone(self, fixture_zone):
        seen = []
        fixture_zone.on_mutate = seen.append
        state = zone_state(fixture_zone)
        with pytest.raises(ZoneError):
            with fixture_zone.batch():
                fixture_zone.update_txt(self.OWNER, "a", "1")
                fixture_zone.update_txt(self.OWNER, "temperature", "15")
                fixture_zone.delete_txt(self.OWNER, "missing")
        assert zone_state(fixture_zone) == state and seen == []
        assert_indexes_match_scans(fixture_zone)
        # the zone takes writes of its own again
        assert fixture_zone.update_txt(self.OWNER, "a", "2").serial == 6

    def test_a_failed_persist_is_undone(self, fixture_zone):
        def full_disk(entry):
            raise OSError("no space left on device")

        state = zone_state(fixture_zone)
        fixture_zone.on_mutate = full_disk
        for write in (lambda: fixture_zone.update_txt(self.OWNER, "temperature", "15"),
                      lambda: fixture_zone.delete_txt(self.OWNER, "temperature"),
                      lambda: fixture_zone.register_device(DeviceRegistration(
                          "pressure", "dr78", 9000, parse_name("dr78.unipr.it")))):
            with pytest.raises(OSError):
                write()
            assert zone_state(fixture_zone) == state
        assert_indexes_match_scans(fixture_zone)

    def test_a_write_outside_a_batch_is_netted(self, fixture_zone):
        # setting the value held is an empty step, as inside a batch
        entry = fixture_zone.update_txt(self.OWNER, "temperature", "14")
        assert entry == JournalEntry(6, (), ()) == fixture_zone.journal()[-1]

    def test_a_nested_batch_is_part_of_the_outer_one(self, fixture_zone):
        with fixture_zone.batch():
            fixture_zone.update_txt(self.OWNER, "a", "1")
            with fixture_zone.batch():
                fixture_zone.update_txt(self.OWNER, "b", "2")
            assert fixture_zone.serial == 5
        assert fixture_zone.serial == 6 and len(fixture_zone.journal()[-1].additions) == 2


class TestIxfr:
    def test_empty_diff_at_current(self, fixture_zone):
        diff = fixture_zone.ixfr_diff(fixture_zone.serial)
        assert diff.steps == () and not diff.fallback

    def test_fallback_when_history_trimmed(self):
        zone = Zone(journal_retention=3)
        for i in range(8):
            zone.add_record(ResourceRecord((f"d{i}",), 60, A("10.0.0.1")))
        assert zone.ixfr_diff(2).fallback
        assert not zone.ixfr_diff(zone.serial - 3).fallback

    def test_replay_reconstructs_zone(self):
        rng = random.Random(7)
        zone = build_fixture_zone()
        base_serial = zone.serial
        shadow = {(r.owner, str(r)) for r in zone.records()}
        snapshots = {base_serial: set(shadow)}
        owner = parse_name("temperature.dr56._iot._udp")
        for i in range(40):
            zone.update_txt(owner, f"k{rng.randrange(5)}", str(rng.randrange(100)))
            snapshots[zone.serial] = {(r.owner, str(r)) for r in zone.records()}
        for from_serial, start_set in snapshots.items():
            diff = zone.ixfr_diff(from_serial)
            state = set(start_set)
            for step in diff.steps:
                state -= {(r.owner, str(r)) for r in step.deletions}
                state |= {(r.owner, str(r)) for r in step.additions}
            assert state == {(r.owner, str(r)) for r in zone.records()}, from_serial


    def test_serial_arithmetic(self):
        top = 2**32 - 1
        assert serial_gt(0, top) and not serial_gt(top, 0)
        assert serial_gt(5, 4) and not serial_gt(4, 5) and not serial_gt(5, 5)
        # 2**31 apart: unordered either way (RFC 1982 §3.2)
        assert not serial_gt(2**31, 0) and not serial_gt(0, 2**31)

    def test_diff_across_the_wrap(self):
        zone = Zone(serial=2**32 - 3)
        for i in range(4):
            zone.add_record(ResourceRecord((f"d{i}",), 60, A("10.0.0.1")))
        assert zone.serial == 1
        assert [e.serial for e in zone.ixfr_diff(2**32 - 3).steps] == [2**32 - 2, 2**32 - 1, 0, 1]
        assert [e.serial for e in zone.ixfr_diff(0).steps] == [1]
        assert zone.ixfr_diff(1).steps == () and not zone.ixfr_diff(1).fallback
        # unordered against the current serial: not up to date, so a full transfer
        assert zone.ixfr_diff(2**31 + 1).fallback

    def test_load_journal_across_the_wrap(self):
        old = Zone(serial=2**32 - 2)
        for i in range(3):
            old.add_record(ResourceRecord((f"d{i}",), 60, A("10.0.0.1")))
        zone = Zone(serial=0)
        zone.load_journal(old.journal())
        assert [e.serial for e in zone.journal()] == [2**32 - 1, 0]


def journal_entries(*serials):
    return [JournalEntry(s, (), (ResourceRecord((f"s{s}",), 60, A("10.0.0.1")),))
            for s in serials]


class TestIxfrSlice:
    def test_journal_short_of_the_serial_falls_back(self):
        # entries 3 and 4 do not lead to serial 6: a secondary must not claim it
        zone = Zone(serial=6)
        zone.load_journal(journal_entries(2, 3, 4))
        assert zone.ixfr_diff(2).fallback and zone.ixfr_diff(3).fallback

    @pytest.mark.parametrize("serials, kept", [
        ([2, 3, 4, 5], [2, 3, 4, 5]),
        ([2, 3, 2, 3, 4, 5], [2, 3, 4, 5]),
        ([2, 3, 5], [5]),
        ([2, 3, 4], []),
        ([4, 5, 6, 7], [4, 5]),
        ([2**32 - 1, 0, 1, 2, 3, 4, 5], [2**32 - 1, 0, 1, 2, 3, 4, 5]),
    ])
    def test_load_keeps_the_run_ending_at_the_serial(self, serials, kept):
        zone = Zone(serial=5)
        zone.load_journal(journal_entries(*serials))
        assert [e.serial for e in zone.journal()] == kept

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.one_of(st.sampled_from([1, 2**32 - 6, 2**32 - 2, 2**32 - 1]),
                        st.integers(0, 2**32 - 1)),
        mutations=st.integers(0, 12),
        retention=st.integers(1, 8),
        restart=st.one_of(st.none(), st.integers(0, 3)),
    )
    def test_slice_matches_a_scan_of_the_journal(self, start, mutations, retention, restart):
        zone = Zone(serial=start, journal_retention=retention)
        for i in range(mutations):
            zone.add_record(ResourceRecord((f"d{i}",), 60, A("10.0.0.1")))
        if restart is not None:
            # a restart at this serial or past it, as after a lost journal tail
            reborn = Zone(serial=(zone.serial + restart) % 2**32, journal_retention=retention)
            reborn.load_journal(zone.journal())
            zone = reborn
        current, journal = zone.serial, zone.journal()
        for back in range(-2, mutations + 4):
            from_serial = (current - back) % 2**32
            diff = zone.ixfr_diff(from_serial)
            assert diff.to_serial == current
            if from_serial == current or serial_gt(from_serial, current):
                assert diff.steps == () and not diff.fallback
                continue
            steps = [e for e in journal if serial_gt(e.serial, from_serial)]
            if (steps and steps[0].serial == (from_serial + 1) % 2**32
                    and steps[-1].serial == current):
                assert diff.steps == tuple(steps) and not diff.fallback
            else:
                assert diff.fallback and diff.steps == ()


class TestReplay:
    def owner(self):
        return parse_name("temperature.dr56._iot._udp")

    def history(self):
        """The fixture zone's master file at serial 5, and three later entries."""
        zone = build_fixture_zone()
        text = zone.export_master_file()
        for value in ("15", "16", "17"):
            zone.update_txt(self.owner(), "temperature", value)
        return text, zone

    def test_replay_applies_the_entries_after_the_serial(self):
        text, live = self.history()
        reborn = Zone.from_master_file(text, policy=live.policy)
        entries = live.journal()
        reborn.load_journal(entries)
        assert reborn.replay_journal(entries) == 3
        assert reborn.serial == live.serial == 8
        assert sorted(map(str, reborn.records())) == sorted(map(str, live.records()))
        assert reborn.journal() == entries
        assert reborn.ixfr_diff(4).steps == tuple(entries[-4:])

    def test_nothing_to_replay_at_the_last_serial(self):
        _, live = self.history()
        reborn = Zone.from_master_file(live.export_master_file(), policy=live.policy)
        assert reborn.replay_journal(live.journal()) == 0 and reborn.serial == 8

    def test_gap_is_refused_naming_the_entry(self):
        text, live = self.history()
        reborn = Zone.from_master_file(text, policy=live.policy)
        entries = live.journal()
        del entries[-2]  # serial 7
        with pytest.raises(ZoneError, match="journal entry 8"):
            reborn.replay_journal(entries)

    def test_deletion_of_a_missing_record_is_refused_naming_the_entry(self):
        text, live = self.history()
        reborn = Zone.from_master_file(text, policy=live.policy)
        entries = live.journal()
        ghost = JournalEntry(9, (ResourceRecord(("g",), 60, A("10.0.0.1")),), ())
        with pytest.raises(ZoneError, match="journal entry 9: cannot delete missing"):
            reborn.replay_journal(entries + [ghost])


class TestAxfr:
    def test_soa_framing(self, fixture_zone):
        snap = fixture_zone.axfr_snapshot()
        assert snap[0] == snap[-1] == fixture_zone.soa_record()
        assert len(snap) == len(fixture_zone.records()) + 2


class TestMasterFile:
    def test_round_trip_preserves_everything(self, fixture_zone):
        text = fixture_zone.export_master_file()
        back = Zone.from_master_file(text, policy=fixture_zone.policy)
        assert back.serial == fixture_zone.serial
        assert sorted(map(str, back.records())) == sorted(map(str, fixture_zone.records()))
        assert back.export_master_file() == text

    def test_requires_exactly_one_soa(self):
        with pytest.raises(ZoneError):
            Zone.from_master_file("$ORIGIN .\nx. 60 IN A 1.2.3.4\n")


class TestJournalPersistence:
    def test_json_round_trip(self, fixture_zone):
        for entry in fixture_zone.journal():
            assert journal_entry_from_json(journal_entry_to_json(entry)) == entry

    def test_file_survives_restart(self, tmp_path, fixture_zone):
        path = tmp_path / "journal.jsonl"
        jf = JournalFile(path)
        fixture_zone.on_mutate = jf.append
        owner = parse_name("temperature.dr56._iot._udp")
        fixture_zone.update_txt(owner, "temperature", "15")
        fixture_zone.update_txt(owner, "temperature", "16")
        jf.close()
        old_journal = fixture_zone.journal()

        reborn = Zone.from_master_file(fixture_zone.export_master_file(),
                                       policy=fixture_zone.policy)
        reborn.load_journal(JournalFile(path).load())
        # only the persisted entries are recoverable, and they line up
        recovered = reborn.journal()
        assert recovered == old_journal[-len(recovered):]
        assert reborn.ixfr_diff(fixture_zone.serial - 2).steps == tuple(old_journal[-2:])

    def test_load_ignores_future_entries(self, tmp_path):
        zone = Zone(serial=5)
        zone.load_journal([
            journal_entry_from_json(journal_entry_to_json(e))
            for e in build_fixture_zone().journal()
        ])
        assert all(e.serial <= 5 for e in zone.journal())

    OWNER = parse_name("temperature.dr56._iot._udp")

    def history(self, path, values):
        """The fixture zone's master file, and a zone that has journaled a
        TXT set of each value to ``path`` after it."""
        zone = build_fixture_zone()
        text = zone.export_master_file()
        journal = JournalFile(path)
        journal.attach(zone)
        for value in values:
            zone.update_txt(self.OWNER, "temperature", value)
        journal.close()
        return text, zone

    @staticmethod
    def restart(text, path):
        zone = Zone.from_master_file(text, policy=SplitPolicy("static", 4))
        journal = JournalFile(path)
        return zone, journal, journal.attach(zone)

    def test_a_torn_last_line_is_dropped_then_cut_away(self, tmp_path, caplog):
        path = tmp_path / "journal.jsonl"
        text, live = self.history(path, ("15", "16", "17"))
        whole = path.read_bytes()
        path.write_bytes(whole[:-20])  # the last append stopped 20 bytes short
        zone, journal, replayed = self.restart(text, path)
        assert replayed == 2 and zone.serial == 7
        assert "dropped line 3, an unfinished append" in caplog.text
        assert zone.journal() == live.journal()[:-1]
        zone.update_txt(self.OWNER, "temperature", "18")
        journal.close()
        assert path.read_bytes().count(b"\n") == 3
        reborn, _, replayed = self.restart(text, path)
        assert replayed == 3 and reborn.serial == 8
        assert reborn.records() == zone.records()

    def test_a_bad_line_is_named(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        text, _ = self.history(path, ("15", "16", "17"))
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1][:-20]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ZoneError, match="^journal line 2: "):
            self.restart(text, path)
        with pytest.raises(ZoneError, match="^journal line 2: "):
            JournalFile(path).load()

    @pytest.mark.parametrize("line", [b"[]", b'{"serial": "6", "del": [], "add": []}',
                                      b'{"serial": 6, "del": [7], "add": []}',
                                      b'{"serial": 6, "del": [{}], "add": []}',
                                      b'{"serial": 6, "del": [], "add": ["x. 1 IN A 1.2.3"]}'])
    def test_a_line_that_is_json_but_no_entry_is_named(self, tmp_path, line):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b"\n" + line + b"\n")
        with pytest.raises(ZoneError, match="^journal line 2: "):
            JournalFile(path).load()

    def test_an_append_that_fails_halfway_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        text, _ = self.history(path, ("15",))
        zone, journal, _ = self.restart(text, path)
        zone.update_txt(self.OWNER, "temperature", "16")
        before, state = path.read_bytes(), zone_state(zone)
        journal._fh = HalfWrites(journal._fh)
        with pytest.raises(OSError, match="No space left"):
            zone.update_txt(self.OWNER, "temperature", "99")
        assert path.read_bytes() == before and zone_state(zone) == state
        journal._fh = journal._fh.fh
        zone.update_txt(self.OWNER, "temperature", "17")
        journal.close()
        reborn, _, replayed = self.restart(text, path)
        assert replayed == 3 and reborn.serial == zone.serial == 8
        assert reborn.journal() == zone.journal()
        assert reborn.records() == zone.records()

    def test_replayed_records_share_the_zones_names(self, tmp_path):
        text = generated_master_file(300)
        path = tmp_path / "journal.jsonl"
        live = Zone.from_master_file(text)
        journal = JournalFile(path)
        journal.attach(live)
        rng = random.Random(7)
        owners = [r.owner for r in live.records() if r.rtype == TYPE_TXT]
        for i in range(300):
            live.update_txt(rng.choice(owners), "reading", str(i))
        journal.close()
        zone = Zone.from_master_file(text)
        assert JournalFile(path).attach(zone) == 300
        foreign = [rr for name, here in zone._owners.items() for rr in here
                   if rr.owner is not name]
        assert foreign == []
        assert_indexes_hold_the_zones_objects(zone)


# ---------------------------------------------------------------------------
# The read indexes against the scans they replace


def scan_records_at(records, owner, rtype=None):
    return tuple(r for r in records if r.owner == owner and (rtype is None or r.rtype == rtype))


def scan_has_owner(zone, records, owner):
    if owner == zone.origin:
        return True
    return any(r.owner == owner or r.owner[-len(owner):] == owner
               for r in records if len(r.owner) >= len(owner))


def scan_subtree(records, apex):
    return [r for r in records if not apex or r.owner[-len(apex):] == apex]


def scan_identifier(zone, name):
    suffix = zone.service + zone.origin
    if len(name) < len(suffix) or name[-len(suffix):] != suffix:
        return None
    return "".join(c.lstrip("_") for c in reversed(name[: len(name) - len(suffix)]))


def scan_ptr_discover(zone, records, qname):
    prefix = scan_identifier(zone, qname)
    if prefix is None:
        return set()
    pointers = [(scan_identifier(zone, r.owner), r.rdata.target)
                for r in records if r.rtype == TYPE_PTR]
    return {target for ident, target in pointers
            if ident is not None and ident.startswith(prefix)}


ORIGIN = ("ex",)
APEX = ("_iot", "_udp") + ORIGIN
PROBES = [(), ORIGIN, ("_udp",) + ORIGIN, APEX, ("zz",) + APEX, ("_a",) + APEX,
          ("_",) + APEX, ("h", "ex"), ("b", "a", "x") + ORIGIN]

labels = st.sampled_from(["a", "b", "ab", "ba", "_a", "t"])
names = st.one_of(
    st.lists(labels, max_size=3).map(lambda ls: tuple(ls) + APEX),
    st.sampled_from(PROBES),
)
aliases = st.lists(st.sampled_from(["a", "b"]), max_size=2).map(lambda ls: tuple(ls) + APEX)
index_ops = st.one_of(
    st.tuples(st.just("register"), st.sampled_from(["t", "h"]),
              st.text("ab_", min_size=1, max_size=4),
              st.sampled_from([("h", "ex"), ("g", "ex")]),
              st.lists(st.tuples(st.sampled_from(["k", "m"]), st.sampled_from(["1", "2"])),
                       max_size=1)),
    st.tuples(st.just("txt"), names, st.sampled_from(["k", "m"]), st.sampled_from(["1", "2"])),
    st.tuples(st.just("deltxt"), names, st.sampled_from(["k", "m"])),
    st.tuples(st.just("cname"), aliases, names),
    st.tuples(st.just("multi"), st.sampled_from(["a", "b"]), st.sampled_from(["a", "b"]),
              st.sampled_from([("ns", "ex"), ("ns2", "ex")])),
    st.tuples(st.just("delete"), st.integers(0, 50)),
)


def apply_index_op(zone, op):
    kind = op[0]
    if kind == "register":
        _, instance, ident, target, txt = op
        zone.register_device(DeviceRegistration(instance, ident, 80, target, txt=tuple(txt)))
    elif kind == "txt":
        zone.update_txt(op[1], op[2], op[3])
    elif kind == "deltxt":
        zone.delete_txt(op[1], op[2])
    elif kind == "cname":  # loops included
        zone.add_record(ResourceRecord(op[1], 100, CNAME(op[2])))
    elif kind == "multi":
        zone.generate_multi_cnames(op[1], op[2], 1, op[3], symbols=["a", "b"])
    else:  # any record, PTRs included, can leave through the writer path
        records = zone.records()
        if records:
            zone._mutate((records[op[1] % len(records)],), ())


def apply_or_skip(zone, op):
    try:
        apply_index_op(zone, op)
    except ZoneError:
        pass  # a missing TXT key or an alias clash: nothing changed


def names_in(records):
    """Every owner, every ancestor of one, and every PTR or CNAME target."""
    names = set(PROBES)
    for r in records:
        names.update(r.owner[i:] for i in range(len(r.owner)))
        if r.rtype in (TYPE_PTR, TYPE_CNAME):
            names.add(r.rdata.target)
    return names


def assert_indexes_match_scans(zone, probes=frozenset()):
    records = zone.records()
    for name in names_in(records) | probes:
        assert zone.records_at(name) == scan_records_at(records, name), name
        for rtype in (TYPE_CNAME, TYPE_NS, TYPE_PTR, TYPE_SRV, TYPE_TXT):
            assert zone.records_at(name, rtype) == scan_records_at(records, name, rtype)
        assert zone.has_owner(name) == scan_has_owner(zone, records, name), name
        assert Counter(zone.subtree(name)) == Counter(scan_subtree(records, name)), name
        assert zone.ptr_discover(name) == scan_ptr_discover(zone, records, name), name
    assert_indexes_hold_the_zones_objects(zone)


def assert_indexes_hold_the_zones_objects(zone):
    """The sorted indexes reference what the owner map holds, not copies:
    each name is the owner map's key and the owner of the first record at
    it, and each PTR entry is a record the owner map holds."""
    owners = zone._owners
    assert sorted(map(id, zone._names)) == sorted(map(id, owners))
    for name in zone._names:
        assert owners[name][0].owner is name, name
    held = {id(rr) for here in owners.values() for rr in here}
    for rr in zone._ptrs:
        assert rr.rtype == TYPE_PTR and id(rr) in held, rr


class Tally:
    """The records a zone must hold by its journal entries: the records it
    held at the start, minus each entry's deletions, plus its additions.
    The scans above read ``records()``, which comes from the owner map;
    this reads the diffs the writer path was given, so it checks the store
    itself."""

    def __init__(self, zone):
        self.expected = Counter(zone.records())
        zone.on_mutate = self.apply

    def apply(self, entry):
        gone = Counter(entry.deletions)
        assert gone <= self.expected, entry
        self.expected -= gone
        self.expected += Counter(entry.additions)

    def check(self, zone):
        assert Counter(zone.records()) == self.expected


class TestIndexes:
    @settings(max_examples=200, deadline=None)
    @given(split=st.integers(1, 2), ops=st.lists(index_ops, max_size=12), rnd=st.randoms())
    def test_reads_match_brute_force_scans(self, split, ops, rnd):
        zone = Zone(origin=ORIGIN, policy=SplitPolicy("static", split))
        tally = Tally(zone)
        for op in ops:
            apply_or_skip(zone, op)
            tally.check(zone)
            assert_indexes_match_scans(zone)
        assert_indexes_match_scans(Zone.from_master_file(zone.export_master_file()))
        # empty the zone in a random order: every name it had must die with it
        records = zone.records()
        probes = names_in(records)
        rnd.shuffle(records)
        for rr in records:
            zone._mutate((rr,), ())
            tally.check(zone)
            assert_indexes_match_scans(zone, probes)
        assert not tally.expected

    @settings(max_examples=150, deadline=None)
    @given(before=st.lists(index_ops, max_size=6), ops=st.lists(index_ops, max_size=8))
    def test_any_batch_is_its_net_diff(self, before, ops):
        zone = Zone(origin=ORIGIN, policy=SplitPolicy("static", 1))
        tally = Tally(zone)
        for op in before:
            apply_or_skip(zone, op)
            tally.check(zone)
        old, text, serial = Counter(zone.records()), zone.export_master_file(), zone.serial
        with zone.batch():
            for op in ops:
                apply_or_skip(zone, op)
        tally.check(zone)
        assert_indexes_match_scans(zone)
        new = Counter(zone.records())
        if zone.serial == serial:  # no write succeeded
            assert new == old
            return
        entry = zone.journal()[-1]
        assert zone.serial == entry.serial == serial + 1
        gone, added = Counter(entry.deletions), Counter(entry.additions)
        assert gone <= old and added <= new and old - gone + added == new
        reborn = Zone.from_master_file(text, policy=zone.policy)
        reborn.replay_journal([entry])
        assert Counter(reborn.records()) == new

    def test_a_name_outlives_the_tuple_of_its_first_record(self):
        # equal owner tuples that are distinct objects, as from the wire
        zone = Zone(origin=ORIGIN)
        first, second = (ResourceRecord(("h",) + APEX, 100, PTR(("t", f"{i}") + APEX))
                         for i in range(2))
        assert first.owner is not second.owner
        zone.add_record(first)
        zone.add_record(second)
        zone._mutate((first,), ())
        assert zone._names == [second.owner] and zone._names[0] is second.owner
        assert zone.ptr_discover(("h",) + APEX) == {second.rdata.target}
        assert_indexes_match_scans(zone, {first.owner})

    def test_a_ptr_leaves_the_index_as_the_object_it_is(self):
        # "a" and "_a" spell one identifier: two PTRs with one sort key
        zone = Zone(origin=ORIGIN)
        target = ("t",) + APEX
        plain, marked = (ResourceRecord((label,) + APEX, 100, PTR(target))
                         for label in ("a", "_a"))
        zone.add_record(plain)
        zone.add_record(marked)
        zone._mutate((marked,), ())
        assert zone._ptrs == [plain] and zone._ptrs[0] is plain
        assert_indexes_match_scans(zone, {marked.owner})

    def test_records_the_zone_builds_share_indexed_names(self):
        zone = Zone(policy=SplitPolicy("static", 2))
        zone.add_record(ResourceRecord(parse_name("h.example"), 100, A("10.0.0.1")))
        zone.register_device(DeviceRegistration("t", "dr56", 1, parse_name("h.example")))
        zone.register_device(DeviceRegistration("h", "dr56", 1, parse_name("h.example")))
        zone.update_txt(parse_name("t.56.dr._iot._udp"), "k", "v")
        host, = zone.records_at(parse_name("h.example"))
        t_srv, h_srv = (zone.records_at(parse_name(f"{i}.56.dr._iot._udp"), TYPE_SRV)[0]
                        for i in "th")
        assert t_srv.rdata.target is h_srv.rdata.target is host.owner
        txt, = zone.records_at(t_srv.owner, TYPE_TXT)
        assert txt.owner is t_srv.owner
        ptrs = zone.records_at(parse_name("56.dr._iot._udp"), TYPE_PTR)
        assert ptrs[0].owner is ptrs[1].owner


def generated_master_file(devices: int, seed: int = 7) -> str:
    """A geo-style zone: 8-symbol identifiers in 2-symbol labels, with an
    SRV, a PTR and a TXT reading per device and 20 gateway A records."""
    rng = random.Random(seed)
    lines = ["$ORIGIN example.",
             "example. 100 IN SOA ns.example. hostmaster.example. 5 7200 900 86400 100"]
    lines += [f"gw{g}.hosts.example. 100 IN A 10.0.0.{g}" for g in range(20)]
    for i in range(devices):
        ident = "".join(rng.choice(ALPHABET) for _ in range(8))
        id_owner = ".".join(ident[j:j + 2] for j in (6, 4, 2, 0)) + "._iot._udp.example."
        instance = f"{rng.choice(['temp', 'hum', 'co2'])}{i}.{id_owner}"
        lines.append(f"{instance} 100 IN SRV 10 20 5683 gw{i % 20}.hosts.example.")
        lines.append(f"{id_owner} 100 IN PTR {instance}")
        lines.append(f'{instance} 100 IN TXT "reading={rng.randrange(1000)}"')
    return "\n".join(lines) + "\n"


class TestMemory:
    #: bytes per record of an imported zone, its indexes included.  The
    #: flat list without indexes took 519-690 on Python 3.10-3.13 in this
    #: test; indexes of their own reversed names and (identifier, target)
    #: tuples took 422-435; indexes that hold the owner map's own names
    #: and PTR records took 321-330 beside the list, and 312-322 with the
    #: owner map as the only store.
    BYTES_PER_RECORD = 400

    def test_import_bytes_per_record(self):
        text = generated_master_file(2000)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            zone = Zone.from_master_file(text)
            gc.collect()
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(zone.records()) == 6020
        assert used / len(zone.records()) < self.BYTES_PER_RECORD


@pytest.fixture
def eq_calls(monkeypatch):
    """How many times ``ResourceRecord.__eq__`` has run: a scan of the
    zone shows as one call per record it passes."""
    calls = [0]
    compare = ResourceRecord.__eq__

    def counted(self, other):
        calls[0] += 1
        return compare(self, other)

    monkeypatch.setattr(ResourceRecord, "__eq__", counted)
    return calls


class TestWriteCost:
    """A TXT write and its replay touch the records at one owner, not
    every record of the zone."""

    MAX_CALLS = 10

    def test_txt_writes_compare_only_at_their_owner(self, eq_calls):
        zone = Zone.from_master_file(generated_master_file(2000))
        owner = [r for r in zone.records() if r.rtype == TYPE_TXT][-1].owner
        for write in (lambda: zone.update_txt(owner, "reading", "1"),
                      lambda: zone.update_txt(owner, "reading", "2"),
                      lambda: zone.delete_txt(owner, "reading")):
            eq_calls[0] = 0
            write()
            assert eq_calls[0] <= self.MAX_CALLS
        assert not zone.records_at(owner, TYPE_TXT)

    def test_replay_compares_only_at_each_entrys_owner(self, eq_calls):
        text = generated_master_file(2000)
        live = Zone.from_master_file(text)
        rng = random.Random(7)
        owners = [r.owner for r in live.records() if r.rtype == TYPE_TXT]
        for i in range(500):
            live.update_txt(rng.choice(owners), "reading", str(i))
        entries = [journal_entry_from_json(journal_entry_to_json(e)) for e in live.journal()]
        reborn = Zone.from_master_file(text)
        eq_calls[0] = 0
        assert reborn.replay_journal(entries) == 500
        assert eq_calls[0] <= self.MAX_CALLS * 500
        assert reborn.serial == live.serial


class TestStreamedImport:
    """A master file read from an open file a line at a time loads as its
    text does, and names the same line in an error."""

    #: the line breaks of ``str.splitlines`` that a text file does not split at
    SEPARATORS = ("\x0b", "\x0c", "\x1c", "\x85", "\u2028")

    @staticmethod
    def stream(tmp_path, text):
        path = tmp_path / "zone.db"
        path.write_text(text, encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            return Zone.from_master_file(fh)

    def load_both(self, tmp_path, text):
        return Zone.from_master_file(text), self.stream(tmp_path, text)

    @staticmethod
    def assert_same_zone(zone, streamed):
        assert streamed.records() == zone.records()
        assert streamed.soa_record() == zone.soa_record()
        assert streamed._owners == zone._owners
        assert streamed._names == zone._names and streamed._ptrs == zone._ptrs
        assert_indexes_hold_the_zones_objects(streamed)

    def test_a_generated_zone(self, tmp_path):
        zone, streamed = self.load_both(tmp_path, generated_master_file(2000))
        assert len(streamed.records()) == 6020
        self.assert_same_zone(zone, streamed)

    def separated(self):
        """A small zone whose lines end in every separator, some in two."""
        lines = generated_master_file(6).splitlines()
        ends = self.SEPARATORS + ("\n", "\r\n", "\r", "\x0b\n", "\x85\x85")
        return "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))

    def test_every_line_separator(self, tmp_path):
        text = self.separated()
        zone, streamed = self.load_both(tmp_path, text)
        assert len(zone.records()) == 38
        self.assert_same_zone(zone, streamed)

    def test_a_bad_line_has_one_number(self, tmp_path):
        text = self.separated() + "bad.example. 100 IN A 10.0.0.300\n"
        lineno = len(text.splitlines())
        with pytest.raises(RecordError) as from_text:
            Zone.from_master_file(text)
        with pytest.raises(RecordError) as from_file:
            self.stream(tmp_path, text)
        assert str(from_file.value) == str(from_text.value)
        assert f"master file line {lineno}:" in str(from_text.value)
