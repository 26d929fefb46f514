import json
import logging

import pytest

from semdns.cli import main
from semdns.records import A, ResourceRecord
from semdns.zone import JournalEntry, journal_entry_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestEncodeGeo:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "encode-geo", "40.689167", "-74.044444", "12")
        assert code == 0 and out.strip() == "dr5r7p4rx6kz"

    def test_json_payload(self, capsys):
        code, payload, _ = run_json(capsys, "encode-geo", "42.605", "-5.603", "5")
        assert code == 0
        assert payload["label"] == "ezs42"
        assert payload["lat_bits"] == 12 and payload["lng_bits"] == 13
        assert payload["lat_error_deg"] == pytest.approx(0.022, rel=0.1)

    def test_bad_length_is_usage_error(self, capsys):
        code, _, err = run(capsys, "encode-geo", "0", "0", "13")
        assert code == 1 and "error" in err

    def test_missing_argument(self, capsys):
        code, _, err = run(capsys, "encode-geo", "0", "0")
        assert code == 1

    def test_non_numeric(self, capsys):
        code, _, _ = run(capsys, "encode-geo", "north", "0", "5")
        assert code == 1


class TestDecodeGeo:
    def test_center(self, capsys):
        code, payload, _ = run_json(capsys, "decode-geo", "dr5r7p4")
        assert code == 0
        assert payload["latitude"] == pytest.approx(40.69, abs=0.005)
        assert payload["longitude"] == pytest.approx(-74.04, abs=0.005)

    def test_invalid_symbol(self, capsys):
        code, _, err = run(capsys, "decode-geo", "hello")  # 'l' not in alphabet
        assert code == 1 and "error" in err


class TestEncodeIdentifiers:
    def test_tree_path(self, capsys):
        code, out, _ = run(
            capsys, "encode-tree", "properties", "temperature", "unit", "degree_Celsius")
        assert code == 0 and out.strip() == "1d152"

    def test_tree_partial(self, capsys):
        code, payload, _ = run_json(capsys, "encode-tree", "properties")
        assert code == 0 and payload["partial"] is True
        assert payload["label"] == "1d"

    def test_tree_unknown_label(self, capsys):
        code, _, err = run(capsys, "encode-tree", "bogus")
        assert code == 1

    def test_logical(self, capsys):
        code, out, _ = run(capsys, "encode-logical", "7", "19", "376")
        assert code == 0 and out.strip() == "27mcs"

    def test_logical_out_of_range(self, capsys):
        code, _, _ = run(capsys, "encode-logical", "32", "0", "0")
        assert code == 1

    def test_custom_registry_file(self, capsys, tmp_path):
        path = tmp_path / "registry.txt"
        path.write_text("context 6 logical 5 5\n", encoding="utf-8")
        code, out, _ = run(capsys, "encode-logical", "1", "2", "0",
                           "--context", "6", "--registry", str(path))
        assert code == 1  # three fields given, context has two
        code, out, _ = run(capsys, "encode-tree", "--context", "6",
                           "--registry", str(path))
        assert code == 1  # logical context has no tree

    def test_registry_file_with_a_bad_number_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "registry.txt"
        path.write_text("# widths\ncontext 6 tree 5 five\n", encoding="utf-8")
        code, _, err = run(capsys, "encode-tree", "--context", "6", "--registry", str(path))
        assert code == 1 and "registry line 2:" in err


class TestDeriveName:
    def test_text_key(self, capsys):
        code, payload, _ = run_json(capsys, "derive-name", "--key", "abc")
        assert code == 0
        assert payload["label"] == "rdeym30n4j2eg9cbnfd1sfb2p5wf9r1m"
        assert payload["digest_hex"] == "bb1be98c142444d7a56aa3981c3942a978e4dc33"

    def test_hex_key(self, capsys):
        code, payload, _ = run_json(capsys, "derive-name", "--key-hex", "616263")
        assert payload["label"] == "rdeym30n4j2eg9cbnfd1sfb2p5wf9r1m"

    def test_key_file(self, capsys, tmp_path):
        path = tmp_path / "key.bin"
        path.write_bytes(b"abc")
        code, payload, _ = run_json(capsys, "derive-name", "--key-file", str(path))
        assert payload["label"] == "rdeym30n4j2eg9cbnfd1sfb2p5wf9r1m"

    def test_key_sources_mutually_exclusive(self, capsys):
        code, _, _ = run(capsys, "derive-name", "--key", "a", "--key-hex", "61")
        assert code == 1

    def test_bad_hex(self, capsys):
        code, _, _ = run(capsys, "derive-name", "--key-hex", "zz")
        assert code == 1


class TestNetworkCommands:
    def test_query_a(self, capsys, running_server):
        host, port, _ = running_server
        code, payload, _ = run_json(
            capsys, "query", "dr56.unipr.it", "A", "--server", f"{host}:{port}")
        assert code == 0
        assert payload["rcode"] == "NOERROR"
        assert payload["answers"] == [{
            "owner": "dr56.unipr.it.", "ttl": 100, "type": "A",
            "rdata": "160.78.28.203"}]

    def test_query_human_output(self, capsys, running_server):
        host, port, _ = running_server
        code, out, _ = run(capsys, "query", "_dr._iot._udp", "PTR",
                           "--server", f"{host}:{port}")
        assert code == 0
        assert ";; ANSWER SECTION:" in out
        assert "temperature.dr56._iot._udp." in out

    def test_query_nxdomain_exit_3(self, capsys, running_server):
        host, port, _ = running_server
        code, _, _ = run(capsys, "query", "no.such.name", "A",
                         "--server", f"{host}:{port}")
        assert code == 3

    def test_query_unknown_type(self, capsys, running_server):
        host, port, _ = running_server
        code, _, err = run(capsys, "query", "x", "BOGUS", "--server", f"{host}:{port}")
        assert code == 1

    def test_network_failure_exit_2(self, capsys):
        code, _, err = run(capsys, "query", "x", "A", "--server", "127.0.0.1:1")
        assert code == 2

    def test_server_env_var(self, capsys, running_server, monkeypatch):
        host, port, _ = running_server
        monkeypatch.setenv("SEMDNS_SERVER", f"{host}:{port}")
        code, payload, _ = run_json(capsys, "query", "dr56.unipr.it", "A")
        assert code == 0 and payload["rcode"] == "NOERROR"

    def test_register_and_update_flow(self, capsys, running_server):
        host, port, _ = running_server
        code, payload, _ = run_json(
            capsys, "register", "pressure", "dr78",
            "--port", "9000", "--target", "dr78.unipr.it",
            "--txt", "pressure=1013", "--server", f"{host}:{port}")
        assert code == 0
        assert payload["created"] == [
            {"owner": "pressure.dr78._iot._udp.", "status": "registered"}]

        code, payload, _ = run_json(
            capsys, "query", "pressure.dr78._iot._udp", "TXT",
            "--server", f"{host}:{port}")
        assert [a["rdata"] for a in payload["answers"]] == ['"pressure=1013"']

        code, _, _ = run(capsys, "update-txt", "pressure.dr78._iot._udp",
                         "pressure", "990", "--server", f"{host}:{port}")
        assert code == 0
        code, payload, _ = run_json(
            capsys, "query", "pressure.dr78._iot._udp", "TXT",
            "--server", f"{host}:{port}")
        assert [a["rdata"] for a in payload["answers"]] == ['"pressure=990"']

        code, _, _ = run(capsys, "update-txt", "pressure.dr78._iot._udp",
                         "pressure", "--delete", "--server", f"{host}:{port}")
        assert code == 0

    def test_register_prints_each_status(self, capsys, running_server):
        host, port, zone = running_server
        code, out, _ = run(capsys, "register", "pressure", "dr78", "--port", "9000",
                           "--target", "dr78.unipr.it", "--server", f"{host}:{port}")
        assert code == 0 and out == "pressure.dr78._iot._udp. (registered)\n"
        assert zone.records_at(("pressure", "dr78", "_iot", "_udp"))

    def test_register_refuses_a_separator_in_a_field(self, capsys, running_server):
        host, port, zone = running_server
        serial = zone.serial
        code, _, err = run(capsys, "register", "pressure", "dr78", "--port", "9000",
                           "--target", "dr78.unipr.it", "--txt", "k=x;txt.evil=1",
                           "--server", f"{host}:{port}")
        assert code == 1 and "';'" in err
        assert zone.serial == serial

    def test_register_refuses_a_txt_key_without_a_name(self, capsys, running_server):
        host, port, zone = running_server
        serial = zone.serial
        code, _, err = run(capsys, "register", "pressure", "dr78", "--port", "9000",
                           "--target", "dr78.unipr.it", "--txt", "=1013",
                           "--server", f"{host}:{port}")
        assert code == 1 and "TXT key" in err
        assert zone.serial == serial

    def test_update_refused_without_secret(self, capsys):
        from conftest import build_fixture_zone
        from semdns.server import DnsServer, ServerConfig
        server = DnsServer(build_fixture_zone(),
                           ServerConfig(port=0, update_secret="s3cret"))
        server.start()
        try:
            addr = f"127.0.0.1:{server.port}"
            code, _, err = run(capsys, "update-txt", "temperature.dr56._iot._udp",
                               "temperature", "15", "--server", addr)
            assert code == 3 and "refused" in err
            code, _, _ = run(capsys, "update-txt", "temperature.dr56._iot._udp",
                             "temperature", "15", "--secret", "s3cret",
                             "--server", addr)
            assert code == 0
        finally:
            server.shutdown()

    def test_axfr_and_ixfr(self, capsys, running_server):
        host, port, zone = running_server
        code, payload, _ = run_json(capsys, "axfr", "--server", f"{host}:{port}")
        assert code == 0
        assert payload["answers"][0]["type"] == "SOA"
        assert len(payload["answers"]) == len(zone.records()) + 2

        start = zone.serial
        zone.update_txt(("temperature", "dr56", "_iot", "_udp"), "temperature", "15")
        code, payload, _ = run_json(capsys, "ixfr", "--serial", str(start),
                                    "--server", f"{host}:{port}")
        assert code == 0
        texts = [a["rdata"] for a in payload["answers"] if a["type"] == "TXT"]
        assert texts == ['"temperature=14"', '"temperature=15"']

    def test_export_zone_from_server(self, capsys, running_server):
        host, port, zone = running_server
        code, out, _ = run(capsys, "export-zone", "--server", f"{host}:{port}")
        assert code == 0
        assert "SRV\t10 20 8080 dr56.unipr.it." in out
        assert out.count("IN\tSOA") == 1

    def test_export_zone_from_file(self, capsys, tmp_path, fixture_zone):
        path = tmp_path / "zone.txt"
        path.write_text(fixture_zone.export_master_file(), encoding="utf-8")
        code, out, _ = run(capsys, "export-zone", "--zone-file", str(path))
        assert code == 0 and out == fixture_zone.export_master_file()


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    @pytest.mark.parametrize("argv", [
        ("register", "pressure", "dr78", "--port", "9000", "--target", "dr78.unipr.it",
         "--service", "_foo._tcp"),
        ("serve", "--zone-file", "zone.txt", "--split-mode", "multi"),
    ], ids=["register-service", "serve-split-mode-multi"])
    def test_removed_options_are_usage_errors(self, capsys, argv):
        # the server registers under _iot._udp alone; SplitPolicy multi splits as static does
        code, _, err = run(capsys, *argv)
        assert code == 1 and argv[-2] in err


class TestServe:
    def test_journal_with_a_gap_is_refused(self, capsys, tmp_path, fixture_zone, monkeypatch):
        monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: None)
        zone_file, journal = tmp_path / "zone.txt", tmp_path / "journal.jsonl"
        zone_file.write_text(fixture_zone.export_master_file(), encoding="utf-8")  # serial 5
        entry = JournalEntry(7, (), (ResourceRecord(("x",), 60, A("10.0.0.1")),))
        journal.write_text(journal_entry_to_json(entry) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "serve", "--zone-file", str(zone_file),
                           "--journal", str(journal), "--port", "0")
        assert code == 1 and "error: journal entry 7" in err
