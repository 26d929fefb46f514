"""Operator command line: encode identifiers, run and query the service.

Every subcommand supports ``--json`` for machine-readable output.  Exit
codes: 0 success (including empty NOERROR answers), 1 usage or input
error, 2 network failure or any other failing rcode, 3 NXDOMAIN/REFUSED
from the server.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

# the identifier codecs (semdns.contexts, .geo, .names) load on first use,
# so the network commands never import them, nor hashlib and OpenSSL
import semdns

from . import client
from .records import (
    ResourceRecord, TYPE_CODES, TYPE_NAMES,
    export_master_file, name_text, parse_name,
)
from .server import DnsServer, ServerConfig
from .wire import RCODE_NAMES, RCODE_NOERROR, RCODE_NXDOMAIN, RCODE_REFUSED
from .zone import DEFAULT_SERVICE, DeviceRegistration, SplitPolicy, Zone

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NETWORK = 2
EXIT_NAME = 3  # NXDOMAIN / REFUSED

DEFAULT_PORT = 5300


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _server_addr(value: str | None) -> tuple[str, int]:
    value = value or os.environ.get("SEMDNS_SERVER") or f"127.0.0.1:{DEFAULT_PORT}"
    host, _, port = value.partition(":")
    return host, int(port) if port else DEFAULT_PORT


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _print_sections(reply, args) -> int:
    if args.json:
        print(json.dumps({
            "rcode": RCODE_NAMES.get(reply.rcode, str(reply.rcode)),
            "question": [
                {"name": name_text(q.qname), "type": TYPE_NAMES.get(q.qtype, str(q.qtype))}
                for q in reply.questions
            ],
            "answers": [_record_json(r) for r in reply.answers],
        }, sort_keys=True))
    else:
        print(";; QUESTION SECTION:")
        for q in reply.questions:
            print(f";{name_text(q.qname)}\t\t\tIN\t{TYPE_NAMES.get(q.qtype, q.qtype)}")
        print()
        print(";; ANSWER SECTION:")
        for r in reply.answers:
            print(r.render())
        if reply.rcode != RCODE_NOERROR:
            print(f";; rcode: {RCODE_NAMES.get(reply.rcode, reply.rcode)}")
    return _rcode_exit(reply)


def _rcode_exit(reply, failure: str = "") -> int:
    """0 for NOERROR, 3 for NXDOMAIN or REFUSED, 2 for any other rcode,
    which is named on stderr after ``failure`` if that is given."""
    if reply.rcode == RCODE_NOERROR:
        return EXIT_OK
    if failure:
        print(f"{failure}: {RCODE_NAMES.get(reply.rcode, reply.rcode)}", file=sys.stderr)
    return EXIT_NAME if reply.rcode in (RCODE_NXDOMAIN, RCODE_REFUSED) else EXIT_NETWORK


def _record_json(r: ResourceRecord) -> dict:
    return {
        "owner": name_text(r.owner),
        "ttl": r.ttl,
        "type": r.type_name,
        "rdata": r.rdata.to_text(),
    }


def _load_registry(args):
    if getattr(args, "registry", None):
        with open(args.registry, encoding="utf-8") as fh:
            return semdns.contexts.load_registry(fh.read())
    return semdns.contexts.default_registry()


# ---------------------------------------------------------------------------
# Subcommands


def cmd_encode_geo(args) -> int:
    geo = semdns.geo
    point = geo.GeoPoint(args.latitude, args.longitude)
    label = geo.encode_geohash(point, args.length)
    payload = {"command": "encode-geo", "label": label}
    lines = [label]
    if args.verbose or args.json:
        lat_n, lng_n = geo.bit_split(args.length)
        cell = geo.decode_geohash(label)
        payload.update({
            "lat_bits": lat_n, "lng_bits": lng_n,
            "lat_error_deg": cell.lat_error, "lng_error_deg": cell.lng_error,
        })
        if args.verbose:
            lines.append(f"bits: {lat_n} latitude + {lng_n} longitude")
            lines.append(f"error: ±{cell.lat_error:g}° lat, ±{cell.lng_error:g}° lng")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_decode_geo(args) -> int:
    cell = semdns.geo.decode_geohash(args.label)
    center = cell.center
    payload = {
        "command": "decode-geo",
        "latitude": center.latitude, "longitude": center.longitude,
        "lat_error_deg": cell.lat_error, "lng_error_deg": cell.lng_error,
    }
    _emit(args, payload,
          f"{center.latitude:.6f} {center.longitude:.6f} "
          f"(±{cell.lat_error:g}° lat, ±{cell.lng_error:g}° lng)")
    return EXIT_OK


def cmd_encode_tree(args) -> int:
    registry = _load_registry(args)
    tree = registry.tree(args.context)
    ident = semdns.contexts.encode_tree_path(tree, args.path, registry.lookup(args.context))
    _emit(args, {"command": "encode-tree", "label": ident.label,
                 "partial": ident.partial}, ident.label)
    return EXIT_OK


def cmd_encode_logical(args) -> int:
    registry = _load_registry(args)
    contexts = semdns.contexts
    ident = contexts.encode_logical(
        contexts.LogicalLocation(args.building, args.floor, args.room),
        registry.lookup(args.context),
    )
    _emit(args, {"command": "encode-logical", "label": ident.label}, ident.label)
    return EXIT_OK


def cmd_derive_name(args) -> int:
    if args.key_hex:
        key = bytes.fromhex(args.key_hex)
    elif args.key_file:
        with open(args.key_file, "rb") as fh:
            key = fh.read()
    else:
        key = args.key.encode()
    name = semdns.names.derive_name(key)
    eui = semdns.names.derive_eui64(name)
    payload = {"command": "derive-name", "label": name.label,
               "digest_hex": name.digest.hex(), "eui64": str(eui)}
    _emit(args, payload, f"{name.label}\neui64: {eui}")
    return EXIT_OK


def cmd_register(args) -> int:
    host, port = _server_addr(args.server)
    reg = DeviceRegistration(
        instance=args.instance,
        identifier=args.identifier,
        port=args.port,
        target=parse_name(args.target),
        txt=tuple(kv.split("=", 1) for kv in args.txt),
        ttl=args.ttl,
    )
    reply = client.register_device(
        host, port, parse_name(args.zone), DEFAULT_SERVICE, reg, secret=args.secret)
    if reply.rcode != RCODE_NOERROR:
        return _rcode_exit(reply, "update refused")
    statuses = [
        (name_text(r.owner), r.rdata.text.split("=", 1)[1])
        for r in reply.additional
    ]
    payload = {"command": "register",
               "created": [{"owner": o, "status": s} for o, s in statuses]}
    _emit(args, payload, "\n".join(f"{o} ({s})" for o, s in statuses))
    return EXIT_OK


def cmd_update_txt(args) -> int:
    host, port = _server_addr(args.server)
    owner = parse_name(args.owner)
    if args.delete:
        record = client.txt_delete_record(owner, args.key)
    else:
        record = client.txt_update_record(owner, args.key, args.value or "", args.ttl)
    reply = client.send_update(host, port, parse_name(args.zone), (record,), secret=args.secret)
    if reply.rcode != RCODE_NOERROR:
        return _rcode_exit(reply, "update refused")
    _emit(args, {"command": "update-txt", "owner": name_text(owner), "key": args.key},
          f"updated {args.key} at {name_text(owner)}")
    return EXIT_OK


def cmd_query(args) -> int:
    host, port = _server_addr(args.server)
    qtype = TYPE_CODES.get(args.qtype.upper())
    if qtype is None:
        print(f"error: unknown query type {args.qtype!r}", file=sys.stderr)
        return EXIT_USAGE
    reply = client.query(host, port, parse_name(args.name), qtype)
    return _print_sections(reply, args)


def cmd_axfr(args) -> int:
    host, port = _server_addr(args.server)
    reply = client.axfr(host, port, parse_name(args.name))
    return _print_sections(reply, args)


def cmd_ixfr(args) -> int:
    host, port = _server_addr(args.server)
    reply = client.ixfr(host, port, parse_name(args.name), args.serial)
    return _print_sections(reply, args)


def cmd_export_zone(args) -> int:
    if args.zone_file:
        with open(args.zone_file, encoding="utf-8") as fh:
            zone = Zone.from_master_file(fh)
        text = zone.export_master_file()
    else:
        host, port = _server_addr(args.server)
        reply = client.axfr(host, port, parse_name(args.zone))
        if reply.rcode != RCODE_NOERROR:
            return _rcode_exit(reply, "transfer failed")
        # strip the trailing SOA of the transfer framing
        records = list(reply.answers[:-1]) if len(reply.answers) > 1 else list(reply.answers)
        text = export_master_file(parse_name(args.zone), records)
    if args.json:
        print(json.dumps({"command": "export-zone", "master_file": text}))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_serve(args) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        journal_file=args.journal,
        update_secret=args.secret or os.environ.get("SEMDNS_UPDATE_SECRET"),
        allowed_sources=tuple(args.allow) if args.allow else None,
    )
    try:
        with open(args.zone_file, encoding="utf-8") as fh:
            zone = Zone.from_master_file(
                fh, policy=SplitPolicy(args.split_mode, args.split_length))
    except OSError as exc:
        print(f"error: cannot read zone file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        srv = DnsServer(zone, config)
    except OSError as exc:
        print(f"error: cannot bind {config.host}:{config.port}: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    print(f"serving {name_text(zone.origin)} on {config.host}:{srv.port}", file=sys.stderr)
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        srv.shutdown()
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="semdns", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("encode-geo", cmd_encode_geo, "encode WGS84 coordinates as a geohash label")
    p.add_argument("latitude", type=float)
    p.add_argument("longitude", type=float)
    p.add_argument("length", type=int, help="label length in symbols (1..12)")
    p.add_argument("--verbose", action="store_true", help="show bit split and error bounds")

    p = add("decode-geo", cmd_decode_geo, "decode a geohash label to its center and errors")
    p.add_argument("label")

    p = add("encode-tree", cmd_encode_tree, "encode a semantic-tree path")
    p.add_argument("path", nargs="*", help="child labels from the root, e.g. properties temperature")
    p.add_argument("--context", type=int, default=1)
    p.add_argument("--registry", help="context registry file (defaults to the built-in registry)")

    p = add("encode-logical", cmd_encode_logical, "encode building/floor/room")
    p.add_argument("building", type=int)
    p.add_argument("floor", type=int)
    p.add_argument("room", type=int)
    p.add_argument("--context", type=int, default=2)
    p.add_argument("--registry")

    p = add("derive-name", cmd_derive_name, "self-certifying name and EUI64 from a public key")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--key", help="key given as text")
    group.add_argument("--key-hex", help="key given as hex bytes")
    group.add_argument("--key-file", help="read key bytes from a file")

    def add_net(name, func, help_):
        p = add(name, func, help_)
        p.add_argument("--server", help="host[:port]; also $SEMDNS_SERVER")
        return p

    p = add_net("register", cmd_register, "register a device (SRV/PTR/TXT) over dynamic UPDATE")
    p.add_argument("instance", help="instance label, e.g. temperature")
    p.add_argument("identifier", help="identifier label, e.g. dr56")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--target", required=True, help="target host name")
    p.add_argument("--txt", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--ttl", type=int)
    p.add_argument("--zone", default=".")
    p.add_argument("--secret")

    p = add_net("update-txt", cmd_update_txt, "set or delete key=value TXT data")
    p.add_argument("owner")
    p.add_argument("key")
    p.add_argument("value", nargs="?")
    p.add_argument("--ttl", type=int, default=3600)
    p.add_argument("--delete", action="store_true")
    p.add_argument("--zone", default=".")
    p.add_argument("--secret")

    p = add_net("query", cmd_query, "query the server, dig-style output")
    p.add_argument("name")
    p.add_argument("qtype", nargs="?", default="ANY")

    p = add_net("axfr", cmd_axfr, "full zone (or subtree) transfer")
    p.add_argument("name", nargs="?", default=".")

    p = add_net("ixfr", cmd_ixfr, "incremental transfer from a known serial")
    p.add_argument("name", nargs="?", default=".")
    p.add_argument("--serial", type=int, required=True)

    p = add_net("export-zone", cmd_export_zone, "print the zone as master-file text")
    p.add_argument("--zone-file", help="canonicalize a local master file instead of asking a server")
    p.add_argument("--zone", default=".")

    p = add("serve", cmd_serve, "run the authoritative server")
    p.add_argument("--zone-file", required=True)
    p.add_argument("--journal", help="append-only journal path for IXFR history")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.add_argument("--secret", help="shared secret for dynamic updates; also $SEMDNS_UPDATE_SECRET")
    p.add_argument("--allow", action="append", help="allowed update source address (repeatable)")
    p.add_argument("--split-mode", default="static", choices=["static", "dynamic"])
    p.add_argument("--split-length", type=int, default=2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:  # every codec and record error subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except client.ClientError as exc:
        print(f"network error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NETWORK


if __name__ == "__main__":
    sys.exit(main())
