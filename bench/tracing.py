"""Span recording around the calls into each layer, and the per-layer
metrics computed from the spans of one traced run.

A span is ``[name index, start ns, end ns, parent span index, tag]``.
Spans nest per thread, live in memory and are written out once, at the
end.  Both processes read ``time.perf_counter_ns`` (CLOCK_MONOTONIC on
Linux), so the server's spans and the generator's spans share one clock
and are joined by DNS message id within each client exchange.
"""

from __future__ import annotations

import bisect
import json
import statistics
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, owner, attr: str, name: str, tag=None, classmethod_=False) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``tag(args, result)`` may attach a value to the span.
        """
        func = getattr(owner, attr)
        name_i = len(self.names)
        self.names.append(name)
        spans, local, lock = self.spans, self._local, self._lock

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            with lock:
                idx = len(spans)
                span = [name_i, 0, 0, stack[-1] if stack else -1, None]
                spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if tag is not None:
                span[4] = tag(args, result)
            return result

        setattr(owner, attr, staticmethod(traced) if classmethod_ else traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


class Trace:
    """Loaded spans of one process, indexed by name and parent."""

    def __init__(self, dump: dict):
        self.names = dump["names"]
        self.spans = dump["spans"]
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for i, (name_i, _, _, parent, _) in enumerate(self.spans):
            self.children[parent].append(i)
            self.by_name[self.names[name_i]].append(i)

    def name(self, i: int) -> str:
        return self.names[self.spans[i][0]]

    def dur(self, i: int) -> int:
        return self.spans[i][2] - self.spans[i][1]

    def self_ns(self, i: int) -> int:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def ancestors(self, i: int):
        parent = self.spans[i][3]
        while parent != -1:
            yield parent
            parent = self.spans[parent][3]


def _median_us(values) -> float:
    values = list(values)
    return statistics.median(values) / 1e3 if values else 0.0


def layer_metrics(server: Trace, gen: Trace) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: median per call unless a count is named."""
    def med(trace, name, fn=None):
        return _median_us((fn or trace.dur)(i) for i in trace.by_name[name])

    dispatch = server.by_name["server.dispatch"]
    children_of_dispatch = {c for d in dispatch for c in server.children[d]}

    # exchange minus the dispatches that served it (same id, inside its interval)
    starts = sorted((server.spans[d][1], d) for d in dispatch)
    start_keys = [s for s, _ in starts]
    overhead, fallbacks = [], 0
    for ex in gen.by_name["client.exchange"]:
        _, t0, t1, _, msg_id = gen.spans[ex]
        lo, hi = bisect.bisect_left(start_keys, t0), bisect.bisect_right(start_keys, t1)
        served = [d for _, d in starts[lo:hi] if server.spans[d][4][0] == msg_id]
        if served:
            overhead.append(gen.dur(ex) - sum(server.dur(d) for d in served))
        kinds = {gen.name(c) for c in gen.children[ex]}
        fallbacks += {"client.udp", "client.tcp"} <= kinds

    zone_spans = [i for n, ids in server.by_name.items() if n.startswith("zone.") for i in ids]
    outer_zone = [i for i in zone_spans
                  if not any(server.name(a).startswith("zone.") for a in server.ancestors(i))
                  and any(server.name(a) == "server.dispatch" for a in server.ancestors(i))]
    dispatch_ns = sum(server.dur(d) for d in dispatch)
    outer_zone_ns = sum(server.dur(i) for i in outer_zone)
    exchange_ns = sum(gen.dur(ex) for ex in gen.by_name["client.exchange"])
    queries = server.by_name["server.answer_query"]
    records_at_in_queries = sum(
        1 for i in server.by_name["zone.records_at"]
        if any(server.name(a) == "server.answer_query" for a in server.ancestors(i)))
    from_master = server.by_name["records.from_master_file"]

    us = "us"
    return {
        "client.exchange_us": (med(gen, "client.exchange"), us),
        "client.tcp_fallbacks": (fallbacks, "count"),
        "transport.overhead_us": (_median_us(overhead), us),
        "server.dispatch_us": (med(server, "server.dispatch"), us),
        "server.answer_query_self_us": (med(server, "server.answer_query", server.self_ns), us),
        "server.handle_update_self_us": (med(server, "server.handle_update", server.self_ns), us),
        "server.serve_ixfr_us": (med(server, "server.serve_ixfr"), us),
        "wire.decode_us": (_median_us(server.dur(i) for i in server.by_name["wire.decode"]
                                      if i in children_of_dispatch), us),
        "wire.encode_us": (_median_us(server.dur(i) for i in server.by_name["wire.encode"]
                                      if i in children_of_dispatch), us),
        "wire.reply_bytes": (statistics.median(server.spans[d][4][1] for d in dispatch)
                             if dispatch else 0, "bytes"),
        "zone.records_at_us": (med(server, "zone.records_at"), us),
        "zone.records_at_calls_per_query": (records_at_in_queries / len(queries)
                                            if queries else 0.0, "calls"),
        "zone.has_owner_us": (med(server, "zone.has_owner"), us),
        "zone.ptr_discover_us": (med(server, "zone.ptr_discover"), us),
        "zone.register_device_us": (med(server, "zone.register_device"), us),
        "zone.update_txt_us": (med(server, "zone.update_txt"), us),
        "zone.delete_txt_us": (med(server, "zone.delete_txt"), us),
        "zone.ixfr_diff_us": (med(server, "zone.ixfr_diff"), us),
        "zone.journal_append_us": (med(server, "zone.journal_append"), us),
        "zone.share_of_dispatch": (outer_zone_ns / dispatch_ns if dispatch_ns else 0.0, "ratio"),
        "zone.share_of_exchange": (outer_zone_ns / exchange_ns if exchange_ns else 0.0, "ratio"),
        "records.from_master_file_s": (server.dur(from_master[0]) / 1e9 if from_master else 0.0, "s"),
        "geo.encode_geohash_us": (med(gen, "geo.encode_geohash"), us),
        "geo.make_geo_identifier_us": (med(gen, "geo.make_geo_identifier"), us),
    }


def trace_server_layers(tracer: Tracer) -> None:
    """Wrap the public functions of the server-side layers."""
    from semdns import server, wire, zone

    tracer.wrap(server, "dispatch", "server.dispatch",
                tag=lambda args, out: [int.from_bytes(args[0][:2], "big"), len(out)])
    for fn in ("answer_query", "handle_update", "serve_ixfr"):
        tracer.wrap(server, fn, "server." + fn)
    tracer.wrap(wire, "decode", "wire.decode")
    tracer.wrap(wire, "encode", "wire.encode")
    for fn in ("records_at", "has_owner", "ptr_discover", "register_device",
               "update_txt", "delete_txt", "ixfr_diff"):
        tracer.wrap(zone.Zone, fn, "zone." + fn)
    tracer.wrap(zone.JournalFile, "append", "zone.journal_append")
    tracer.wrap(zone.Zone, "from_master_file", "records.from_master_file", classmethod_=True)


def trace_client_layers(tracer: Tracer) -> None:
    """Wrap the generator-side layers: the client and the codec."""
    from semdns import client, geo

    tracer.wrap(client, "exchange", "client.exchange", tag=lambda args, out: args[0].id)
    tracer.wrap(client, "_udp_exchange", "client.udp")
    tracer.wrap(client, "_tcp_exchange", "client.tcp")
    tracer.wrap(geo, "encode_geohash", "geo.encode_geohash")
    tracer.wrap(geo, "make_geo_identifier", "geo.make_geo_identifier")
