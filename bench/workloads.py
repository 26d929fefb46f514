"""The three workloads: their zones, their operation mix, and the gen
that sends each operation through ``semdns.client`` and checks the reply
against the reference model.

Every choice is drawn from ``random.Random`` seeded by the workload name
and ``--seed``, so a seed fixes the zone and the whole operation sequence.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass

from semdns import client, geo
from semdns.records import TYPE_A, TYPE_PTR, TYPE_SRV, TYPE_TXT
from semdns.wire import RCODE_NOERROR, RCODE_NXDOMAIN
from semdns.zone import DeviceRegistration

import refmodel as rm
from refmodel import Device, Model, Replica

UPDATE_KINDS = frozenset({"txt_set", "txt_del", "join", "rereg"})
SENSOR_KINDS = ("temp", "hum", "co2", "lux", "occ", "noise")
CAMPUS = (44.7650, 10.3110)  # campus centre the logical zone sits at


@dataclass(frozen=True)
class Spec:
    """One workload: zone shape, operation weights and IXFR cadence."""

    name: str
    zone: str  # "campus" (logical identifiers) or "geo" (8-symbol geohashes)
    size: int  # campus: buildings of 4 floors x 8 rooms; geo: devices
    smoke_size: int
    weights: tuple[tuple[str, int], ...]
    browse_lengths: tuple[int, ...]  # identifier prefix lengths a PTR browse uses
    ixfr_every: int  # the secondary polls IXFR after this many mutations


# Each mix keeps one kind of operation a clear majority of its reads and of its
# writes, so that each median falls inside one cost mode, not in a gap between two.
SPECS = {
    # ~240 devices; resolves dominate, so the per-message path shows
    "lookup": Spec("lookup", "campus", 4, 1, (
        ("srv", 27), ("txt", 27), ("a", 24), ("absent", 6), ("browse", 2),
        ("txt_set", 10), ("txt_del", 2), ("join", 1), ("rereg", 1),
    ), (3, 5), 20),
    # 10k devices; every read scans the zone, browses at 4 and 6 symbols
    "discover": Spec("discover", "geo", 10_000, 300, (
        ("srv", 21), ("txt", 21), ("a", 21), ("absent", 3), ("browse", 14),
        ("txt_set", 16), ("txt_del", 1), ("join", 2), ("rereg", 1),
    ), (4, 6), 10),
    # a few thousand devices and mostly writes, joins derive ids with the codec
    "churn": Spec("churn", "geo", 3_000, 200, (
        ("srv", 6), ("txt", 6), ("a", 4), ("absent", 2), ("browse", 4),
        ("txt_set", 10), ("txt_del", 5), ("join", 55), ("rereg", 8),
    ), (4, 6), 5),
}

PREFIX4_CAP = 1200  # keeps every PTR browse answer under 64 KiB on TCP


def _gateways(count: int) -> dict[tuple[str, ...], str]:
    return {("gw%d" % i, "hosts") + rm.ORIGIN: "10.%d.%d.%d" % (i >> 16, (i >> 8) & 255, i & 255)
            for i in range(count)}


class World:
    """Seeded generator of device placements for one zone shape."""

    def __init__(self, spec: Spec, seed: int, smoke: bool):
        self.spec = spec
        self.rng = random.Random(f"{spec.name}:{seed}:zone")
        size = spec.smoke_size if smoke else spec.size
        self.serial_no = 0
        if spec.zone == "campus":
            floors, rooms = 4, 8
            self.cities = [CAMPUS]
            self.model = Model(_gateways(size * floors))
            gws = list(self.model.gateways)
            for b in range(size):
                for f in range(floors):
                    for r in range(rooms):
                        ident = rm.logical_id(b, f, r)
                        for kind in self.rng.sample(SENSOR_KINDS, self.rng.randint(1, 3)):
                            self.model.add(self._device(kind, ident, gws[b * floors + f]))
        else:
            self.cities = [(self.rng.uniform(-45, 60), self.rng.uniform(-150, 150))
                           for _ in range(12)]
            self.model = Model(_gateways(max(4, size // 25)))
            self.gateway_names = list(self.model.gateways)
            self.prefix4 = Counter()
            while len(self.model.devices) < size:
                self.model.add(self.new_geo_device(rm.geohash))

    def _device(self, instance, ident, target, point=(0.0, 0.0)) -> Device:
        txt = {"val": str(self.rng.randrange(1000))}
        if self.rng.random() < 0.5:
            txt["bat"] = str(self.rng.randrange(100))
        return Device(instance, ident, self.rng.randrange(1024, 65536), target, txt, point)

    def point(self) -> tuple[float, float]:
        lat, lng = self.rng.choice(self.cities)
        return (lat + self.rng.gauss(0, 0.15), lng + self.rng.gauss(0, 0.2))

    def new_geo_device(self, encode) -> Device:
        """A device near a city, placed so no 4-symbol prefix overfills."""
        while True:
            point = self.point()
            ident = encode(point[0], point[1], 8)
            if self.prefix4[ident[:4]] < PREFIX4_CAP:
                break
        self.prefix4[ident[:4]] += 1
        self.serial_no += 1
        target = self.rng.choice(self.gateway_names)
        return self._device("d%05d" % self.serial_no, ident, target, point)


def _codec_geohash(lat: float, lng: float, length: int) -> str:
    return geo.encode_geohash(geo.GeoPoint(lat, lng), length)


class LoadGenerator:
    """Closed-loop load generator: one request outstanding at a time."""

    def __init__(self, spec: Spec, seed: int, world: World, host: str, port: int):
        self.spec, self.world, self.model = spec, world, world.model
        self.host, self.port = host, port
        self.rng = random.Random(f"{spec.name}:{seed}:ops")
        kinds, weights = zip(*spec.weights)
        self._kinds, self._cum = kinds, list(itertools.accumulate(weights))
        self.replica = Replica(self.model.record_set(), self.model.serial)
        self.pending_mutations = 0
        self.absent_no = 0
        self.mismatches: list[str] = []  # replies that differ from the model
        self.failures: list[str] = []  # exchanges that raised

    # -- choosing ---------------------------------------------------------

    def next_kind(self) -> str:
        if self.pending_mutations >= self.spec.ixfr_every:
            return "ixfr"
        return self.rng.choices(self._kinds, cum_weights=self._cum)[0]

    def run_op(self) -> tuple[str, int, bool]:
        """Send the next operation; returns (kind, latency in ns, failed)."""
        kind = self.next_kind()
        try:
            latency, check = getattr(self, "_op_" + kind)()
        except (client.ClientError, OSError, ValueError) as exc:
            self.failures.append(f"{kind}: {exc!r}")
            return kind, 0, True
        problem = check()
        if problem:
            self.mismatches.append(f"{kind}: {problem}")
        return kind, latency, False

    def _timed(self, call):
        t0 = time.perf_counter_ns()
        reply = call()
        return time.perf_counter_ns() - t0, reply

    # -- reads ------------------------------------------------------------

    def _device(self) -> Device:
        return self.rng.choice(self.model.devices)

    def _query(self, name, qtype, expected: set):
        latency, reply = self._timed(lambda: client.query(self.host, self.port, name, qtype))
        return latency, lambda: _same(reply, RCODE_NOERROR, [rm.norm(r) for r in reply.answers], expected)

    def _op_srv(self):
        dev = self._device()
        return self._query(dev.owner, TYPE_SRV,
                           {(dev.owner, rm.TTL, rm.T_SRV, (10, 20, dev.port, dev.target))})

    def _op_txt(self):
        dev = self._device()
        return self._query(dev.owner, TYPE_TXT, {r for r in dev.records() if r[2] == rm.T_TXT})

    def _op_a(self):
        gw = self._device().target
        return self._query(gw, TYPE_A, {(gw, rm.TTL, rm.T_A, self.model.gateways[gw])})

    def _op_absent(self):
        self.absent_no += 1
        name = ("nx%d" % self.absent_no,) + rm.id_owner(self._device().ident)
        latency, reply = self._timed(lambda: client.query(self.host, self.port, name, TYPE_SRV))
        want = RCODE_NOERROR if self.model.exists(name) else RCODE_NXDOMAIN
        return latency, lambda: "" if reply.rcode == want else f"rcode {reply.rcode}, wanted {want}"

    def _op_browse(self):
        prefix = self._device().ident[: self.rng.choice(self.spec.browse_lengths)]
        qname = rm.id_owner(prefix)
        expected = {(qname, rm.TTL, rm.T_PTR, owner) for owner in self.model.ptr_set(prefix)}
        return self._query(qname, TYPE_PTR, expected)

    def _op_ixfr(self):
        self.pending_mutations = 0
        latency, reply = self._timed(
            lambda: client.ixfr(self.host, self.port, rm.ORIGIN, self.replica.serial))

        def check():
            if reply.rcode != RCODE_NOERROR:
                return f"rcode {reply.rcode}"
            problem = self.replica.apply(reply.answers)
            if not problem and self.replica.serial != self.model.serial:
                problem = f"serial {self.replica.serial}, model has {self.model.serial}"
            return problem
        return latency, check

    # -- writes -----------------------------------------------------------

    def _update(self, records):
        latency, reply = self._timed(
            lambda: client.send_update(self.host, self.port, rm.ORIGIN, records))
        self.model.serial += 1
        self.pending_mutations += 1
        return latency, lambda: "" if reply.rcode == RCODE_NOERROR else f"rcode {reply.rcode}"

    def _op_txt_set(self):
        dev = self._device()
        key, value = self.rng.choice(("val", "bat")), str(self.rng.randrange(1000))
        dev.txt[key] = value
        return self._update([client.txt_update_record(dev.owner, key, value, rm.TTL)])

    def _op_txt_del(self):
        dev = self._device()
        if not dev.txt:
            return self._op_txt_set()
        key = sorted(dev.txt)[0]
        del dev.txt[key]
        return self._update([client.txt_delete_record(dev.owner, key)])

    def _register(self, dev: Device, changed: bool, t0: int):
        reg = DeviceRegistration(dev.instance, dev.ident, dev.port, dev.target,
                                 txt=tuple(sorted(dev.txt.items())))
        reply = client.register_device(self.host, self.port, rm.ORIGIN, rm.SERVICE, reg)
        latency = time.perf_counter_ns() - t0
        status = "registered" if changed else "unchanged"
        if changed:
            self.model.serial += 1
            self.pending_mutations += 1
        expected = {(dev.owner, 0, rm.T_TXT, "status=" + status)}
        return latency, lambda: _same(reply, RCODE_NOERROR, [rm.norm(r) for r in reply.additional], expected)

    def _op_rereg(self):
        return self._register(self._device(), False, time.perf_counter_ns())

    def _op_join(self):
        """A new device derives its geohash and DevEUI with the codec, then registers."""
        t0 = time.perf_counter_ns()
        if self.spec.zone == "geo":
            dev = self.world.new_geo_device(_codec_geohash)
            label = dev.ident
        else:
            room = self._device()
            self.world.serial_no += 1
            dev = Device("j%05d" % self.world.serial_no, room.ident, room.port, room.target,
                         {}, self.world.point())
            label = _codec_geohash(*dev.point, 8)
            dev.txt["geo"] = label
        point = geo.GeoPoint(*dev.point)
        eui = geo.make_geo_identifier(point).to_bytes()
        dev.txt["eui"] = eui.hex()
        self.model.add(dev)
        latency, check = self._register(dev, True, t0)

        def check_codec():
            if label != rm.geohash(*dev.point, 8):
                return f"geohash {label} differs from the reference encoder"
            if not geo.decode_geohash(label).contains(point):
                return f"decode_geohash({label}) does not contain {dev.point}"
            if int.from_bytes(eui, "big") != rm.geo_eui(*dev.point):
                return f"DevEUI {eui.hex()} differs from the reference encoder"
            return check()
        return latency, check_codec

    # -- end of run ---------------------------------------------------------

    def final_check(self) -> list[str]:
        """Bring the replica up to date and compare it with the model."""
        try:
            _, check = self._op_ixfr()
            problem = check()
        except (client.ClientError, OSError, ValueError) as exc:
            problem = repr(exc)
        if not problem and self.replica.records != self.model.record_set():
            extra = self.replica.records - self.model.record_set()
            missing = self.model.record_set() - self.replica.records
            problem = f"replica differs from the model: {len(extra)} extra, {len(missing)} missing"
        return self.mismatches + (["final ixfr: " + problem] if problem else [])


def _same(reply, rcode: int, got: list, expected: set) -> str:
    if reply.rcode != rcode:
        return f"rcode {reply.rcode}, wanted {rcode}"
    if len(got) != len(set(got)) or set(got) != expected:
        return f"{len(got)} records differ from the {len(expected)} the model expects"
    return ""

