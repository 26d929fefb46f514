"""Authoritative zone state: records, journaled serials, discovery.

The zone is the single source of truth the server answers from.  Every
mutation (device registration, TXT data update, CNAME fan-out) goes
through one writer path that bumps the SOA serial and appends a diff to
the change journal, so incremental transfers can replay any retained
serial.  Serials follow RFC 1982 arithmetic: they wrap from 2**32-1 to 0.
Reads copy under the same lock; there are no torn snapshots.

Device discovery follows DNS-SD: registration stores an SRV (and
optional TXT data) at ``<instance>.<identifier labels>.<service>`` plus
a PTR from the identifier subdomain to the instance.  Shorter identifier
prefixes simply match more devices.

Records live in one insertion-ordered list (AXFR and export order) and
three read indexes that the writer path keeps current:

- an owner map, name -> that name's records in list order, which serves
  ``records_at``, CNAME chasing and the TXT store;
- child counts, name -> how many of its child names are live (hold
  records, or have a live name below them), so ``has_owner`` answers
  empty non-terminals and NXDOMAIN in O(1).  Counting live children
  rather than every owner below lets an update stop at the first
  ancestor that was already live;
- a sorted list of (identifier, instance) for every PTR under
  ``<service>.<origin>``, which ``ptr_discover`` bisects: a prefix
  browse costs O(log N + k) for k matches.

Three paths still scan the list: the duplicate check in
``register_device``, the removal of deleted records in ``_mutate`` and
``subtree`` (AXFR below the apex).
"""

from __future__ import annotations

import itertools
import json
import threading
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import wire
from .bits import ALPHABET
from .records import (
    CNAME, NS, PTR, SOA, SRV, TXT,
    Name, ResourceRecord,
    TYPE_CNAME, TYPE_NS, TYPE_PTR, TYPE_SOA, TYPE_TXT,
    export_master_file, import_master_file, is_subdomain, make_txt, name_text,
    parse_record_line,
)

DEFAULT_SERVICE: Name = ("_iot", "_udp")
DEFAULT_TTL = 100  # discovery records
DEFAULT_JOURNAL_RETENTION = 1024
SIZE_GUARD_BYTES = wire.MAX_UDP_PAYLOAD
_SERIAL_MOD = 1 << 32


class ZoneError(ValueError):
    pass


class SizeGuardError(ZoneError):
    """Record cannot go in a datagram response: past the byte cap, or not
    encodable at all (such as an owner name over 255 wire bytes)."""


@dataclass(frozen=True)
class SplitPolicy:
    """How identifier labels decompose into nested subdomains.

    static: every subdomain is ``length`` symbols.
    dynamic: each subdomain publishes its children's length as a
      ``len=N`` TXT record; splitting walks those.
    multi: canonical split like static, with CNAME fan-out records
      making alternative spellings resolve to the same owners.
    """

    mode: str = "static"
    length: int = 2

    def __post_init__(self):
        if self.mode not in ("static", "dynamic", "multi"):
            raise ZoneError(f"unknown split mode {self.mode!r}")
        if self.length < 1:
            raise ZoneError("split length must be >= 1")


@dataclass(frozen=True)
class DeviceRegistration:
    instance: str
    identifier: str
    port: int
    target: Name
    priority: int = 10
    weight: int = 20
    txt: tuple[tuple[str, str], ...] = ()
    ttl: Optional[int] = None


@dataclass(frozen=True)
class JournalEntry:
    serial: int  # serial after applying this diff
    deletions: tuple[ResourceRecord, ...]
    additions: tuple[ResourceRecord, ...]


@dataclass(frozen=True)
class IxfrDiff:
    """Per-serial steps from the client's serial to now; or a fallback."""

    from_serial: int
    to_serial: int
    steps: tuple[JournalEntry, ...]
    fallback: bool = False  # true: journal exhausted, do a full transfer


class Zone:
    def __init__(
        self,
        origin: Name = (),
        service: Name = DEFAULT_SERVICE,
        policy: SplitPolicy = SplitPolicy(),
        mname: Name = ("ns",),
        rname: Name = ("hostmaster",),
        serial: int = 1,
        refresh: int = 7200,
        retry: int = 900,
        expire: int = 86400,
        minimum: int = 100,
        default_ttl: int = DEFAULT_TTL,
        journal_retention: int = DEFAULT_JOURNAL_RETENTION,
    ):
        self.origin = origin
        self.service = service
        self.policy = policy
        self.default_ttl = default_ttl
        self.journal_retention = journal_retention
        self._soa_params = (mname, rname, refresh, retry, expire, minimum)
        self._serial = serial
        self._records: list[ResourceRecord] = []
        # the read indexes (see the module docstring); only the writer
        # path and from_master_file change them
        self._owners: dict[Name, tuple[ResourceRecord, ...]] = {}
        self._below: dict[Name, int] = {}
        self._ptrs: list[tuple[str, Name]] = []
        self._journal: list[JournalEntry] = []
        self._lock = threading.RLock()
        # set by the service to persist diffs as they happen
        self.on_mutate = None

    # -- reads --------------------------------------------------------------

    @property
    def serial(self) -> int:
        with self._lock:
            return self._serial

    def soa_record(self, serial: Optional[int] = None) -> ResourceRecord:
        mname, rname, refresh, retry, expire, minimum = self._soa_params
        with self._lock:
            if serial is None:
                serial = self._serial
            return ResourceRecord(
                self.origin,
                self.default_ttl,
                SOA(mname, rname, serial, refresh, retry, expire, minimum),
            )

    def records(self) -> list[ResourceRecord]:
        """All records except the SOA, in insertion order."""
        with self._lock:
            return list(self._records)

    def records_at(self, owner: Name, rtype: Optional[int] = None) -> list[ResourceRecord]:
        with self._lock:
            here = self._owners.get(owner, ())
            if rtype is None:
                return list(here)
            return [r for r in here if r.rdata.rtype == rtype]

    def subtree(self, apex: Name) -> list[ResourceRecord]:
        with self._lock:
            return [r for r in self._records if is_subdomain(r.owner, apex)]

    def has_owner(self, owner: Name) -> bool:
        if owner == self.origin:
            return True
        with self._lock:
            return owner in self._owners or owner in self._below

    def journal(self) -> list[JournalEntry]:
        with self._lock:
            return list(self._journal)

    # -- writer path --------------------------------------------------------

    def _mutate(
        self,
        deletions: Sequence[ResourceRecord],
        additions: Sequence[ResourceRecord],
    ) -> JournalEntry:
        with self._lock:
            for rr in deletions:
                try:
                    self._records.remove(rr)
                except ValueError:
                    raise ZoneError(f"cannot delete missing record {rr.render()}") from None
                self._unindex(rr)
            self._records.extend(additions)
            for rr in additions:
                self._index(rr)
            self._serial = (self._serial + 1) % _SERIAL_MOD
            entry = JournalEntry(self._serial, tuple(deletions), tuple(additions))
            self._journal.append(entry)
            if len(self._journal) > self.journal_retention:
                del self._journal[: len(self._journal) - self.journal_retention]
            if self.on_mutate is not None:
                self.on_mutate(entry)
            return entry

    def _index(self, rr: ResourceRecord) -> None:
        here = self._owners.get(rr.owner)
        if here is None:
            self._link(rr.owner)
            self._owners[rr.owner] = (rr,)
        else:
            self._owners[rr.owner] = here + (rr,)
        ptr = self._ptr_entry(rr)
        if ptr is not None:
            insort(self._ptrs, ptr)

    def _unindex(self, rr: ResourceRecord) -> None:
        here = self._owners[rr.owner]
        i = here.index(rr)
        if len(here) > 1:
            self._owners[rr.owner] = here[:i] + here[i + 1:]
        else:
            del self._owners[rr.owner]
            self._unlink(rr.owner)
        ptr = self._ptr_entry(rr)
        if ptr is not None:
            del self._ptrs[bisect_left(self._ptrs, ptr)]

    def _link(self, name: Name) -> None:
        """``name`` is about to get its first record.  Unless a live name
        below already made it live, count it at its parent, and go on up
        while the parent was not live either."""
        below, owners = self._below, self._owners
        if name in below:
            return
        while len(name) > 1:
            parent = name[1:]
            count = below.get(parent, 0)
            # a new key takes the owner map's tuple for the name, if any
            below[parent if count else self._known(parent)] = count + 1
            if count or parent in owners:
                return
            name = parent

    def _unlink(self, name: Name) -> None:
        """``name`` has lost its last record: undo what _link counted."""
        below, owners = self._below, self._owners
        if name in below:
            return
        while len(name) > 1:
            parent = name[1:]
            count = below[parent] - 1
            if count:
                below[parent] = count
                return
            del below[parent]
            if parent in owners:
                return
            name = parent

    def _ptr_entry(self, rr: ResourceRecord) -> Optional[tuple[str, Name]]:
        """The ``_ptrs`` entry of a PTR under <service>.<origin>, else None."""
        if rr.rdata.rtype != TYPE_PTR:
            return None
        ident = self._identifier_of(rr.owner)
        return None if ident is None else (ident, rr.rdata.target)

    def _known(self, name: Name) -> Name:
        """The tuple the owner map already holds for ``name``, else ``name``:
        records built by the zone share the name tuples it indexes."""
        here = self._owners.get(name)
        return here[0].owner if here else name

    def add_record(self, record: ResourceRecord) -> JournalEntry:
        """Generic record insertion (fixtures, glue A records, TLSA-style data)."""
        return self._mutate((), (record,))

    # -- device registration ------------------------------------------------

    def instance_owner(self, reg: DeviceRegistration) -> Name:
        return (reg.instance,) + self.identifier_owner(reg.identifier)

    def identifier_owner(self, identifier: str) -> Name:
        labels = split_labels(identifier, self.policy, self)
        return tuple(labels) + self.service + self.origin

    def register_device(self, reg: DeviceRegistration) -> tuple[bool, Name]:
        """Add the SRV/PTR/TXT records for a device.

        Returns (changed, instance owner name).  Re-registering an
        identical device is a no-op with changed=False.  Raises
        RecordError for a field the wire cannot carry and SizeGuardError
        for a record no datagram answer can hold; nothing is added then.
        """
        if not reg.instance or not reg.target:
            raise ZoneError("instance and target must be nonempty")
        ttl = reg.ttl if reg.ttl is not None else self.default_ttl
        with self._lock:
            id_owner = self._known(self.identifier_owner(reg.identifier))
            owner = self._known((reg.instance,) + id_owner)
            target = self._known(reg.target)
        wanted = [
            ResourceRecord(owner, ttl, SRV(reg.priority, reg.weight, reg.port, target)),
            ResourceRecord(id_owner, ttl, PTR(owner)),
        ]
        for key, value in reg.txt:
            wanted.append(ResourceRecord(owner, ttl, txt_pair(key, value)))
        for record in wanted:
            _check_size_guard(record)
        with self._lock:
            additions = [rr for rr in wanted if rr not in self._records]
            if not additions:
                return False, owner
            self._mutate((), additions)
        return True, owner

    # -- TXT data store ------------------------------------------------------

    def update_txt(self, owner: Name, key: str, value: str, ttl: Optional[int] = None) -> JournalEntry:
        """Set ``key=value`` data at an owner, replacing any previous value."""
        rdata = txt_pair(key, value)
        ttl = ttl if ttl is not None else self.default_ttl
        with self._lock:
            record = ResourceRecord(self._known(owner), ttl, rdata)
            _check_size_guard(record)
            old = [
                r for r in self.records_at(owner, TYPE_TXT)
                if txt_key(r.rdata) == key
            ]
            return self._mutate(old, (record,))

    def delete_txt(self, owner: Name, key: str) -> JournalEntry:
        with self._lock:
            old = [
                r for r in self.records_at(owner, TYPE_TXT)
                if txt_key(r.rdata) == key
            ]
            if not old:
                raise ZoneError(f"no TXT data {key!r} at {name_text(owner)}")
            return self._mutate(old, ())

    # -- discovery -----------------------------------------------------------

    def ptr_discover(self, qname: Name) -> set[Name]:
        """Instance names for every device whose identifier extends the
        prefix spelled by ``qname``.  Underscore-prefixed identifier
        labels are accepted and CNAME aliases are chased first.  The
        matches are one slice of the sorted PTR index."""
        with self._lock:
            for _ in range(8):
                alias = next((r for r in self._owners.get(qname, ())
                              if r.rdata.rtype == TYPE_CNAME), None)
                if alias is None:
                    break
                qname = alias.rdata.target
            else:
                raise ZoneError(f"CNAME chain too long at {name_text(qname)}")
            prefix = self._identifier_of(qname)
            if prefix is None:
                return set()
            # identifiers are ASCII, so every extension of prefix sorts below this bound
            ptrs = self._ptrs
            lo = bisect_left(ptrs, (prefix,))
            hi = bisect_left(ptrs, (prefix + "\U0010ffff",), lo)
            return {target for _, target in ptrs[lo:hi]}

    def _identifier_of(self, name: Name) -> Optional[str]:
        """Join the identifier chunks of a name under <service>.<origin>,
        right-to-left, stripping the query-side underscore convention."""
        suffix = self.service + self.origin
        if len(name) < len(suffix) or name[-len(suffix):] != suffix:
            return None
        chunks = name[: len(name) - len(suffix)]
        return "".join(c.lstrip("_") for c in reversed(chunks))

    # -- CNAME fan-out -------------------------------------------------------

    def generate_multi_cnames(
        self,
        parent_label: str,
        delegated: str,
        child_length: int,
        ns_target: Name,
        symbols: Optional[Sequence[str]] = None,
    ) -> JournalEntry:
        """Delegate ``<delegated>.<parent>`` and alias the flat spellings.

        Emits one NS record for the delegated subtree plus, for every
        child extension c, a CNAME ``<delegated>c.<parent>`` ->
        ``c.<delegated>.<parent>``.  ``symbols`` overrides the default
        child alphabet (all base32 strings of ``child_length``).
        """
        base = (parent_label,) + self.service + self.origin
        nested_apex = (delegated,) + base
        if symbols is None:
            symbols = ["".join(p) for p in itertools.product(ALPHABET, repeat=child_length)]
        additions: list[ResourceRecord] = []
        deletions: list[ResourceRecord] = []
        with self._lock:
            old_ns = self.records_at(nested_apex, TYPE_NS)
            new_ns = ResourceRecord(nested_apex, self.default_ttl, NS(ns_target))
            if [new_ns] != old_ns:
                deletions += old_ns
                additions.append(new_ns)
            for child in symbols:
                alias_owner = (delegated + child,) + base
                clash = [
                    r for r in self.records_at(alias_owner) if r.rtype != TYPE_CNAME
                ]
                if clash:
                    raise ZoneError(
                        f"alias owner {name_text(alias_owner)} already holds non-CNAME records"
                    )
                cname = ResourceRecord(
                    alias_owner, self.default_ttl, CNAME((child,) + nested_apex)
                )
                if not self.records_at(alias_owner, TYPE_CNAME):
                    additions.append(cname)
            return self._mutate(deletions, additions)

    # -- transfers -----------------------------------------------------------

    def axfr_snapshot(self) -> list[ResourceRecord]:
        """Full transfer framing: SOA first and last, records between."""
        with self._lock:
            soa = self.soa_record()
            return [soa, *self._records, soa]

    def ixfr_diff(self, from_serial: int) -> IxfrDiff:
        with self._lock:
            current = self._serial
            if from_serial == current or serial_gt(from_serial, current):
                return IxfrDiff(from_serial, current, ())
            steps = [e for e in self._journal if serial_gt(e.serial, from_serial)]
            # gapless only if the journal still reaches back to from_serial+1
            if not steps or steps[0].serial != (from_serial + 1) % _SERIAL_MOD:
                return IxfrDiff(from_serial, current, (), fallback=True)
            return IxfrDiff(from_serial, current, tuple(steps))

    # -- master file ---------------------------------------------------------

    def export_master_file(self) -> str:
        with self._lock:
            return export_master_file(self.origin, [self.soa_record(), *self._records])

    @classmethod
    def from_master_file(cls, text: str, **kwargs) -> "Zone":
        origin, records = import_master_file(text)
        soas = [r for r in records if r.rtype == TYPE_SOA]
        if len(soas) != 1:
            raise ZoneError(f"master file must hold exactly one SOA, found {len(soas)}")
        soa = soas[0].rdata
        zone = cls(
            origin=origin,
            mname=soa.mname,
            rname=soa.rname,
            serial=soa.serial,
            refresh=soa.refresh,
            retry=soa.retry,
            expire=soa.expire,
            minimum=soa.minimum,
            **kwargs,
        )
        zone._records = [r for r in records if r.rtype != TYPE_SOA]
        zone._build_indexes()
        return zone

    def _build_indexes(self) -> None:
        """All three read indexes in one pass over the records and one sort."""
        grouped: dict[Name, list[ResourceRecord]] = {}
        for rr in self._records:
            grouped.setdefault(rr.owner, []).append(rr)
        self._owners, self._below = {}, {}
        for owner in sorted(grouped, key=len):  # parents first: _link finds their tuples
            self._link(owner)
            self._owners[owner] = tuple(grouped[owner])
        self._ptrs = sorted(filter(None, map(self._ptr_entry, self._records)))

    # -- journal persistence -------------------------------------------------

    def load_journal(self, entries: Iterable[JournalEntry]) -> None:
        """Adopt persisted history (entries at or below the current serial)."""
        with self._lock:
            self._journal = [e for e in entries
                             if e.serial == self._serial or serial_gt(self._serial, e.serial)]
            self._journal = self._journal[-self.journal_retention :]


def serial_gt(a: int, b: int) -> bool:
    """RFC 1982 §3.2: serial ``a`` comes after ``b``.  Two serials 2**31
    apart are unordered, neither after the other."""
    return a != b and (a - b) % _SERIAL_MOD < _SERIAL_MOD // 2


# ---------------------------------------------------------------------------
# TXT helpers (RFC 1464 key=value form)


def txt_pair(key: str, value: str) -> TXT:
    if not key or "=" in key:
        raise ZoneError(f"TXT key must be nonempty and contain no '=': {key!r}")
    return make_txt(f"{key}={value}")


def txt_key(rdata: TXT) -> Optional[str]:
    text = rdata.text
    if "=" not in text:
        return None
    return text.split("=", 1)[0]


def txt_value(rdata: TXT) -> Optional[str]:
    text = rdata.text
    if "=" not in text:
        return None
    return text.split("=", 1)[1]


def _check_size_guard(record: ResourceRecord) -> None:
    # a minimal one-answer response carrying this record must fit a datagram
    probe = wire.Message(
        qr=True, aa=True,
        questions=(wire.Question(record.owner, record.rtype),),
        answers=(record,),
    )
    try:
        size = len(wire.encode(probe))
    except wire.WireError as exc:
        raise SizeGuardError(f"record cannot be encoded: {exc}") from None
    if size > SIZE_GUARD_BYTES:
        raise SizeGuardError(
            f"record response would be {size} bytes, over the {SIZE_GUARD_BYTES}-byte cap"
        )


# ---------------------------------------------------------------------------
# Subdomain splitting


def split_labels(identifier: str, policy: SplitPolicy, zone: Optional[Zone] = None) -> list[str]:
    """Decompose an identifier into DNS labels, most-specific first.

    Joining the result right-to-left always reproduces the identifier.
    """
    if not identifier:
        raise ZoneError("empty identifier")
    if policy.mode in ("static", "multi"):
        chunks = [
            identifier[i : i + policy.length]
            for i in range(0, len(identifier), policy.length)
        ]
        return list(reversed(chunks))
    # dynamic: walk len= declarations downward from the service apex
    if zone is None:
        raise ZoneError("dynamic splitting needs the zone for len= lookups")
    chunks = []
    owner = zone.service + zone.origin
    rest = identifier
    while rest:
        length = _declared_length(zone, owner)
        if length is None:
            raise ZoneError(
                f"dynamic split: no len= TXT at {name_text(owner)} "
                f"with {len(rest)} identifier symbols left"
            )
        chunk, rest = rest[:length], rest[length:]
        chunks.append(chunk)
        owner = (chunk,) + owner
    return list(reversed(chunks))


def _declared_length(zone: Zone, owner: Name) -> Optional[int]:
    for r in zone.records_at(owner, TYPE_TXT):
        if txt_key(r.rdata) == "len":
            try:
                return int(txt_value(r.rdata))
            except (TypeError, ValueError):
                raise ZoneError(f"malformed len= TXT at {name_text(owner)}") from None
    return None


def join_labels(labels: Sequence[str]) -> str:
    """Inverse of split_labels: most-specific-first labels to identifier."""
    return "".join(reversed([l.lstrip("_") for l in labels]))


# ---------------------------------------------------------------------------
# Journal persistence (append-only JSON lines)


def journal_entry_to_json(entry: JournalEntry) -> str:
    return json.dumps({
        "serial": entry.serial,
        "del": [r.render() for r in entry.deletions],
        "add": [r.render() for r in entry.additions],
    })


def journal_entry_from_json(line: str) -> JournalEntry:
    obj = json.loads(line)
    return JournalEntry(
        obj["serial"],
        tuple(parse_record_line(l) for l in obj["del"]),
        tuple(parse_record_line(l) for l in obj["add"]),
    )


class JournalFile:
    """Append-only on-disk journal so IXFR history survives restarts.

    One append handle stays open from the first append until ``close``;
    each entry is written and flushed as one line, so the OS holds it
    before ``append`` returns.
    """

    def __init__(self, path):
        self.path = path
        self._fh = None

    def append(self, entry: JournalEntry) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(journal_entry_to_json(entry) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Release the append handle; a later append opens it again."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def load(self) -> list[JournalEntry]:
        try:
            with open(self.path, encoding="utf-8") as fh:
                return [journal_entry_from_json(line) for line in fh if line.strip()]
        except FileNotFoundError:
            return []
