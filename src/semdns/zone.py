"""Authoritative zone state: records, journaled serials, discovery.

The zone is the single source of truth the server answers from.  Every
mutation (device registration, TXT data update, CNAME fan-out) goes
through one writer path that bumps the SOA serial and appends a diff to
the change journal, so incremental transfers can replay any retained
serial.  Writes made inside ``Zone.batch()`` (one dynamic UPDATE) share
one serial and one journal entry (RFC 2136 §3.7); the writer methods
return the entry they made, or None inside a batch.  Serials follow RFC
1982 arithmetic: they wrap from 2**32-1 to 0.  Reads take the same
lock, so none sees a write half done.

Device discovery follows DNS-SD: registration stores an SRV (and
optional TXT data) at ``<instance>.<identifier labels>.<service>`` plus
a PTR from the identifier subdomain to the instance.  Shorter identifier
prefixes simply match more devices.

Records live in one store, the owner map, and two sorted indexes that
the writer path keeps current.  The sorted indexes hold objects the
owner map already holds, not copies:

- the owner map, an insertion-ordered dict, name -> that name's records
  in the order they were added.  It is the store: ``records`` and AXFR
  read it grouped by owner, and it serves ``records_at`` and the TXT
  store.  Its key is the owner tuple of the first record at the name,
  and a deletion touches only the records at its owner;
- those owner names in one list, sorted by their labels read from the
  root down.  The names at or below a name are one contiguous run of
  it, so ``has_owner`` (empty non-terminals and NXDOMAIN) is one bisect
  and ``subtree`` (AXFR below the apex) is one slice: O(log N + k);
- the PTR records under ``<service>.<origin>``, sorted by (identifier,
  target), which ``ptr_discover`` bisects: a prefix browse costs
  O(log N + k) for k matches.

One path still scans every record: the duplicate check in
``register_device``.  It stays until the ``churn`` benchmark runs a fixed
number of operations: that run lasts a fixed time and is mostly joins,
so a faster join would grow its zone and show as a memory regression.

``records_at`` hands out the owner map's tuple itself, not a copy.
The writer path never changes a tuple in place: every change at an
owner stores a new one.  So a reader that keeps the tuple it read can
tell whether the owner has changed since with ``is``; the server's
datagram reply cache uses that tuple as the version of its entries.

The journal holds consecutive serials ending at the zone serial, so
the steps of an incremental transfer are one slice of it.
"""

from __future__ import annotations

import itertools
import json
import threading
from bisect import bisect_left, insort
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional, Sequence, Union

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
_SERIAL_MOD = 1 << 32
#: a name's labels from the root down: the sort key of ``Zone._names``
_from_root = itemgetter(slice(None, None, -1))


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


@dataclass(frozen=True, slots=True)
class JournalEntry:
    serial: int  # serial after applying this diff
    deletions: tuple[ResourceRecord, ...]
    additions: tuple[ResourceRecord, ...]


@dataclass
class _Batch:
    """The writes made so far inside ``Zone.batch()``, as one net diff."""

    deletions: list[ResourceRecord] = field(default_factory=list)
    additions: list[ResourceRecord] = field(default_factory=list)
    wrote: bool = False


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
        # the store and its read indexes (see the module docstring); only
        # the writer path and from_master_file change them
        self._owners: dict[Name, tuple[ResourceRecord, ...]] = {}
        self._names: list[Name] = []  # the owner map's keys, sorted by _from_root
        self._ptrs: list[ResourceRecord] = []  # sorted by _ptr_key
        self._journal: list[JournalEntry] = []
        self._batch: Optional[_Batch] = None  # the open batch, see batch()
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
        """All records except the SOA, grouped by owner name."""
        with self._lock:
            return list(itertools.chain.from_iterable(self._owners.values()))

    def records_at(self, owner: Name, rtype: Optional[int] = None) -> tuple[ResourceRecord, ...]:
        """The records at ``owner`` (empty if none), those of ``rtype`` if
        given.  Without ``rtype`` this is the owner map's own tuple: any
        change at the owner stores a new one, so it stays unchanged and
        identifies this state of the owner."""
        with self._lock:
            here = self._owners.get(owner, ())
            if rtype is None:
                return here
            return tuple(r for r in here if r.rdata.rtype == rtype)

    def subtree(self, apex: Name) -> list[ResourceRecord]:
        """The records at and below ``apex``, grouped by owner name."""
        key = apex[::-1]
        with self._lock:
            names, owners = self._names, self._owners
            lo = bisect_left(names, key, key=_from_root)
            # every name at or below apex sorts below apex's next sibling
            hi = (bisect_left(names, key[:-1] + (key[-1] + "\0",), lo, key=_from_root)
                  if key else len(names))
            return [rr for name in names[lo:hi] for rr in owners[name]]

    def has_owner(self, owner: Name) -> bool:
        """``owner`` holds records or has a name below it that does (an
        empty non-terminal).  The root counts only as the origin or an
        owner, not for every name below it."""
        if owner == self.origin:
            return True
        with self._lock:
            if not owner:
                return owner in self._owners
            names = self._names
            i = bisect_left(names, owner[::-1], key=_from_root)
            # the first name at or after owner, read from the root, ends in owner
            return i < len(names) and names[i][-len(owner):] == owner

    def journal(self) -> list[JournalEntry]:
        with self._lock:
            return list(self._journal)

    # -- writer path --------------------------------------------------------

    def _mutate(
        self,
        deletions: Sequence[ResourceRecord],
        additions: Sequence[ResourceRecord],
    ) -> Optional[JournalEntry]:
        """Apply one diff to the records and indexes, all or nothing: a
        deletion of a record the zone does not hold (as many times as it
        is listed) raises ZoneError before anything changes.  Outside a
        batch, bumps the serial and returns the journal entry; inside
        one, folds the diff into the batch's and returns None."""
        with self._lock:
            if deletions:
                for rr, n in Counter(deletions).items():
                    if self._owners.get(rr.owner, ()).count(rr) < n:
                        raise ZoneError(f"cannot delete missing record {rr.render()}")
            for rr in deletions:
                self._unindex(rr)
            for rr in additions:
                self._index(rr)
            batch = self._batch
            if batch is None:
                return self._commit(tuple(deletions), tuple(additions))
            batch.wrote = True
            # keep the batch's diff net: a record both added and deleted
            # inside the batch appears in neither list
            for rr in deletions:
                if rr in batch.additions:
                    batch.additions.remove(rr)
                else:
                    batch.deletions.append(rr)
            for rr in additions:
                if rr in batch.deletions:
                    batch.deletions.remove(rr)
                else:
                    batch.additions.append(rr)
            return None

    def _commit(self, deletions: tuple[ResourceRecord, ...],
                additions: tuple[ResourceRecord, ...]) -> JournalEntry:
        """The next serial and its journal entry for an applied diff."""
        self._serial = (self._serial + 1) % _SERIAL_MOD
        entry = JournalEntry(self._serial, deletions, additions)
        self._journal.append(entry)
        if len(self._journal) > self.journal_retention:
            del self._journal[: len(self._journal) - self.journal_retention]
        if self.on_mutate is not None:
            self.on_mutate(entry)
        return entry

    @contextmanager
    def batch(self):
        """Make the writes inside the block one change: one serial and one
        journal entry, the net diff from before the block to after it,
        made when the block ends, also if it raises.  Writes that cancel
        out still take a serial, as a write of a value the zone already
        holds does outside a batch; a block that writes nothing takes
        none.  The block holds the zone lock, so readers see the zone
        before it or after it; a batch inside a batch is part of the
        outer one."""
        with self._lock:
            if self._batch is not None:
                yield
                return
            batch = self._batch = _Batch()
            try:
                yield
            finally:
                self._batch = None
                if batch.wrote:
                    self._commit(tuple(batch.deletions), tuple(batch.additions))

    def _index(self, rr: ResourceRecord) -> None:
        owners = self._owners
        here = owners.get(rr.owner)
        if here is None:
            insort(self._names, rr.owner, key=_from_root)
            owners[rr.owner] = (rr,)
        else:
            owners[rr.owner] = here + (rr,)
        if self._browsable(rr):
            insort(self._ptrs, rr, key=self._ptr_key)

    def _unindex(self, rr: ResourceRecord) -> None:
        """Remove the first record the zone holds equal to ``rr``."""
        owners, names = self._owners, self._names
        here = owners[rr.owner]
        i = here.index(rr)
        held, rest = here[i], here[:i] + here[i + 1:]
        if rest and rest[0].owner is here[0].owner:
            owners[rr.owner] = rest
        else:
            # the name goes, or is keyed anew by the owner of its new first record
            slot = bisect_left(names, rr.owner[::-1], key=_from_root)
            del owners[rr.owner]
            if rest:
                owners[rest[0].owner] = rest
                names[slot] = rest[0].owner
            else:
                del names[slot]
        if self._browsable(held):
            ptrs, key = self._ptrs, self._ptr_key
            j = bisect_left(ptrs, key(held), key=key)
            while ptrs[j] is not held:  # past other records with the same key
                j += 1
            del ptrs[j]

    def _browsable(self, rr: ResourceRecord) -> bool:
        """``rr`` is a PTR under <service>.<origin>, so ``_ptrs`` holds it."""
        return rr.rdata.rtype == TYPE_PTR and is_subdomain(rr.owner, self.service + self.origin)

    def _ptr_key(self, rr: ResourceRecord) -> tuple[str, Name]:
        """The sort key of a record in ``_ptrs``: the identifier its owner
        spells (as ``_identifier_of`` reads it) and its target."""
        owner = rr.owner
        n = len(owner) - len(self.service) - len(self.origin)
        ident = "".join(owner[n - 1::-1]) if n else ""
        if "_" in ident:  # a label may carry the query-side underscore
            ident = join_labels(owner[:n])
        return ident, rr.rdata.target

    def _known(self, name: Name) -> Name:
        """The tuple the owner map already holds for ``name``, else ``name``:
        records built by the zone share the name tuples it indexes."""
        here = self._owners.get(name)
        return here[0].owner if here else name

    def add_record(self, record: ResourceRecord) -> Optional[JournalEntry]:
        """Generic record insertion (fixtures, glue A records, TLSA-style data)."""
        return self._mutate((), (record,))

    # -- device registration ------------------------------------------------

    def instance_owner(self, reg: DeviceRegistration) -> Name:
        return (reg.instance,) + self.identifier_owner(reg.identifier)

    def identifier_owner(self, identifier: str) -> Name:
        labels = split_labels(identifier, self.policy, self)
        return tuple(labels) + self.service + self.origin

    def device_records(self, reg: DeviceRegistration) -> list[ResourceRecord]:
        """The records that register ``reg``, SRV first.  Raises ZoneError
        for a device the zone cannot place, RecordError for a field the
        wire cannot carry and SizeGuardError for a record no datagram
        answer can hold."""
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
        return wanted

    def register_device(
        self,
        reg: DeviceRegistration,
        records: Optional[Sequence[ResourceRecord]] = None,
    ) -> tuple[bool, Name]:
        """Add a device's records: ``records`` if the caller has built
        them with ``device_records(reg)``, else that list built here.

        Returns (changed, instance owner name).  Re-registering an
        identical device is a no-op with changed=False.
        """
        if records is None:
            records = self.device_records(reg)
        owner = records[0].owner
        with self._lock:
            # Every record, where self._owners.get(rr.owner, ()) would do: a
            # faster join grows the zone of the fixed-time churn benchmark (a
            # prototype went from 99.7 to 1,297 ops/s and from 23.6 to 43.4
            # MiB of server RSS), so this waits for a fixed-length churn run.
            held = self.records()
            additions = [rr for rr in records if rr not in held]
            if not additions:
                return False, owner
            self._mutate((), additions)
        return True, owner

    # -- TXT data store ------------------------------------------------------

    def txt_records(self, owner: Name, key: str) -> list[ResourceRecord]:
        """The TXT records at ``owner`` that hold data for ``key``."""
        return [r for r in self.records_at(owner, TYPE_TXT) if txt_key(r.rdata) == key]

    def txt_record(self, owner: Name, key: str, value: str,
                   ttl: Optional[int] = None) -> ResourceRecord:
        """The record that sets ``key=value`` at an owner, checked to fit
        a datagram answer."""
        rdata = txt_pair(key, value)
        ttl = ttl if ttl is not None else self.default_ttl
        with self._lock:
            record = ResourceRecord(self._known(owner), ttl, rdata)
        _check_size_guard(record)
        return record

    def update_txt(self, owner: Name, key: str, value: str, ttl: Optional[int] = None,
                   record: Optional[ResourceRecord] = None) -> Optional[JournalEntry]:
        """Set ``key=value`` data at an owner, replacing any previous value.
        ``record`` is the ``txt_record`` of these arguments, if built."""
        with self._lock:
            if record is None:
                record = self.txt_record(owner, key, value, ttl)
            return self._mutate(self.txt_records(owner, key), (record,))

    def delete_txt(self, owner: Name, key: str) -> Optional[JournalEntry]:
        with self._lock:
            old = self.txt_records(owner, key)
            if not old:
                raise ZoneError(f"no TXT data {key!r} at {name_text(owner)}")
            return self._mutate(old, ())

    # -- discovery -----------------------------------------------------------

    def ptr_discover(self, qname: Name) -> set[Name]:
        """Instance names for every device whose identifier extends the
        prefix spelled by ``qname``.  Underscore-prefixed identifier
        labels are accepted; a CNAME at ``qname`` is not followed (the
        server chases aliases before it browses).  The matches are one
        slice of the sorted PTR index."""
        prefix = self._identifier_of(qname)
        if prefix is None:
            return set()
        with self._lock:
            # identifiers are ASCII, so every extension of prefix sorts below this bound
            ptrs, key = self._ptrs, self._ptr_key
            lo = bisect_left(ptrs, (prefix,), key=key)
            hi = bisect_left(ptrs, (prefix + "\U0010ffff",), lo, key=key)
            return {rr.rdata.target for rr in ptrs[lo:hi]}

    def _identifier_of(self, name: Name) -> Optional[str]:
        """Join the identifier chunks of a name under <service>.<origin>,
        right-to-left, stripping the query-side underscore convention."""
        suffix = self.service + self.origin
        if len(name) < len(suffix) or name[-len(suffix):] != suffix:
            return None
        return join_labels(name[: len(name) - len(suffix)])

    # -- CNAME fan-out -------------------------------------------------------

    def generate_multi_cnames(
        self,
        parent_label: str,
        delegated: str,
        child_length: int,
        ns_target: Name,
        symbols: Optional[Sequence[str]] = None,
    ) -> Optional[JournalEntry]:
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
            if (new_ns,) != old_ns:
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
            return [soa, *self.records(), soa]

    def ixfr_diff(self, from_serial: int) -> IxfrDiff:
        """The journal entries after ``from_serial``: the last k, for k
        serials between it and now, if the journal holds exactly those."""
        with self._lock:
            current = self._serial
            if from_serial == current or serial_gt(from_serial, current):
                return IxfrDiff(from_serial, current, ())
            journal = self._journal
            k = (current - from_serial) % _SERIAL_MOD
            # exact only if the slice starts at from_serial+1 and ends now
            if (k > len(journal) or journal[-k].serial != (from_serial + 1) % _SERIAL_MOD
                    or journal[-1].serial != current):
                return IxfrDiff(from_serial, current, (), fallback=True)
            return IxfrDiff(from_serial, current, tuple(journal[-k:]))

    # -- master file ---------------------------------------------------------

    def export_master_file(self) -> str:
        with self._lock:
            return export_master_file(self.origin, [self.soa_record(), *self.records()])

    @classmethod
    def from_master_file(cls, source: Union[str, Iterable[str]], **kwargs) -> "Zone":
        """A zone from master-file text, or from an open text file, which
        is read a line at a time (see ``records.import_master_file``)."""
        origin, records = import_master_file(source)
        soas = [i for i, r in enumerate(records) if r.rdata.rtype == TYPE_SOA]
        if len(soas) != 1:
            raise ZoneError(f"master file must hold exactly one SOA, found {len(soas)}")
        soa = records.pop(soas[0]).rdata
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
        zone._build_indexes(records)
        return zone

    def _build_indexes(self, records: list[ResourceRecord]) -> None:
        """The owner map and both sorted indexes of ``records``, in one
        pass over them and two sorts."""
        grouped: dict[Name, list[ResourceRecord]] = {}
        for rr in records:
            grouped.setdefault(rr.owner, []).append(rr)
        self._owners = {owner: tuple(here) for owner, here in grouped.items()}
        self._names = sorted(grouped, key=_from_root)
        self._ptrs = sorted(filter(self._browsable, records), key=self._ptr_key)

    # -- journal persistence -------------------------------------------------

    def load_journal(self, entries: Iterable[JournalEntry]) -> None:
        """Adopt persisted history: the run of consecutive serials that
        ends with the last entry at the current serial.  Entries after
        that serial are left to ``replay_journal``."""
        with self._lock:
            run: list[JournalEntry] = []
            wanted = self._serial
            for entry in reversed(list(entries)):
                if entry.serial == wanted:
                    run.append(entry)
                    wanted = (wanted - 1) % _SERIAL_MOD
                elif run:
                    break
            self._journal = run[::-1][-self.journal_retention:]

    def replay_journal(self, entries: Iterable[JournalEntry]) -> int:
        """Apply, in order and through the writer path, the entries after
        the current serial; returns how many.  Raises ZoneError, naming
        the entry, at a serial gap or a deletion of a missing record: the
        zone is then half replayed and must not be served."""
        with self._lock:
            start, applied = self._serial, 0
            for entry in entries:
                if not serial_gt(entry.serial, start):
                    continue
                expected = (self._serial + 1) % _SERIAL_MOD
                if entry.serial != expected:
                    raise ZoneError(
                        f"journal entry {entry.serial}: not the next serial {expected}")
                try:
                    self._mutate(entry.deletions, entry.additions)
                except ZoneError as exc:
                    raise ZoneError(f"journal entry {entry.serial}: {exc}") from None
                applied += 1
            return applied


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
    key, eq, _ = rdata.text.partition("=")
    return key if eq else None


def txt_value(rdata: TXT) -> Optional[str]:
    _, eq, value = rdata.text.partition("=")
    return value if eq else None


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
    if size > wire.MAX_UDP_PAYLOAD:
        raise SizeGuardError(
            f"record response would be {size} bytes, over the {wire.MAX_UDP_PAYLOAD}-byte cap"
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
    for r in zone.txt_records(owner, "len"):
        try:
            return int(txt_value(r.rdata))
        except ValueError:
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

    def attach(self, zone: Zone) -> int:
        """Start ``zone`` from this file: adopt its history, replay the
        entries after the zone's serial, then append every later change
        here.  Returns how many entries were replayed; raises ZoneError as
        ``Zone.replay_journal`` does."""
        entries = self.load()
        zone.load_journal(entries)
        # the replayed entries are in the file already: persist only later ones
        replayed = zone.replay_journal(entries)
        zone.on_mutate = self.append
        return replayed

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
