import pytest

from semdns import default_registry
from semdns.records import A, ResourceRecord, parse_name
from semdns.server import DnsServer, ServerConfig
from semdns.zone import DeviceRegistration, SplitPolicy, Zone

THREE_DEVICES = [
    ("humidity", "dr12", ()),
    ("temperature", "dr34", ()),
    ("temperature", "dr56", (("temperature", "14"),)),
]


def build_fixture_zone(policy=SplitPolicy("static", 4)) -> Zone:
    """The three-device discovery fixture: SRV/PTR/TXT plus the target A."""
    zone = Zone(origin=(), policy=policy)
    for instance, ident, txt in THREE_DEVICES:
        zone.register_device(DeviceRegistration(
            instance, ident, 8080, parse_name(f"{ident}.unipr.it"), txt=txt,
        ))
    zone.add_record(ResourceRecord(parse_name("dr56.unipr.it"), 100, A("160.78.28.203")))
    return zone


#: the SOA line of ``SOA_MASTER_FILE``: its TTL, names and timers are all
#: other than those of a zone built in code
SOA_LINE = "example.\t3600\tIN\tSOA\tns1.example. admin.example. 5 3600 600 604800 300"
#: a master file in canonical form, as ``Zone.export_master_file`` writes it
SOA_MASTER_FILE = f"$ORIGIN example.\n{SOA_LINE}\ndr56.example.\t100\tIN\tA\t160.78.28.203\n"


class HalfWrites:
    """A journal handle whose writes stop halfway, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.fh, name)


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def fixture_zone():
    return build_fixture_zone()


@pytest.fixture(scope="module")
def large_zone():
    """1,500 devices: a full transfer is over 65,535 bytes."""
    zone = Zone()
    for i in range(1500):
        zone.register_device(DeviceRegistration(
            f"dev{i}", f"dr{i:04d}", 8080, parse_name(f"h{i}.example")))
    return zone


@pytest.fixture
def running_server(fixture_zone):
    server = DnsServer(fixture_zone, ServerConfig(port=0))
    server.start()
    yield "127.0.0.1", server.port, fixture_zone
    server.shutdown()
