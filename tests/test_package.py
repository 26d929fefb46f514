"""The package's exports and what importing it loads.

``semdns`` imports each exported name from its submodule on first use,
so ``semdns serve`` and the other DNS commands never load the
identifier codecs, nor ``hashlib`` and with it OpenSSL.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import semdns

SRC = Path(__file__).resolve().parent.parent / "src"
#: the names ``from semdns import *`` binds, by the submodule that defines each
EXPORTS = {
    "bits": ["ALPHABET", "BitString", "DecodeError", "PaddingError", "b32_decode",
             "b32_encode"],
    "contexts": ["ContextDescriptor", "ContextRegistry", "LogicalLocation",
                 "SemanticIdentifier", "SemanticTree", "covered_set", "decode_logical",
                 "default_registry", "encode_logical", "encode_tree_path",
                 "frame_identifier", "load_registry", "parse_identifier"],
    "geo": ["GeoCell", "GeoIdentifier64", "GeoPoint", "decode_geohash", "encode_geohash",
            "geo_identifier_from_label", "geo_identifier_to_label", "make_geo_identifier"],
    "names": ["Eui64Id", "SelfCertName", "derive_eui64", "derive_name", "verify_name"],
    "zone": ["DeviceRegistration", "SplitPolicy", "Zone", "split_labels"],
}
#: modules a process that imports the command line must not load
UNUSED_BY_THE_CLI = ("hashlib", "_hashlib", "semdns.contexts", "semdns.geo", "semdns.names")


def loaded_after(statement: str) -> set:
    """The modules of UNUSED_BY_THE_CLI that a fresh interpreter holds
    after running ``statement``."""
    code = (f"{statement}\nimport sys\n"
            f"print(' '.join(m for m in {UNUSED_BY_THE_CLI!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, encoding="utf-8", check=True, timeout=60)
    return set(out.stdout.splitlines()[-1].split())


def test_the_cli_loads_no_identifier_codec_and_no_openssl():
    assert loaded_after("import semdns.cli") == set()


def test_an_identifier_command_loads_its_own_codec_only():
    assert loaded_after(
        "from semdns import cli; cli.main(['derive-name', '--key', 'k'])"
    ) == {"hashlib", "_hashlib", "semdns.names"}
    assert loaded_after(
        "from semdns import cli; cli.main(['encode-geo', '44.765', '10.311', '8'])"
    ) == {"semdns.geo"}


def test_star_import_binds_the_exports():
    namespace = {}
    exec("from semdns import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(n for names in EXPORTS.values() for n in names)
    assert len(namespace) == 36
    for module, names in EXPORTS.items():
        source = sys.modules[f"semdns.{module}"]
        for name in names:
            assert namespace[name] is getattr(source, name) is getattr(semdns, name), name


def test_dir_lists_exports_and_submodules():
    listed = set(dir(semdns))
    assert {n for names in EXPORTS.values() for n in names} <= listed
    assert {"geo", "names", "contexts", "zone", "__version__"} <= listed


def test_submodules_are_attributes():
    for module in ("bits", "contexts", "geo", "names", "records", "wire", "zone"):
        assert getattr(semdns, module) is sys.modules[f"semdns.{module}"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        semdns.no_such_name
    with pytest.raises(ImportError):
        exec("from semdns import no_such_name", {})
