"""semdns: compact semantic IoT identifiers as DNS names.

Encode device metadata (hierarchical properties, logical location,
geographic location, self-certifying identity) into short base32 DNS
labels, serve them from an authoritative DNS zone with DNS-SD style
discovery, zone transfer, and dynamic TXT data updates.

The names below are imported from their submodule on first use (PEP
562), so a process that only serves or queries DNS never loads the
identifier codecs, nor ``hashlib`` and with it OpenSSL.
"""

import importlib

__version__ = "0.1.0"

#: exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("ALPHABET", "BitString", "DecodeError", "PaddingError", "b32_decode", "b32_encode"),
        "bits"),
    **dict.fromkeys(
        ("ContextDescriptor", "ContextRegistry", "LogicalLocation", "SemanticIdentifier",
         "SemanticTree", "covered_set", "decode_logical", "default_registry",
         "encode_logical", "encode_tree_path", "frame_identifier", "load_registry",
         "parse_identifier"),
        "contexts"),
    **dict.fromkeys(
        ("GeoCell", "GeoIdentifier64", "GeoPoint", "decode_geohash", "encode_geohash",
         "geo_identifier_from_label", "geo_identifier_to_label", "make_geo_identifier"),
        "geo"),
    **dict.fromkeys(
        ("Eui64Id", "SelfCertName", "derive_eui64", "derive_name", "verify_name"),
        "names"),
    **dict.fromkeys(("DeviceRegistration", "SplitPolicy", "Zone", "split_labels"), "zone"),
}
#: submodules reachable as attributes of the package, such as ``semdns.geo``
_SUBMODULES = frozenset({"bits", "contexts", "geo", "names", "records", "wire", "zone"})

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module or name}", __name__)
    if module is not None:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys() | _SUBMODULES)
