"""JSON envelopes for graphs, polynomials and query results."""

from .serialize import (
    COMPATIBLE_VERSIONS,
    FORMAT_VERSION,
    FormatVersionError,
    SerializationError,
    dump_query_result,
    graph_from_json,
    graph_to_json,
    literal_from_json,
    literal_to_json,
    load_query_result,
    polynomial_from_json,
    polynomial_to_json,
    query_result_from_json,
    query_result_to_json,
)

__all__ = [
    "COMPATIBLE_VERSIONS",
    "FORMAT_VERSION",
    "FormatVersionError",
    "SerializationError",
    "dump_query_result",
    "graph_from_json",
    "graph_to_json",
    "literal_from_json",
    "literal_to_json",
    "load_query_result",
    "polynomial_from_json",
    "polynomial_to_json",
    "query_result_from_json",
    "query_result_to_json",
]
