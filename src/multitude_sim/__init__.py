"""Interconnect fabric generator, analytics, and message-passing simulator."""

from .topology import (
    CA_FAMILIES,
    FAMILIES,
    RM_FAMILIES,
    ConfigError,
    GenerationError,
    InvariantError,
    Topology,
    TopologyConfig,
    build,
    build_ca,
    build_random_multitude,
    ensure_connected,
    export_edge_list,
    import_edge_list,
    remove_random_links,
    sample_neighbor,
)

__version__ = "0.1.0"

__all__ = [
    "CA_FAMILIES",
    "FAMILIES",
    "RM_FAMILIES",
    "ConfigError",
    "GenerationError",
    "InvariantError",
    "Topology",
    "TopologyConfig",
    "build",
    "build_ca",
    "build_random_multitude",
    "ensure_connected",
    "export_edge_list",
    "import_edge_list",
    "remove_random_links",
    "sample_neighbor",
    "__version__",
]
