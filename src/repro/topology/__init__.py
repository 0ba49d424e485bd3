"""Router-level topologies and Grid element placement (Mercator substitute)."""

from .generator import TopologyParams, generate_topology
from .graph import Link, Topology
from .grid_map import GridMap, map_grid
from .paths import PathTables, shortest_path_tables, single_source

__all__ = [
    "GridMap",
    "Link",
    "PathTables",
    "Topology",
    "TopologyParams",
    "generate_topology",
    "map_grid",
    "shortest_path_tables",
    "single_source",
]
