"""Router-level topology data structure.

A :class:`Topology` is an undirected graph of router nodes connected by
links with finite **latency** (time units) and **bandwidth** (payload
units per time unit), matching the paper's assumption that "network links
have finite bandwidth and non-zero latencies".

The structure is deliberately minimal — adjacency dictionaries keyed by
node id — because the routing layer (Dijkstra) and the generator are the
only consumers.  A :meth:`to_networkx` view exists for tests, which
cross-check our shortest paths against ``networkx``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import networkx as nx

__all__ = ["Link", "Topology"]


@dataclass(frozen=True)
class Link:
    """An undirected link between two routers.

    Attributes
    ----------
    u, v:
        Endpoint node ids (``u < v`` by construction).
    latency:
        Propagation delay in time units; must be positive ("non-zero
        latencies").
    bandwidth:
        Transfer capacity in payload units per time unit; must be
        positive ("finite bandwidth").
    """

    u: int
    v: int
    latency: float
    bandwidth: float


class Topology:
    """An undirected router graph with latency/bandwidth-annotated links.

    Nodes are dense integers ``0..n-1``.  Optional per-node planar
    coordinates (from the generator) are kept for placement heuristics
    and debugging.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("topology needs at least one node")
        self._n = n_nodes
        # adjacency: node -> {neighbor: Link}
        self._adj: List[Dict[int, Link]] = [dict() for _ in range(n_nodes)]
        self._n_links = 0
        #: optional (x, y) coordinates per node, filled by the generator
        self.coords: Optional[List[Tuple[float, float]]] = None

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of router nodes."""
        return self._n

    @property
    def n_links(self) -> int:
        """Number of undirected links."""
        return self._n_links

    def add_link(self, u: int, v: int, latency: float, bandwidth: float) -> Link:
        """Add an undirected link; replaces any existing ``(u, v)`` link.

        Raises
        ------
        ValueError
            For self-loops, unknown nodes, or non-positive latency or
            bandwidth.
        """
        if u == v:
            raise ValueError("self-loops are not allowed")
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise ValueError(f"link endpoints out of range: ({u}, {v})")
        if latency <= 0.0:
            raise ValueError("links must have non-zero latency")
        if bandwidth <= 0.0:
            raise ValueError("links must have positive bandwidth")
        a, b = (u, v) if u < v else (v, u)
        link = Link(a, b, latency, bandwidth)
        if v not in self._adj[u]:
            self._n_links += 1
        self._adj[u][v] = link
        self._adj[v][u] = link
        return link

    def has_link(self, u: int, v: int) -> bool:
        """Whether an undirected link ``(u, v)`` exists."""
        return v in self._adj[u]

    def link(self, u: int, v: int) -> Link:
        """Return the link between ``u`` and ``v`` (KeyError if absent)."""
        return self._adj[u][v]

    @property
    def adjacency(self) -> List[Dict[int, Link]]:
        """Per-node ``{neighbor: Link}`` dicts, indexed by node id.

        The live internal structure, exposed read-only by convention so
        shortest-path sweeps can walk ``adjacency[u].items()`` instead
        of a :meth:`link` call per edge.  Iteration order equals
        :meth:`neighbors`.
        """
        return self._adj

    def neighbors(self, u: int) -> Iterator[int]:
        """Iterate neighbor node ids of ``u``."""
        return iter(self._adj[u])

    def degree(self, u: int) -> int:
        """Number of links incident to ``u``."""
        return len(self._adj[u])

    def links(self) -> Iterator[Link]:
        """Iterate each undirected link exactly once."""
        for u in range(self._n):
            for v, link in self._adj[u].items():
                if u < v:
                    yield link

    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether every node is reachable from node 0 (BFS)."""
        seen = [False] * self._n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self._n

    def to_networkx(self) -> "nx.Graph":
        """Export as a ``networkx.Graph`` with ``latency``/``bandwidth``
        edge attributes (used by tests as a reference implementation)."""
        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        for link in self.links():
            g.add_edge(link.u, link.v, latency=link.latency, bandwidth=link.bandwidth)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology(n_nodes={self._n}, n_links={self._n_links})"
