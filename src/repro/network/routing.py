"""OSPF-like routing over a static topology.

The paper's simulator "uses an OSPF like algorithm for routing messages
between resources".  OSPF floods link-state advertisements and then each
router runs Dijkstra over the resulting link-state database.  Our
topologies are static for the duration of a run, so the link-state
database equals the topology and routing reduces to latency-weighted
shortest paths, cached per source.

The cache is the hot data structure of the whole simulator: a 1000-node
Case-2 run prices millions of messages, but only between a handful of
distinct (scheduler, scheduler/resource) pairs, so caching makes pricing
O(1) amortized.  Two kinds of entry share it:

* **full tables** — one ``single_source`` sweep per source.  The grid
  mapper donates one per scheduler site (see :meth:`Router.prime`), and
  symmetric (fluid-mode) routing computes them on a miss;
* **rows** — for every other source, a ``{dst: PathInfo}`` dict filled
  one destination at a time by a target-bounded search that stops once
  ``dst`` is settled.  A resource only ever talks to a few nearby
  scheduler sites, so this settles a small part of the graph where a
  full table would sweep all of it; the entries are bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, Union

from ..topology.graph import Topology
from ..topology.paths import PathInfo, single_source

__all__ = ["Router"]


class Router:
    """Latency-shortest-path router with per-source caching.

    Parameters
    ----------
    topo:
        The (static) router topology; must be connected for every pair
        of mapped sites to communicate.
    """

    def __init__(self, topo: Topology) -> None:
        self.topology = topo
        #: source -> full table (a list indexed by destination) or row
        #: (a dict keyed by destination).  Both answer ``[dst]``, which
        #: is how :meth:`~repro.network.transport.Network.send` reads
        #: it inline, falling back to :meth:`path_info` on a miss.
        self.tables: Dict[int, Union[List[PathInfo], Dict[int, PathInfo]]] = {}
        #: When set, an uncached source may be priced from the
        #: destination's full table instead of running its own
        #: Dijkstra.  The topology is undirected, so shortest-path
        #: *latency* and *transmission factor* are symmetric; only the
        #: hop count of tie-broken equal-latency paths can differ.
        #: Fluid-mode builders enable this: at 1e5-scale pools the
        #: resource→scheduler completion sends would otherwise trigger
        #: one full Dijkstra per resource node.
        self.symmetric = False

    def prime(self, src: int, table: List[PathInfo]) -> None:
        """Seed the cache with a precomputed ``single_source`` table.

        The grid mapper already runs one Dijkstra per scheduler site
        for cluster assignment; donating those tables here means the
        hottest sources (schedulers and their co-located estimators)
        never pay a second shortest-path sweep.  The table must be the
        exact ``single_source`` output for ``src`` — priming is a pure
        cache warm-up and cannot change any priced path.
        """
        if type(self.tables.get(src)) is not list:
            self.tables[src] = table

    def path_info(self, src: int, dst: int) -> PathInfo:
        """Return ``(latency, hops, transmission_factor)`` for src → dst.

        ``transmission_factor`` is ``sum(1/bandwidth)`` over the path, so
        a message of size ``s`` spends ``latency + s * factor`` in
        transit (store-and-forward on every hop).
        """
        if src == dst:
            return (0.0, 0, 0.0)
        tables = self.tables
        table = tables.get(src)
        if table is None:
            if self.symmetric:
                reverse = tables.get(dst)
                if type(reverse) is list:
                    return reverse[src]
                table = tables[src] = single_source(self.topology, src)
                return table[dst]
            table = tables[src] = {}
        try:
            return table[dst]
        except KeyError:
            info = table[dst] = single_source(self.topology, src, dst)
            return info

    def transit_delay(self, src: int, dst: int, size: float) -> float:
        """End-to-end transit time of a ``size``-unit message src → dst."""
        latency, _, factor = self.path_info(src, dst)
        return latency + size * factor

    def hop_count(self, src: int, dst: int) -> int:
        """Number of links on the latency-shortest path src → dst."""
        return self.path_info(src, dst)[1]

    @property
    def cached_sources(self) -> int:
        """Number of sources with cached routes, full or partial
        (diagnostics)."""
        return len(self.tables)
