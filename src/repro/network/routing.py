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
O(1) amortized.  It holds one kind of entry, a **row** per source: a
``{dst: PathInfo}`` dict filled one destination at a time.  A miss fills
the entry from one of two places:

* **donated tables** — the grid mapper computes every scheduler site's
  full table at once with
  :func:`~repro.topology.paths.shortest_path_tables` and the builder
  donates those arrays (:meth:`Router.prime`).  A miss on such a source
  reads its one triple out of the arrays; the arrays are never turned
  into Python tuples wholesale, because a run routes only a few percent
  of their pairs;
* **target-bounded search** — for every other source,
  ``single_source(topo, src, dst)`` stops once ``dst`` is settled.  A
  resource only ever talks to a few nearby scheduler sites, so this
  settles a small part of the graph where a full table would sweep all
  of it.

Both give entries bit-identical to ``single_source(topo, src)[dst]``, in
value and in Python type.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..topology.graph import Topology
from ..topology.paths import PathInfo, PathTables, single_source

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
        #: source -> row, a ``{dst: PathInfo}`` dict.  This is how
        #: :meth:`~repro.network.transport.Network.send` reads routes
        #: inline, falling back to :meth:`path_info` on a miss.
        self.tables: Dict[int, Dict[int, PathInfo]] = {}
        #: source -> its donated ``(latency, hops, txf)`` array rows
        self._donated: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        #: When set, a source with no row yet is priced from the
        #: destination's table when the destination has one, instead of
        #: searching from the source.  The topology is undirected, so
        #: shortest-path *latency* and *transmission factor* agree
        #: either way up to the order the floats are summed in; only the
        #: hop count of tie-broken equal-latency paths can differ.
        #: Fluid-mode builders enable this: at 1e5-scale pools the
        #: resource→scheduler completion sends would otherwise trigger
        #: one search per resource node.
        self.symmetric = False

    def prime(self, sources: Sequence[int], tables: PathTables) -> None:
        """Donate precomputed full tables: row ``i`` of ``tables`` is
        ``sources[i]``'s.

        The grid mapper computes every scheduler site's table for
        cluster assignment in one vectorized
        :func:`~repro.topology.paths.shortest_path_tables` pass;
        donating them here means the hottest sources (schedulers and
        their co-located estimators) never pay a shortest-path search
        of their own.  The router keeps the arrays and materializes a
        triple per routed pair on its first use.  Each row must equal
        ``single_source(topo, src)`` triple for triple —
        ``shortest_path_tables`` guarantees it — so priming is a pure
        cache warm-up and cannot change any priced path.  A source's
        existing row is kept: its entries already equal the donated
        ones.
        """
        for i, src in enumerate(sources):
            self._donated[src] = (tables.latency[i], tables.hops[i], tables.txf[i])
            self.tables.setdefault(src, {})

    def path_info(self, src: int, dst: int) -> PathInfo:
        """Return ``(latency, hops, transmission_factor)`` for src → dst.

        ``transmission_factor`` is ``sum(1/bandwidth)`` over the path, so
        a message of size ``s`` spends ``latency + s * factor`` in
        transit (store-and-forward on every hop).
        """
        if src == dst:
            return (0.0, 0, 0.0)
        tables = self.tables
        row = tables.get(src)
        if row is None:
            if self.symmetric and dst in tables:
                return self.path_info(dst, src)
            row = tables[src] = {}
        info = row.get(dst)
        if info is None:
            donated = self._donated.get(src)
            if donated is None:
                info = single_source(self.topology, src, dst)
            else:
                latency, hops, txf = donated
                info = (latency.item(dst), hops.item(dst), txf.item(dst))
            row[dst] = info
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
        """Number of sources with a row: donated sources plus those
        routed from so far (diagnostics)."""
        return len(self.tables)
