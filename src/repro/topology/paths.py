"""Shortest-path algorithms over :class:`~repro.topology.graph.Topology`.

These are pure graph algorithms shared by the routing layer (which is an
OSPF substitute: link-state shortest path by latency) and by the grid
mapper (which assigns resources to their nearest scheduler).

Paths minimize **total link latency**, matching OSPF's additive-metric
semantics.  Alongside the latency we accumulate the **transmission
factor** ``sum(1 / bandwidth)`` over the chosen path, so the transport
layer can price a message of size ``s`` as
``latency + s * transmission_factor`` (store-and-forward over every hop).
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, List, Optional, Tuple

from .graph import Topology

__all__ = ["single_source", "multi_source_nearest", "PathInfo"]

#: (latency, hops, transmission_factor) triple for one destination.
PathInfo = Tuple[float, int, float]


def single_source(topo: Topology, source: int, target: Optional[int] = None):
    """Dijkstra from ``source`` minimizing latency.

    Parameters
    ----------
    target:
        If given, stop as soon as ``target`` is settled and return only
        its entry.  A settled node's values are final (latencies are
        positive), and the search up to that point is step for step the
        full sweep's, so the entry is bit-identical to
        ``single_source(topo, source)[target]``.

    Returns
    -------
    list[PathInfo] or PathInfo
        Without ``target``, for every node ``v``: ``(latency, hops,
        transmission_factor)`` along the latency-shortest path from
        ``source`` to ``v``; with ``target``, that node's triple.
        Unreachable nodes (cannot happen for generated topologies, which
        are connected) get ``(inf, -1, inf)``.
    """
    n = topo.n_nodes
    adj = topo.adjacency
    dist = [math.inf] * n
    hops = [-1] * n
    txf = [math.inf] * n
    dist[source] = 0.0
    hops[source] = 0
    txf[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue  # stale entry
        if u == target:
            break
        next_hops = hops[u] + 1
        base_txf = txf[u]
        for v, link in adj[u].items():
            nd = d + link.latency
            if nd < dist[v]:
                dist[v] = nd
                hops[v] = next_hops
                txf[v] = base_txf + 1.0 / link.bandwidth
                heapq.heappush(heap, (nd, v))
    if target is not None:
        return (dist[target], hops[target], txf[target])
    return list(zip(dist, hops, txf))


def multi_source_nearest(
    topo: Topology, sources: Iterable[int]
) -> Tuple[List[float], List[int]]:
    """Multi-source Dijkstra: latency and identity of the nearest source.

    Used to partition resources into non-overlapping clusters around
    their closest scheduler.  Ties are broken toward the source that
    first reaches the node in the (deterministic) heap order, which is
    the lowest-latency one and, for exact ties, the lowest node id
    among the seeds pushed first.

    Returns
    -------
    (dist, nearest):
        ``dist[v]`` — latency from ``v`` to its nearest source;
        ``nearest[v]`` — the source node id ``v`` is assigned to.
    """
    n = topo.n_nodes
    adj = topo.adjacency
    dist = [math.inf] * n
    nearest = [-1] * n
    heap: List[Tuple[float, int, int]] = []
    for s in sorted(set(sources)):
        if not (0 <= s < n):
            raise ValueError(f"source {s} out of range")
        dist[s] = 0.0
        nearest[s] = s
        heap.append((0.0, s, s))
    heapq.heapify(heap)
    while heap:
        d, u, src = heapq.heappop(heap)
        if d > dist[u] or (d == dist[u] and nearest[u] != src):
            continue
        for v, link in adj[u].items():
            nd = d + link.latency
            if nd < dist[v]:
                dist[v] = nd
                nearest[v] = src
                heapq.heappush(heap, (nd, v, src))
    return dist, nearest
