"""Shortest-path algorithms over :class:`~repro.topology.graph.Topology`.

These are pure graph algorithms shared by the routing layer (which is an
OSPF substitute: link-state shortest path by latency) and by the grid
mapper (which assigns resources to their nearest schedulers).

Paths minimize **total link latency**, matching OSPF's additive-metric
semantics.  Alongside the latency we accumulate the **transmission
factor** ``sum(1 / bandwidth)`` over the chosen path, so the transport
layer can price a message of size ``s`` as
``latency + s * transmission_factor`` (store-and-forward over every hop).

Two implementations produce the same ``(latency, hops,
transmission_factor)`` triples, bit for bit:

* :func:`single_source` — a heap Dijkstra from one source, optionally
  stopping at one target.  The router uses it for the rows of sources
  the mapper did not prime; the tests use it as the oracle.
* :func:`shortest_path_tables` — every table for a set of sources at
  once, as numpy relaxations over an in-edge array, returned as
  sources-by-nodes arrays (:class:`PathTables`).  The grid mapper
  computes its per-scheduler tables with it, and the builder donates
  the arrays to the router (:meth:`~repro.network.routing.Router.prime`),
  which reads one triple out of them per routed pair.

Why the two agree exactly: every link satisfies ``fl(d + w) > d`` for
the distances that occur (checked), so IEEE addition is isotone and
strictly increasing along a path.  Dijkstra's distances are then the
unique fixed point of ``D[v] = min_u fl(D[u] + w(u, v))``, which is
what the Bellman–Ford relaxation converges to.  Dijkstra settles nodes
in ``(distance, node id)`` order, and a node's hops and transmission
factor come from the first settled neighbour that reaches its final
distance: the tight in-edge with the smallest ``(D[u], u)``.  Both
values are then filled along those predecessors one level at a time,
``T[v] = T[pred] + 1.0 / bandwidth``, the same left fold Dijkstra
performs.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .graph import Topology

__all__ = ["single_source", "shortest_path_tables", "PathInfo", "PathTables"]

#: (latency, hops, transmission_factor) triple for one destination.
PathInfo = Tuple[float, int, float]

#: Upper bound on the elements of one sources-by-edges temporary in
#: :func:`shortest_path_tables`; sources are processed in chunks that
#: respect it (a few tens of MB per temporary at 1e5-node topologies).
_CHUNK_ELEMENTS = 1 << 22


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


class PathTables(NamedTuple):
    """``single_source`` tables for several sources, as arrays.

    Row ``i`` of each ``len(sources) x n_nodes`` matrix belongs to the
    ``i``-th source; ``(latency[i, v], hops[i, v], txf[i, v])`` is that
    source's ``single_source`` triple for node ``v``.  ``tolist()`` or
    ``item()`` on them yields the same Python ``float``/``int``/
    ``float`` values ``single_source`` returns.
    """

    latency: np.ndarray
    hops: np.ndarray
    txf: np.ndarray


def shortest_path_tables(topo: Topology, sources: Iterable[int]) -> PathTables:
    """All ``single_source`` tables for ``sources``, computed together.

    Returns
    -------
    PathTables
        Row ``i`` equals ``single_source(topo, sources[i])`` triple for
        triple: float64 latencies and transmission factors, int64 hop
        counts.  The tables stay arrays (three 8-byte cells per entry)
        instead of one Python tuple per entry; callers read the triples
        they need.

    Raises
    ------
    ValueError
        For a source out of range, or for a link whose latency vanishes
        in floating point against a distance it extends
        (``fl(d + w) == d``): Dijkstra's settle order would then no
        longer follow from the distances.  Generated topologies cannot
        contain one (their links are at least ``min_latency`` long).
    """
    sources = list(sources)
    n = topo.n_nodes
    for s in sources:
        if not (0 <= s < n):
            raise ValueError(f"source {s} out of range for {n} nodes")
    edges = _InEdges(topo)
    shape = (len(sources), n)
    out = PathTables(np.empty(shape), np.empty(shape, dtype=np.int64), np.empty(shape))
    chunk = max(1, _CHUNK_ELEMENTS // max(1, len(edges.tail)))
    for lo in range(0, len(sources), chunk):
        srcs = sources[lo:lo + chunk]
        for dest, part in zip(out, edges.tables(srcs)):
            dest[lo:lo + len(srcs)] = part
    return out


class _InEdges:
    """The topology's directed in-edges, laid out for :func:`shortest_path_tables`.

    Nodes are renumbered hub-first (by descending degree, ties by id),
    so for every ``k`` the nodes with a ``k``-th in-edge form a prefix.
    Edges are stored slot-major: block ``k`` holds the ``k``-th
    lowest-id neighbour of each of those nodes, in hub-first order.  A
    per-node minimum over in-edges is then one elementwise ``minimum``
    per block over a prefix of the nodes, and visiting the blocks in
    order visits each node's in-edges in ascending neighbour id.
    """

    def __init__(self, topo: Topology) -> None:
        adj = topo.adjacency
        n = topo.n_nodes
        deg = np.fromiter(map(len, adj), dtype=np.intp, count=n)
        order = np.argsort(-deg, kind="stable")
        self.order = order
        self.rank = np.empty(n, dtype=np.intp)
        self.rank[order] = np.arange(n)
        tails: List[int] = []
        lat: List[float] = []
        bw: List[float] = []
        for v in order.tolist():
            links = adj[v]
            for u in sorted(links):
                link = links[u]
                tails.append(u)
                lat.append(link.latency)
                bw.append(link.bandwidth)
        deg = deg[order]
        slot = np.arange(len(tails)) - np.repeat(np.cumsum(deg) - deg, deg)
        slot_major = np.argsort(slot, kind="stable")
        #: internal tail node, internal head node, latency column and
        #: ``1.0 / bandwidth`` of each edge, slot-major
        self.tail = self.rank[np.asarray(tails, dtype=np.intp)][slot_major]
        self.head = np.repeat(np.arange(n), deg)[slot_major]
        self.w = np.asarray(lat, dtype=float)[slot_major][:, None]
        self.inv = 1.0 / np.asarray(bw, dtype=float)[slot_major]
        self.n = n
        #: nodes with at least one link (a prefix, hub-first)
        self.n_linked = int(np.count_nonzero(deg))
        widths = n - np.cumsum(np.bincount(deg))[:-1]
        ends = np.cumsum(widths)
        #: ``(start, stop)`` of each slot's block
        self.blocks = list(zip((ends - widths).tolist(), ends.tolist()))

    def tables(self, sources: List[int]):
        """``len(sources) x n`` latency, hops and transmission factor
        matrices; rows follow ``sources``, columns node ids."""
        n, n_src = self.n, len(sources)
        srcs = self.rank[sources]
        cols = np.arange(n_src)
        dist = np.full((n, n_src), math.inf)
        dist[srcs, cols] = 0.0
        flat = srcs * n_src + cols
        hops = np.full(n * n_src, -1, dtype=np.int64)
        hops[flat] = 0
        txf = np.full(n * n_src, math.inf)
        txf[flat] = 0.0
        if not self.blocks:
            return self._by_source(dist, hops, txf)
        tail, w, blocks = self.tail, self.w, self.blocks
        head = dist[: self.n_linked]

        # Latency: Jacobi Bellman–Ford to its fixed point.  The
        # sources x edges temporaries dominate the memory of the whole
        # computation, so each is updated in place where possible and
        # freed as soon as it has been used.
        while True:
            cand = dist[tail]
            cand += w
            best = np.minimum(head, cand[: blocks[0][1]])
            for a, b in blocks[1:]:
                part = best[: b - a]
                np.minimum(part, cand[a:b], out=part)
            if np.array_equal(best, head):
                break
            head[...] = best
            del cand, best

        # Precondition: every edge lengthens every distance it extends.
        base = dist[tail]
        bad = cand <= base
        bad &= base < math.inf
        if bad.any():
            e, s = np.argwhere(bad)[0]
            u, v = self.order[tail[e]], self.order[self.head[e]]
            raise ValueError(
                f"link ({u}, {v}) latency {w[e, 0]!r} does not lengthen "
                f"distance {base[e, s]!r} from source {sources[s]}"
            )
        del bad, best

        # Predecessor: the first tight in-edge in (D[u], u) order, the
        # neighbour whose relaxation Dijkstra applies first.  Unreached
        # nodes get none: an infinite tail never beats the initial key.
        pred = np.full((n, n_src), -1, dtype=np.intp)
        key = np.full(head.shape, math.inf)
        edge_id = np.arange(len(tail))[:, None]
        for a, b in blocks:
            m = b - a
            take = cand[a:b] == head[:m]
            take &= base[a:b] < key[:m]
            np.copyto(key[:m], base[a:b], where=take)
            np.copyto(pred[:m], edge_id[a:b], where=take)
        del cand, base, key, take, edge_id

        # Hops and transmission factor: H[v] = H[pred] + 1 and
        # T[v] = T[pred] + 1/bw over the whole predecessor forest, until
        # nothing changes.  A node's value is final once its
        # predecessor's is, and is computed from it exactly as
        # ``single_source`` does: the same left fold along the path.
        # Sources and unreached nodes point at themselves with step 0.
        has = pred >= 0
        via = np.where(has, pred, 0)
        itself = np.arange(n * n_src).reshape(n, n_src)
        up = np.where(has, tail[via] * n_src + cols, itself).ravel()
        step = np.where(has, self.inv[via], 0.0).ravel()
        one = has.ravel().astype(np.int64)
        del itself, via, has, pred
        while True:
            h = hops.take(up)
            h += one
            t = txf.take(up)
            t += step
            if np.array_equal(h, hops) and np.array_equal(t, txf):
                break
            hops, txf = h, t
        return self._by_source(dist, hops, txf)

    def _by_source(self, *node_major: np.ndarray):
        """Internal node-major arrays as source-major, in node-id order."""
        rank, n = self.rank, self.n
        return tuple(a.reshape(n, -1)[rank].T for a in node_major)
