"""Synthetic Internet-like topology generation (Mercator substitute).

The paper extracts router-level topologies from the Mercator Internet
map discovery tool.  Mercator maps are unavailable, so we generate
synthetic router graphs that preserve the properties the experiments
actually exercise:

* **connectivity** — every scheduler/resource pair can exchange messages;
* **short, size-dependent path lengths** — message delays grow slowly
  with network size, as in Internet-like graphs;
* **skewed degree distribution** — a few well-connected "transit"
  routers plus many low-degree edge routers, so clusters hang off
  identifiable attachment points.

The generator mixes two classic models: a **preferential-attachment
backbone** (degree skew, guaranteed connectivity because each new node
attaches to existing ones) plus **Waxman-style geometric shortcuts**
(locality: nearby routers are more likely to be linked).  Link latency is
proportional to Euclidean distance between node coordinates; bandwidths
are drawn from a discrete set of capacity tiers.

All randomness flows through a caller-supplied ``numpy`` generator, so
topologies are reproducible from the run seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Topology

__all__ = ["TopologyParams", "generate_topology"]


@dataclass(frozen=True)
class TopologyParams:
    """Knobs of the synthetic topology model.

    Attributes
    ----------
    n_nodes:
        Number of router nodes.
    m_attach:
        Links added from each new node to existing nodes during the
        preferential-attachment phase (>= 1 guarantees connectivity).
    waxman_alpha:
        Probability scale of the Waxman shortcut phase; 0 disables it.
    waxman_beta:
        Waxman locality parameter in (0, 1]; larger values favour
        longer-range shortcuts.
    latency_per_unit:
        Link latency per unit of Euclidean distance (time units).
    min_latency:
        Floor on link latency, enforcing "non-zero latencies".
    bandwidth_tiers:
        Capacity tiers links are drawn from uniformly (payload units
        per time unit).
    """

    n_nodes: int
    m_attach: int = 2
    waxman_alpha: float = 0.08
    waxman_beta: float = 0.25
    latency_per_unit: float = 0.02
    min_latency: float = 0.05
    bandwidth_tiers: tuple = (100.0, 400.0, 1000.0)

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if self.m_attach < 1:
            raise ValueError("m_attach must be >= 1 for connectivity")
        if not (0.0 <= self.waxman_alpha <= 1.0):
            raise ValueError("waxman_alpha must be in [0, 1]")
        if not (0.0 < self.waxman_beta <= 1.0):
            raise ValueError("waxman_beta must be in (0, 1]")
        if self.min_latency <= 0.0:
            raise ValueError("min_latency must be positive")
        if not self.bandwidth_tiers:
            raise ValueError("at least one bandwidth tier is required")


def _link_latency(params: TopologyParams, xy: list, u: int, v: int) -> float:
    # Python-float differences are the same IEEE subtractions numpy
    # would do, and ``np.hypot`` runs the same C routine on the same
    # doubles, without per-link array indexing.
    (xu, yu), (xv, yv) = xy[u], xy[v]
    d = float(np.hypot(xu - xv, yu - yv))
    return max(params.min_latency, params.latency_per_unit * d)


def generate_topology(params: TopologyParams, rng: np.random.Generator) -> Topology:
    """Generate a connected Internet-like router topology.

    Parameters
    ----------
    params:
        Model parameters; see :class:`TopologyParams`.
    rng:
        Source of randomness (typically ``RngHub.stream("topology")``).

    Returns
    -------
    Topology
        A connected topology with coordinates attached (``topo.coords``).
    """
    n = params.n_nodes
    topo = Topology(n)
    # Unit-square coordinates drive both Waxman locality and latencies.
    coords = rng.random((n, 2)) * 100.0
    topo.coords = xy = [tuple(p) for p in coords.tolist()]
    tiers = np.asarray(params.bandwidth_tiers, dtype=float).tolist()

    def bandwidth() -> float:
        return tiers[rng.integers(len(tiers))]

    # --- Phase 1: preferential attachment backbone --------------------
    # Start from a 2-node seed; each subsequent node attaches to
    # min(m_attach, existing) distinct targets chosen with probability
    # proportional to (degree + 1).
    topo.add_link(0, 1, _link_latency(params, xy, 0, 1), bandwidth())
    # Repeated-endpoint list implements preferential attachment cheaply.
    endpoint_pool = [0, 1, 0, 1]
    for u in range(2, n):
        m = min(params.m_attach, u)
        targets: set[int] = set()
        # Rejection-sample distinct targets from the endpoint pool.
        while len(targets) < m:
            v = endpoint_pool[rng.integers(len(endpoint_pool))]
            if v != u:
                targets.add(v)
        for v in targets:
            topo.add_link(u, v, _link_latency(params, xy, u, v), bandwidth())
            endpoint_pool.append(u)
            endpoint_pool.append(v)

    # --- Phase 2: Waxman geometric shortcuts --------------------------
    # P(link u~v) = alpha * exp(-d(u, v) / (beta * L)) with L the max
    # possible distance.  Vectorized over candidate pairs sampled from
    # the full pair set to keep generation O(n * k) rather than O(n^2)
    # for large n.
    if params.waxman_alpha > 0.0 and n > 2:
        l_max = 100.0 * math.sqrt(2.0)
        # Examine ~4n random candidate pairs (enough shortcuts to matter,
        # cheap even at n = 6000).
        k = 4 * n
        us = rng.integers(0, n, size=k)
        vs = rng.integers(0, n, size=k)
        mask = us != vs
        us, vs = us[mask], vs[mask]
        d = np.hypot(coords[us, 0] - coords[vs, 0], coords[us, 1] - coords[vs, 1])
        p = params.waxman_alpha * np.exp(-d / (params.waxman_beta * l_max))
        accept = rng.random(len(p)) < p
        for u, v in zip(us[accept].tolist(), vs[accept].tolist()):
            if not topo.has_link(u, v):
                topo.add_link(u, v, _link_latency(params, xy, u, v), bandwidth())

    assert topo.is_connected(), "generator invariant: PA phase guarantees connectivity"
    return topo
