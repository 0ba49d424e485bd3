"""Mapping Grid elements onto a router topology.

The paper: "To these topologies, we map elements such as routers,
schedulers, and resources to obtain Grid topologies. ... The set of
resources are separated into non-overlapping clusters and each cluster
is coordinated by a scheduler."

:func:`map_grid` turns a router :class:`~repro.topology.graph.Topology`
into a :class:`GridMap`:

* **Scheduler sites** are the highest-degree routers (well-connected
  transit points), one per cluster.
* **Estimator sites** are routers adjacent (nearest) to scheduler sites;
  estimators are the RMS nodes that receive status updates from
  resources and distribute them to scheduling decision makers (paper,
  Fig. 4 caption).  With one estimator per scheduler the estimator is
  co-located with its scheduler — the base configuration.
* **Resource sites** are the remaining routers; every resource joins the
  cluster of its nearest scheduler with room (latency from the
  schedulers' shortest-path tables, clusters capped at an even share),
  yielding the non-overlapping clustering.
* Resources are assigned to estimators round-robin **within their
  cluster ordering**, so estimator coverage respects locality.

Network size in the paper's Case 1 is ``sizeof[RMS] + sizeof[RP]``:
here that is ``n_schedulers + n_estimators + n_resources`` mapped sites
(sites may share a router when the graph is small; the simulation works
at the site level, not the router level).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .graph import Topology
from .paths import PathTables, shortest_path_tables

__all__ = ["GridMap", "map_grid"]


@dataclass
class GridMap:
    """Placement of Grid elements on a router topology.

    Attributes
    ----------
    topology:
        The underlying router graph.
    scheduler_nodes:
        Router node of each scheduler, indexed by scheduler id.
    estimator_nodes:
        Router node of each estimator, indexed by estimator id.
    resource_nodes:
        Router node of each resource, indexed by resource id.
    cluster_of_resource:
        Scheduler id owning each resource (non-overlapping clusters).
    resources_of_cluster:
        Inverse map: scheduler id -> sorted resource ids.
    estimator_of_resource:
        Estimator id each resource sends status updates to.
    schedulers_of_estimator:
        Scheduler ids each estimator forwards updates to (the owners of
        the resources it covers).
    scheduler_tables:
        The per-scheduler-site routing tables the mapper computed for
        cluster assignment: one vectorized
        :func:`~repro.topology.paths.shortest_path_tables` call, kept as
        its arrays with row ``i`` for ``scheduler_nodes[i]``, each row
        bit-identical to that site's ``single_source`` table.  The
        builder donates them to the
        :class:`~repro.network.routing.Router` — scheduler (and
        co-located estimator) sites originate nearly all routed
        traffic, so the hot sources never pay a shortest-path search of
        their own, and only the pairs actually routed become Python
        triples.
    """

    topology: Topology
    scheduler_nodes: List[int]
    estimator_nodes: List[int]
    resource_nodes: List[int]
    cluster_of_resource: List[int]
    resources_of_cluster: Dict[int, List[int]] = field(default_factory=dict)
    estimator_of_resource: List[int] = field(default_factory=list)
    schedulers_of_estimator: Dict[int, List[int]] = field(default_factory=dict)
    scheduler_tables: Optional[PathTables] = None

    @property
    def n_schedulers(self) -> int:
        """Number of schedulers (= number of clusters)."""
        return len(self.scheduler_nodes)

    @property
    def n_estimators(self) -> int:
        """Number of status estimators."""
        return len(self.estimator_nodes)

    @property
    def n_resources(self) -> int:
        """Number of resources in the resource pool."""
        return len(self.resource_nodes)

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` if broken.

        Invariants: clusters partition the resources; every cluster is
        non-empty; estimator coverage maps are mutually consistent.
        """
        assert len(self.cluster_of_resource) == self.n_resources
        assert len(self.estimator_of_resource) == self.n_resources
        seen = 0
        for sched, rs in self.resources_of_cluster.items():
            assert 0 <= sched < self.n_schedulers
            assert rs, f"cluster {sched} is empty"
            for r in rs:
                assert self.cluster_of_resource[r] == sched
            seen += len(rs)
        assert seen == self.n_resources, "clusters must partition the resources"
        for est, scheds in self.schedulers_of_estimator.items():
            assert 0 <= est < self.n_estimators
            assert scheds == sorted(set(scheds))
        for r, est in enumerate(self.estimator_of_resource):
            assert self.cluster_of_resource[r] in self.schedulers_of_estimator[est]


def map_grid(
    topo: Topology,
    n_schedulers: int,
    n_resources: int,
    n_estimators: int | None = None,
) -> GridMap:
    """Place schedulers, estimators, and resources on ``topo``.

    Parameters
    ----------
    topo:
        Router topology (must be connected).
    n_schedulers:
        Number of schedulers / clusters (>= 1).
    n_resources:
        Number of resources (>= n_schedulers so no cluster is empty).
    n_estimators:
        Number of status estimators; defaults to ``n_schedulers`` (one
        co-located estimator per scheduler — the base RMS configuration).

    Returns
    -------
    GridMap
        A validated placement.
    """
    if n_schedulers < 1:
        raise ValueError("need at least one scheduler")
    if n_resources < n_schedulers:
        raise ValueError("need at least one resource per scheduler")
    if n_estimators is None:
        n_estimators = n_schedulers
    if n_estimators < 1:
        raise ValueError("need at least one estimator")

    n = topo.n_nodes
    # Schedulers at the best-connected routers; deterministic tie-break
    # by node id so placements are reproducible.
    by_degree = sorted(range(n), key=lambda u: (-topo.degree(u), u))
    scheduler_nodes = sorted(by_degree[:n_schedulers])

    # Resources occupy the remaining routers, wrapping around (multiple
    # resource sites may share a router) when the pool outgrows the graph.
    sched_set = set(scheduler_nodes)
    non_sched = [u for u in range(n) if u not in sched_set]
    if not non_sched:  # degenerate tiny graph: co-locate
        non_sched = list(range(n))
    resource_nodes = [non_sched[i % len(non_sched)] for i in range(n_resources)]

    # Non-overlapping, *balanced* clusters.  Pure nearest-scheduler
    # assignment on a skewed router graph produces clusters of wildly
    # different sizes, and since jobs are submitted per cluster, a
    # one-resource cluster is structurally overloaded regardless of the
    # RMS — it would confound the scalability measurement (the cited
    # load-balancing studies all use comparable cluster sizes).  We keep
    # locality but cap cluster size: resources claim their nearest
    # scheduler greedily (closest pairs first) and overflow to the next
    # nearest with free capacity.
    sched_tables = shortest_path_tables(topo, scheduler_nodes)
    cap = -(-n_resources // n_schedulers)  # ceil division
    # Latency matrix (scheduler x resource site) for the greedy fill.
    # Stable argsort ties break by scheduler id, reproducing the old
    # per-resource ``sorted(..., key=(dist, s))`` bit-for-bit while
    # staying vectorized: at 1e5 resources x 100+ schedulers the
    # per-resource Python sorts alone used to dominate build time.
    lat = sched_tables.latency[:, np.asarray(resource_nodes, dtype=np.intp)]
    prefs_of = np.argsort(lat, axis=0, kind="stable")
    nearest = lat[prefs_of[0], np.arange(n_resources)]
    order = sorted(zip(nearest.tolist(), range(n_resources)))
    cluster_of_resource = [-1] * n_resources
    fill = [0] * n_schedulers
    for _, r in order:
        for s in prefs_of[:, r]:
            if fill[s] < cap:
                cluster_of_resource[r] = int(s)
                fill[s] += 1
                break
    resources_of_cluster: Dict[int, List[int]] = {s: [] for s in range(n_schedulers)}
    for r, s in enumerate(cluster_of_resource):
        resources_of_cluster[s].append(r)
    # The cap guarantees every cluster gets at least one resource when
    # n_resources >= n_schedulers, except in the corner where caps round
    # up; rebalance any stragglers from the fullest clusters.
    empties = [s for s, rs in resources_of_cluster.items() if not rs]
    for s in empties:
        donor = max(resources_of_cluster, key=lambda c: len(resources_of_cluster[c]))
        moved = resources_of_cluster[donor].pop()
        resources_of_cluster[s].append(moved)
        cluster_of_resource[moved] = s
    for s in resources_of_cluster:
        resources_of_cluster[s].sort()

    # Estimators: one co-located with each scheduler first; extra
    # estimators (Case 3 scaling) sit at the site of the cluster they
    # help cover.  With fewer estimators than schedulers, estimator e
    # serves clusters {e, e + n_est, ...} from scheduler e's site.
    estimator_nodes = []
    for e in range(n_estimators):
        if e < n_schedulers:
            estimator_nodes.append(scheduler_nodes[e])
        else:
            estimator_nodes.append(
                scheduler_nodes[(e - n_schedulers) % n_schedulers]
            )

    # Estimator coverage is cluster-aligned: with one estimator per
    # scheduler (the base configuration) each cluster reports to its
    # co-located estimator, so a scheduler receives exactly one batched
    # forward per window.  Scaling the estimator plane up (Case 3)
    # assigns the extra estimators to clusters round-robin and splits
    # each cluster's resources evenly across its estimators — that
    # fragmentation (more forwards per cluster per window) is precisely
    # the overhead mechanism the paper's Figure 4 measures.  With fewer
    # estimators than schedulers, clusters share estimators whole.
    estimator_of_resource = [0] * n_resources
    if n_estimators >= n_schedulers:
        ests_of_cluster: Dict[int, List[int]] = {s: [s] for s in range(n_schedulers)}
        for e in range(n_schedulers, n_estimators):
            ests_of_cluster[(e - n_schedulers) % n_schedulers].append(e)
        for s, rs in resources_of_cluster.items():
            ests = ests_of_cluster[s]
            for i, r in enumerate(rs):
                estimator_of_resource[r] = ests[i % len(ests)]
    else:
        for s, rs in resources_of_cluster.items():
            for r in rs:
                estimator_of_resource[r] = s % n_estimators

    schedulers_of_estimator: Dict[int, List[int]] = {e: [] for e in range(n_estimators)}
    for r in range(n_resources):
        e = estimator_of_resource[r]
        s = cluster_of_resource[r]
        if s not in schedulers_of_estimator[e]:
            schedulers_of_estimator[e].append(s)
    for e in schedulers_of_estimator:
        schedulers_of_estimator[e].sort()
        # Estimators with no coverage still forward nothing; keep them
        # valid entries so scaling the estimator count is well-defined.

    gm = GridMap(
        topology=topo,
        scheduler_nodes=scheduler_nodes,
        estimator_nodes=estimator_nodes,
        resource_nodes=resource_nodes,
        cluster_of_resource=cluster_of_resource,
        resources_of_cluster=resources_of_cluster,
        estimator_of_resource=estimator_of_resource,
        schedulers_of_estimator=schedulers_of_estimator,
        scheduler_tables=sched_tables,
    )
    gm.validate()
    return gm
