"""Status tables: the manager's (stale) view of the managee.

Schedulers never inspect resources directly — they act on the last
status update that reached them, which is the whole reason state
estimation appears in ``G(k)``.  :class:`StatusTable` stores, per
resource, the last known load and its timestamp, and supports the
**optimistic increment** every dispatching scheduler performs: when it
sends a job to a resource it bumps its own view immediately rather than
waiting a full update interval (otherwise every scheduler would dump all
arrivals onto the same momentarily-least-loaded resource).

Failure semantics: a resource the estimator declared dead is *aged out*
— :meth:`StatusTable.mark_dead` keeps the entry (the table still tracks
it) but excludes it from every placement view (``least_loaded``,
``average_load``, ``min_load``) until fresh news arrives.  Any newer
status update revives the entry automatically, so detection stays purely
message-driven.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, Optional, Set, Tuple

__all__ = ["StatusTable"]


class StatusTable:
    """Last-known loads of a set of resources.

    Parameters
    ----------
    resource_ids:
        The resources this table tracks (a cluster for distributed
        schedulers, the whole pool for CENTRAL).
    """

    __slots__ = ("_load", "_stamp", "_dead", "_heap", "_compact_at")

    def __init__(self, resource_ids: Iterable[int]) -> None:
        self._load: Dict[int, float] = {r: 0.0 for r in resource_ids}
        self._stamp: Dict[int, float] = {r: -math.inf for r in self._load}
        self._dead: Set[int] = set()
        # Lazy min-heap over (load, id): every mutation that changes a
        # live resource's load (or revives it) pushes a fresh entry, so
        # each live resource always has a valid entry; stale/dead
        # entries are discarded when they surface at the top.
        # `least_loaded` is the per-decision hot path (every
        # placement calls it), and the lexicographic heap minimum is
        # exactly the old sorted-scan answer — smallest load, lowest id
        # on ties — at O(log n) per mutation instead of O(n log n) per
        # decision, which is what keeps decisions affordable when one
        # table tracks 1e5-scale pools.
        self._heap = [(0.0, r) for r in sorted(self._load)]
        #: heap size past which lazy entries are compacted away
        self._compact_at = max(64, 8 * len(self._load))

    def __contains__(self, resource_id: int) -> bool:
        return resource_id in self._load

    def __len__(self) -> int:
        return len(self._load)

    def record(self, resource_id: int, load: float, time: float) -> None:
        """Store an observed load for ``resource_id`` at ``time``.

        Out-of-order updates (older than the stored stamp) are ignored —
        the network can reorder messages sent over different paths.
        """
        loads = self._load
        if resource_id not in loads:
            raise KeyError(f"resource {resource_id} not tracked by this table")
        if time >= self._stamp[resource_id]:
            self._stamp[resource_id] = time
            dead = self._dead
            if resource_id in dead:
                # Fresh news proves liveness: a recovered resource
                # rejoins the placement view on its first post-repair
                # report.  It must re-enter the heap even when the load
                # is unchanged: the dead entry may already be discarded.
                dead.discard(resource_id)
            elif loads[resource_id] == load:
                # A live resource repeating its load (nearly every
                # keepalive): the heap already holds a valid entry.  The
                # value is still stored, so ``load_of`` returns what was
                # sent even when it is an equal value of another type.
                loads[resource_id] = load
                return
            loads[resource_id] = load
            heapq.heappush(self._heap, (load, resource_id))
            if len(self._heap) > self._compact_at:
                self._compact()

    def bump(self, resource_id: int, by: float = 1.0) -> None:
        """Optimistically adjust a tracked load (local dispatch bookkeeping)."""
        if resource_id not in self._load:
            raise KeyError(f"resource {resource_id} not tracked by this table")
        load = max(0.0, self._load[resource_id] + by)
        self._load[resource_id] = load
        heapq.heappush(self._heap, (load, resource_id))
        if len(self._heap) > self._compact_at:
            self._compact()

    def load_of(self, resource_id: int) -> float:
        """Last known load of one resource."""
        return self._load[resource_id]

    def mark_dead(self, resource_id: int) -> None:
        """Age the resource out of every placement view (entry is kept)."""
        if resource_id not in self._load:
            raise KeyError(f"resource {resource_id} not tracked by this table")
        self._dead.add(resource_id)

    def is_dead(self, resource_id: int) -> bool:
        """Whether the resource is currently aged out."""
        return resource_id in self._dead

    @property
    def alive_count(self) -> int:
        """Tracked resources not currently aged out."""
        return len(self._load) - len(self._dead)

    def _compact(self) -> None:
        """Rebuild the heap from live state once lazy entries pile up."""
        dead = self._dead
        self._heap = [(v, r) for r, v in self._load.items() if r not in dead]
        heapq.heapify(self._heap)

    def least_loaded(self) -> Tuple[Optional[int], float]:
        """Live resource with the smallest known load (ties -> lowest id).

        Returns ``(None, inf)`` for an empty table or when every tracked
        resource is aged out.
        """
        heap = self._heap
        load = self._load
        dead = self._dead
        while heap:
            v, r = heap[0]
            if r in dead or load[r] != v:
                heapq.heappop(heap)  # stale lazy entry
                continue
            return r, v
        return None, math.inf

    def average_load(self) -> float:
        """Mean known load over live resources (``nan`` if none)."""
        n = len(self._load) - len(self._dead)
        if n == 0:
            return math.nan
        if not self._dead:
            return sum(self._load.values()) / n
        return (
            sum(v for r, v in self._load.items() if r not in self._dead) / n
        )

    def min_load(self) -> float:
        """Smallest known live load (``inf`` if none)."""
        if not self._dead:
            return min(self._load.values(), default=math.inf)
        return min(
            (v for r, v in self._load.items() if r not in self._dead),
            default=math.inf,
        )

    def staleness_of(self, resource_id: int, now: float) -> float:
        """Age of one entry at ``now`` (``nan`` if never updated).

        The per-decision twin of :meth:`mean_staleness`: the causal
        tracer records it on every dispatch, so a trace shows how stale
        the status row behind each placement actually was.
        """
        stamp = self._stamp[resource_id]
        if stamp == -math.inf:
            return math.nan
        return now - stamp

    def mean_staleness(self, now: float) -> float:
        """Mean age of the table's live entries at ``now``.

        How old, on average, the placement view is — the accuracy side
        of the monitoring overhead/accuracy tradeoff the probe layer
        samples.  Entries that never received an update (stamp
        ``-inf``) and aged-out dead entries are excluded; ``nan`` when
        nothing qualifies.
        """
        total = 0.0
        n = 0
        dead = self._dead
        for r, stamp in self._stamp.items():
            if stamp == -math.inf or r in dead:
                continue
            total += now - stamp
            n += 1
        return total / n if n else math.nan

    def loads(self) -> Dict[int, float]:
        """Copy of the full view (diagnostics/tests)."""
        return dict(self._load)
