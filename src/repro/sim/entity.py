"""Entity base classes for simulation actors.

Two kinds of actors appear in the Grid model:

* Plain :class:`Entity` — something with a location on the topology that
  can receive messages instantaneously (resources are close to this: their
  "server" is the CPU serving jobs, not a message processor).
* :class:`MessageServer` — an actor that processes incoming messages
  **serially**: each delivered message occupies the actor for a finite
  service time, and messages arriving meanwhile wait in a FIFO queue.

The message-server model is the load-bearing piece of the reproduction.
The paper defines the RMS overhead ``G(k)`` as "the overall time spent by
the schedulers for scheduling, receiving, and processing updates"; by
making schedulers finite-rate servers, that time is an emergent quantity
(busy time), queueing delay at a saturated scheduler naturally degrades
job response times (and hence efficiency), and a CENTRAL scheduler
bottlenecks exactly the way the paper describes in its Figure-3
discussion.

Busy time is charged to a *ledger*: any object exposing
``charge(category: str, amount: float, source=None)``.  The concrete
ledger lives in :mod:`repro.core.ledger`; the kernel layer stays
independent of it.  ``source`` is an opaque attribution tag — here a
``(component kind, entity id, message class)`` tuple built once per
message kind and cached, so the overhead-attribution machinery costs the
hot path one cached dict lookup.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Protocol, Tuple, runtime_checkable

from .kernel import Simulator
from .monitor import TimeWeighted

__all__ = ["Entity", "MessageServer", "ChargeSink"]


@runtime_checkable
class ChargeSink(Protocol):
    """Anything that can absorb a cost charge (see ``core.ledger``)."""

    def charge(
        self, category: str, amount: float, source: Optional[Tuple[str, str, str]] = None
    ) -> None:
        """Record ``amount`` time units of cost under ``category``."""
        ...  # pragma: no cover - protocol definition


class Entity:
    """A named actor bound to a simulator and a topology node.

    Parameters
    ----------
    sim:
        The driving :class:`~repro.sim.kernel.Simulator`.
    name:
        Unique human-readable identifier (used in logs and tests).
    node:
        Topology node id this entity is attached to; message transit
        delays are computed between entity nodes.
    """

    __slots__ = ("sim", "name", "node")

    def __init__(self, sim: Simulator, name: str, node: int = 0) -> None:
        self.sim = sim
        self.name = name
        self.node = node

    def deliver(self, message: Any) -> None:
        """Receive ``message`` at the current simulated instant.

        The base implementation dispatches straight to :meth:`handle`;
        :class:`MessageServer` overrides this to add queueing.
        """
        self.handle(message)

    def handle(self, message: Any) -> None:
        """Process one message.  Subclasses must override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}@{self.node})"


class MessageServer(Entity):
    """An entity that serves incoming messages one at a time.

    Each message occupies the server for :meth:`service_time` units; the
    protocol reaction :meth:`handle` runs when service *completes* (i.e.
    decisions are made after the processing cost is paid).  Busy time is
    charged to ``ledger`` under :meth:`cost_category`.

    Subclasses implement:

    * :meth:`service_time` — processing cost of a message (may depend on
      state, e.g. CENTRAL's status-table scan is proportional to the
      number of resources it manages);
    * :meth:`cost_category` — ledger category for that cost;
    * :meth:`handle` — the protocol logic.

    ``component`` names the component kind in attribution source tags;
    concrete server types (scheduler, estimator, middleware) override it.
    """

    #: component kind used in attribution source tags
    component = "server"

    __slots__ = (
        "ledger",
        "_queue",
        "_busy",
        "_paused",
        "queue_stat",
        "busy_time",
        "served",
        "_source_cache",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        node: int = 0,
        ledger: Optional[ChargeSink] = None,
    ) -> None:
        super().__init__(sim, name, node)
        self.ledger = ledger
        self._queue: Deque[Any] = deque()
        self._busy = False
        self._paused = False
        #: time-weighted queue-length statistic (diagnostics, saturation tests)
        self.queue_stat = TimeWeighted(f"{name}.queue", time=sim.now)
        #: total busy time accumulated by this server
        self.busy_time = 0.0
        #: number of messages fully served
        self.served = 0
        #: message-kind → cached attribution tuple (see :meth:`cost_source`)
        self._source_cache: Dict[Any, Tuple[str, str, str]] = {}

    # -- interface for subclasses ---------------------------------------
    def service_time(self, message: Any) -> float:
        """Processing cost of ``message`` in time units.  Override."""
        raise NotImplementedError

    def cost_category(self, message: Any) -> str:
        """Ledger category the processing cost is charged to.  Override."""
        raise NotImplementedError

    def cost_source(self, message: Any) -> Optional[Tuple[str, str, str]]:
        """Attribution tag ``(component, entity, message class)`` for the
        processing cost of ``message``.

        Tuples are interned per message kind so repeated charges reuse
        one object; messages without a ``kind`` stay untagged.
        """
        kind = getattr(message, "kind", None)
        if kind is None:
            return None
        source = self._source_cache.get(kind)
        if source is None:
            source = (self.component, self.name, str(kind))
            self._source_cache[kind] = source
        return source

    # -- queueing machinery ----------------------------------------------
    @property
    def busy(self) -> bool:
        """Whether the server is currently processing a message."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Number of messages waiting (excluding the one in service)."""
        return len(self._queue)

    @property
    def paused(self) -> bool:
        """Whether the server is in a blackout (accepting but not serving)."""
        return self._paused

    def deliver(self, message: Any) -> None:
        """Enqueue ``message``; begin service immediately if idle."""
        if self._busy or self._paused:
            self._queue.append(message)
            self.queue_stat.update(self.sim.now, len(self._queue))
        else:
            self._begin(message)

    def pause(self) -> None:
        """Enter a blackout: stop starting service on new messages.

        A message already in service completes normally; everything else
        (including new arrivals) queues until :meth:`resume` — nothing is
        lost, mirroring a hung-but-reachable node.
        """
        self._paused = True

    def resume(self) -> None:
        """Leave a blackout and drain whatever queued during it."""
        if not self._paused:
            return
        self._paused = False
        if not self._busy and self._queue:
            nxt = self._queue.popleft()
            self.queue_stat.update(self.sim.now, len(self._queue))
            self._begin(nxt)

    def _begin(self, message: Any) -> None:
        self._busy = True
        st = self.service_time(message)
        if st < 0.0:
            raise ValueError(f"{self.name}: negative service time {st}")
        self.sim.schedule(st, self._complete, message, st)

    def _complete(self, message: Any, st: float) -> None:
        self.busy_time += st
        self.served += 1
        ledger = self.ledger
        if ledger is not None and st > 0.0:
            # cost_source()'s interned tag, read inline; only a miss
            # (first message of a kind, or no kind) takes the call
            source = self._source_cache.get(getattr(message, "kind", None))
            if source is None:
                source = self.cost_source(message)
            ledger.charge(self.cost_category(message), st, source)
        # React *before* pulling the next message so handlers observe a
        # consistent "just finished" state; any messages the handler sends
        # to self are queued behind already-waiting ones.
        self.handle(message)
        if self._queue and not self._paused:
            nxt = self._queue.popleft()
            self.queue_stat.update(self.sim.now, len(self._queue))
            self._begin(nxt)
        else:
            self._busy = False
