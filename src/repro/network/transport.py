"""Message transport: delivery of messages between entities.

:class:`Network` glues the routing substrate to the event kernel: a call
to :meth:`Network.send` prices the message over the latency-shortest
path, optionally applies the **link-delay scaling enabler** (one of the
paper's tuning knobs in Tables 2–5: provisioning faster or slower links
for the control plane), and schedules ``recipient.deliver(message)``
after the transit delay.

Failure injection: a configurable ``loss_probability`` silently drops
**control-plane** messages in flight (status updates, polls, bids,
adverts).  The job plane — submission, dispatch, transfer, completion —
is modeled as reliable transport (as in real grid middleware, where job
control rides TCP with retries), so loss degrades scheduling quality
without stranding jobs.  All seven RMS protocols must tolerate control
loss without deadlocking (their timeouts/periodic behaviour re-drive
progress); the integration tests exercise it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..sim.entity import Entity
from ..sim.kernel import Simulator
from .messages import Message, MessageKind
from .routing import Router

__all__ = ["Network", "RELIABLE_KINDS"]

#: job-plane message kinds carried over reliable transport (never
#: subject to loss injection)
RELIABLE_KINDS = frozenset(
    {
        MessageKind.JOB_SUBMIT,
        MessageKind.JOB_DISPATCH,
        MessageKind.JOB_TRANSFER,
        MessageKind.JOB_COMPLETE,
        # Losing a dead-resource declaration would strand the victim's
        # jobs until the next sweep re-fires — model it as the retried
        # RPC it would be in a real RMS.
        MessageKind.RESOURCE_DEAD,
    }
)


def _effective_kind(message: Message) -> str:
    """The kind that decides reliability — unwrapping middleware relays
    so a relayed job transfer stays reliable."""
    if message.kind == MessageKind.MIDDLEWARE_RELAY:
        inner = message.payload.get("inner")
        if inner is not None:
            return inner.kind
    return message.kind


class Network:
    """Delivers messages between entities over a routed topology.

    Parameters
    ----------
    sim:
        The driving simulator.
    router:
        Path oracle over the topology.
    delay_scale:
        Multiplier on every transit delay — the "network link delay"
        scaling enabler of Tables 2–5.  ``1.0`` is the topology's native
        speed; values below 1 model faster provisioned links.
    loss_probability:
        Probability a message is dropped in flight (failure injection;
        ``0.0`` in all paper-reproduction experiments).
    rng:
        Randomness source for loss decisions (required if
        ``loss_probability > 0``).
    """

    def __init__(
        self,
        sim: Simulator,
        router: Router,
        delay_scale: float = 1.0,
        loss_probability: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if delay_scale <= 0.0:
            raise ValueError("delay_scale must be positive")
        if not (0.0 <= loss_probability < 1.0):
            raise ValueError("loss_probability must be in [0, 1)")
        if loss_probability > 0.0 and rng is None:
            raise ValueError("loss injection requires an rng")
        self.sim = sim
        self.router = router
        self.delay_scale = delay_scale
        self.loss_probability = loss_probability
        self._rng = rng
        # Degradation windows (FaultPlan) stack extra loss / delay
        # factors on top of the base knobs; the effective values above
        # are recomputed on every push/pop.
        self._base_loss = loss_probability
        self._base_delay_scale = delay_scale
        self._degradations: List[tuple] = []
        #: total messages handed to the transport
        self.messages_sent = 0
        #: messages actually delivered (sent - dropped - in flight)
        self.messages_delivered = 0
        #: messages dropped by loss injection
        self.messages_dropped = 0
        #: total payload units accepted for transmission
        self.payload_sent = 0.0
        #: per-kind traffic accounting: kind -> [messages, payload,
        #: link_payload, hops].  ``link_payload`` is payload × hop count
        #: — the volume the message actually pushed across links under
        #: store-and-forward — so it is the network-load axis of the
        #: attribution report (transit time is latency, not RMS cost,
        #: hence the network never charges the ledger).
        self._traffic: Dict[str, List[float]] = {}
        #: optional ``(kind, delay)`` observer over every routed send —
        #: the causal tracer's latency histograms; ``None`` (free) by
        #: default, same discipline as the ledger observer
        self.latency_tap = None

    def send(self, message: Message, src_node: int, recipient: Entity) -> float:
        """Send ``message`` from ``src_node`` to ``recipient``.

        Returns
        -------
        float
            The transit delay that was applied (even for dropped
            messages, for symmetry in tests).
        """
        size = message.size
        kind = message.kind
        message.created_at = self.sim.now
        self.messages_sent += 1
        self.payload_sent += size
        dst_node = recipient.node
        if src_node == dst_node:
            # Co-located handoff: transit over a zero-length path is
            # exactly 0.0 (`Router.path_info` returns zeros for
            # src == dst), so skip the router call on this hot path.
            # Loss injection below still applies, as it always did.
            delay = 0.0
            hops = 0
        else:
            # The router's cached table, read inline; a miss (uncached
            # source or destination) goes through path_info, which
            # fills the cache.
            try:
                latency, hops, factor = self.router.tables[src_node][dst_node]
            except KeyError:
                latency, hops, factor = self.router.path_info(src_node, dst_node)
            delay = self.delay_scale * (latency + size * factor)
        cell = self._traffic.get(kind)
        if cell is None:
            cell = self._traffic[kind] = [0, 0.0, 0.0, 0]
        cell[0] += 1
        cell[1] += size
        cell[2] += size * hops
        cell[3] += hops
        if self.latency_tap is not None:
            self.latency_tap(kind, delay)
        if (
            self.loss_probability > 0.0
            and _effective_kind(message) not in RELIABLE_KINDS
            and self._rng.random() < self.loss_probability
        ):
            self.messages_dropped += 1
            return delay
        self.sim.schedule(delay, self._deliver, recipient, message)
        return delay

    def send_from(self, message: Message, sender: Entity, recipient: Entity) -> float:
        """Convenience wrapper: send using ``sender``'s node, stamping the
        sender on the message."""
        message.sender = sender
        return self.send(message, sender.node, recipient)

    def _deliver(self, recipient: Entity, message: Message) -> None:
        self.messages_delivered += 1
        recipient.deliver(message)

    def record_modeled(
        self, kind: str, messages: float, payload: float, hops: float = 0.0
    ) -> None:
        """Account traffic for a *modeled* (fluid-mode) flow.

        Fluid traffic never transits the routed fabric — no delivery is
        scheduled and ``messages_sent`` counts discrete messages only —
        but the per-kind traffic summary still reflects the flow so
        attribution reports stay comparable across modes.  Counts may
        be fractional (expectation-based keepalive flows); hop metrics
        default to 0 because modeled flows are not path-priced.
        """
        cell = self._traffic.get(kind)
        if cell is None:
            cell = self._traffic[kind] = [0, 0.0, 0.0, 0]
        cell[0] += messages
        cell[1] += payload
        cell[2] += payload * hops
        cell[3] += hops

    # ------------------------------------------------------------------
    # Degradation windows (fault injection)
    # ------------------------------------------------------------------
    def push_degradation(self, extra_loss: float = 0.0, delay_factor: float = 1.0) -> None:
        """Enter a degradation window: add ``extra_loss`` to the loss
        probability and multiply transit delays by ``delay_factor``.

        Windows stack (overlaps compose additively for loss and
        multiplicatively for delay) and are removed with a matching
        :meth:`pop_degradation`.
        """
        if not (0.0 <= extra_loss < 1.0):
            raise ValueError("extra_loss must be in [0, 1)")
        if delay_factor <= 0.0:
            raise ValueError("delay_factor must be positive")
        if extra_loss > 0.0 and self._rng is None:
            raise ValueError("loss injection requires an rng")
        self._degradations.append((extra_loss, delay_factor))
        self._recompute_degradation()

    def pop_degradation(self, extra_loss: float = 0.0, delay_factor: float = 1.0) -> None:
        """Leave a degradation window previously pushed with the same
        parameters."""
        try:
            self._degradations.remove((extra_loss, delay_factor))
        except ValueError:
            raise ValueError(
                f"no active degradation window ({extra_loss}, {delay_factor})"
            ) from None
        self._recompute_degradation()

    def _recompute_degradation(self) -> None:
        loss = self._base_loss
        scale = self._base_delay_scale
        for extra_loss, delay_factor in self._degradations:
            loss += extra_loss
            scale *= delay_factor
        self.loss_probability = min(0.99, loss)
        self.delay_scale = scale

    def traffic_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-message-kind traffic totals, sorted by kind.

        Keys per kind: ``messages`` (count), ``payload`` (size units
        accepted), ``link_payload`` (payload × hops — bytes pushed
        across links), ``hops`` (total link traversals).
        """
        return {
            kind: {
                "messages": cell[0],
                "payload": cell[1],
                "link_payload": cell[2],
                "hops": cell[3],
            }
            for kind, cell in sorted(self._traffic.items())
        }
