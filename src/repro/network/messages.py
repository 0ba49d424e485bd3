"""Message taxonomy for the Grid control and data planes.

Every interaction in the managed system is a :class:`Message` routed by
:class:`~repro.network.transport.Network`.  Message kinds fall into three
groups:

* **status plane** — resource load reports flowing to estimators and on
  to schedulers (the "state estimation" the paper charges to ``G(k)``);
* **scheduling plane** — the per-RMS protocol messages (polls, bids,
  reservations, advertisements, middleware-relayed queries);
* **job plane** — job submissions, transfers between clusters, dispatch
  to a resource, and completion notifications.

Each kind carries a default payload size (in abstract payload units)
used by the transport to price transmission time on finite-bandwidth
links; job transfers are an order of magnitude heavier than control
messages, matching the usual Grid assumption.

The two status-plane kinds that repeat per resource and per batch
window have their own slotted subclasses, :class:`StatusUpdate` and
:class:`StatusForward`, whose fields are attributes instead of a
payload dict (their ``payload`` is ``None``): a saturated estimator
queues tens of thousands of updates, and a payload dict would be most
of each one's memory.  Every other kind carries a payload dict.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["MessageKind", "Message", "StatusUpdate", "StatusForward", "DEFAULT_SIZES"]


class MessageKind:
    """String constants naming every message type in the system."""

    # status plane
    STATUS_UPDATE = "status_update"        # resource -> estimator
    STATUS_FORWARD = "status_forward"      # estimator -> scheduler
    RESOURCE_DEAD = "resource_dead"        # estimator -> scheduler (liveness)

    # scheduling plane (shared)
    POLL_REQUEST = "poll_request"          # scheduler -> scheduler (LOWEST/S-I)
    POLL_REPLY = "poll_reply"

    # RESERVE protocol
    RESERVE_ADVERT = "reserve_advert"      # lightly loaded cluster registers reservations
    RESERVE_PROBE = "reserve_probe"        # overloaded cluster probes a reservation
    RESERVE_REPLY = "reserve_reply"
    RESERVE_CANCEL = "reserve_cancel"

    # AUCTION protocol
    AUCTION_INVITE = "auction_invite"      # idle cluster invites bids
    AUCTION_BID = "auction_bid"            # overloaded cluster bids
    AUCTION_AWARD = "auction_award"        # winner asked to transfer a job

    # R-I / Sy-I protocol
    VOLUNTEER = "volunteer"                # underutilized cluster advertises itself
    DEMAND = "demand"                      # job demands sent to a volunteer
    DEMAND_REPLY = "demand_reply"          # volunteer's ATT/RUS answer

    # job plane
    JOB_SUBMIT = "job_submit"              # workload source -> scheduler
    JOB_TRANSFER = "job_transfer"          # scheduler -> scheduler (remote execution)
    JOB_DISPATCH = "job_dispatch"          # scheduler -> resource
    JOB_COMPLETE = "job_complete"          # resource -> scheduler

    # middleware relay (S-I / R-I / Sy-I inter-scheduler traffic)
    MIDDLEWARE_RELAY = "middleware_relay"


#: Default payload sizes per message kind (payload units).  Control
#: messages are light; job transfers move the job image/state.
DEFAULT_SIZES: Dict[str, float] = {
    MessageKind.STATUS_UPDATE: 1.0,
    MessageKind.STATUS_FORWARD: 1.0,
    MessageKind.RESOURCE_DEAD: 1.0,
    MessageKind.POLL_REQUEST: 1.0,
    MessageKind.POLL_REPLY: 2.0,
    MessageKind.RESERVE_ADVERT: 1.0,
    MessageKind.RESERVE_PROBE: 1.0,
    MessageKind.RESERVE_REPLY: 1.0,
    MessageKind.RESERVE_CANCEL: 1.0,
    MessageKind.AUCTION_INVITE: 1.0,
    MessageKind.AUCTION_BID: 1.0,
    MessageKind.AUCTION_AWARD: 1.0,
    MessageKind.VOLUNTEER: 1.0,
    MessageKind.DEMAND: 2.0,
    MessageKind.DEMAND_REPLY: 2.0,
    MessageKind.JOB_SUBMIT: 4.0,
    MessageKind.JOB_TRANSFER: 20.0,
    MessageKind.JOB_DISPATCH: 4.0,
    MessageKind.JOB_COMPLETE: 1.0,
    MessageKind.MIDDLEWARE_RELAY: 1.0,
}


class Message:
    """A routed unit of communication between two entities.

    Attributes
    ----------
    kind:
        One of the :class:`MessageKind` constants.
    sender:
        Originating entity (its ``node`` locates the source router); may
        be ``None`` for external workload injection.
    payload:
        Kind-specific dictionary (job references, bids, ...); ``None``
        on the typed status-plane messages.
    size:
        Payload size in payload units (defaults to ``DEFAULT_SIZES``).
    created_at:
        Simulated send time, stamped by the transport.
    trace:
        Causal-tracing context ``(trace_id, parent span index)`` for
        messages carrying a sampled job; ``None`` otherwise (always
        ``None`` when tracing is off).
    """

    __slots__ = ("kind", "sender", "payload", "size", "created_at", "trace")

    def __init__(
        self,
        kind: str,
        sender: Optional[Any] = None,
        payload: Optional[Dict[str, Any]] = None,
        size: Optional[float] = None,
    ) -> None:
        self.kind = kind
        self.sender = sender
        self.payload = payload if payload is not None else {}
        # Only explicitly passed sizes need validating; the defaults
        # table is known-positive, and message construction is hot
        # (every status update, poll, and dispatch allocates one).
        if size is None:
            size = DEFAULT_SIZES.get(kind, 1.0)
        elif size <= 0.0:
            raise ValueError("message size must be positive")
        self.size = size
        self.created_at: Optional[float] = None
        self.trace = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        src = getattr(self.sender, "name", None)
        return f"Message({self.kind} from {src}, size={self.size})"


class StatusUpdate(Message):
    """A resource's load report to its estimator (``STATUS_UPDATE``).

    ``incarnation`` counts the resource's reboots, so an estimator's
    liveness watch can tell a restarted resource from a live one.
    """

    __slots__ = ("resource_id", "cluster_id", "load", "incarnation")

    def __init__(self, resource_id: int, cluster_id: int, load: float, incarnation: int) -> None:
        # Slots are set directly: Message.__init__ would give ``payload``
        # an empty dict, the allocation this class exists to avoid.
        self.kind = MessageKind.STATUS_UPDATE
        self.sender = None
        self.payload = None
        self.size = 1.0
        self.created_at = None
        self.trace = None
        self.resource_id = resource_id
        self.cluster_id = cluster_id
        self.load = load
        self.incarnation = incarnation


class StatusForward(Message):
    """An estimator's batch of loads for one cluster's scheduler
    (``STATUS_FORWARD``): ``entries`` maps resource id to load, and the
    size is one payload unit per entry (at least one)."""

    __slots__ = ("cluster_id", "entries")

    def __init__(self, cluster_id: int, entries: Dict[int, float]) -> None:
        self.kind = MessageKind.STATUS_FORWARD
        self.sender = None
        self.payload = None
        self.size = max(1.0, float(len(entries)))
        self.created_at = None
        self.trace = None
        self.cluster_id = cluster_id
        self.entries = entries
