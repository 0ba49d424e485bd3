"""Message transport substrate: OSPF-like routing + delivery."""

from .messages import DEFAULT_SIZES, Message, MessageKind, StatusForward, StatusUpdate
from .routing import Router
from .transport import Network

__all__ = [
    "DEFAULT_SIZES",
    "Message",
    "MessageKind",
    "Network",
    "Router",
    "StatusForward",
    "StatusUpdate",
]
