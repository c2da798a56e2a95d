"""Simulated network fabric: NICs, switch and point-to-point transport."""

from .fabric import Fabric
from .message import (
    TAG_CONTROL,
    TAG_DATA,
    TAG_HALO,
    TAG_RESULT,
    TAG_RPC,
    TAG_RPC_REPLY,
    Message,
)
from .nic import NIC
from .transport import Transport

__all__ = [
    "Fabric",
    "Message",
    "NIC",
    "TAG_CONTROL",
    "TAG_DATA",
    "TAG_HALO",
    "TAG_RESULT",
    "TAG_RPC",
    "TAG_RPC_REPLY",
    "Transport",
]
