"""Discrete-event simulation engine (SimPy-style, self-contained).

Public surface:

* :class:`Environment` — clock + event queue + process scheduler.
* :class:`Event`, :class:`Timeout`, :class:`AllOf`, :class:`AnyOf`.
* :class:`Process` (returned by ``env.process``), interruptible.
* :class:`Resource`, :class:`ReadWriteLock`, :class:`Store`,
  :class:`FilterStore`.
* :class:`MonitorHub` for counters/gauges/histograms.
* :class:`RandomStreams` for reproducible named RNG substreams.
"""

from .core import Environment, Process
from .events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Timeout,
    contain_failures,
    outcome_of,
)
from .monitor import Counter, Gauge, MonitorHub
from .rand import RandomStreams
from .resources import (
    FilterStore,
    ReadWriteLock,
    Request,
    Resource,
    RWClaim,
    Store,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Counter",
    "Environment",
    "Event",
    "FilterStore",
    "Gauge",
    "MonitorHub",
    "Process",
    "RWClaim",
    "RandomStreams",
    "ReadWriteLock",
    "Request",
    "Resource",
    "Store",
    "Timeout",
    "contain_failures",
    "outcome_of",
]
