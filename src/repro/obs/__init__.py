"""repro.obs — deterministic tracing on the simulation clock.

Spans + tracer (:mod:`~repro.obs.span`), Chrome/Perfetto trace-event
export (:mod:`~repro.obs.export`), and structural validation of the
exported JSON (:mod:`~repro.obs.validate`).  See docs/OBSERVABILITY.md
for the span taxonomy and the zero-perturbation contract.
"""

from .export import trace_document, trace_events, write_trace
from .span import (
    NULL_SPAN,
    NULL_TRACER,
    Interval,
    NullSpan,
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
    intervals_total,
    merge_intervals,
)
from .validate import validate_trace

__all__ = [
    "Interval",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "Span",
    "SpanEvent",
    "Tracer",
    "intervals_total",
    "merge_intervals",
    "trace_document",
    "trace_events",
    "validate_trace",
    "write_trace",
]
