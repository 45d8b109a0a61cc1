"""Measurement: one summary row per session, read from its trace.

The paper measures with a Monsoon power monitor at the battery pins plus
the in-house kernel app's log file.  Here the session's
:class:`~repro.kernel.tracing.TraceRecorder` is that log, and
:func:`summarize` reduces it to the :class:`SessionSummary` row every
figure reads: mean power (the Monsoon number), mean FPS, mean cores,
mean frequency and mean load.
"""

from .summary import SessionSummary, summarize

__all__ = [
    "SessionSummary",
    "summarize",
]
