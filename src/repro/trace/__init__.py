"""Event tracing and message-sequence-chart rendering.

:class:`~repro.trace.recorder.TraceRecorder` captures per-node
send/receive/verdict events; :mod:`repro.trace.sequence` renders them as
the ASCII message-sequence charts that reproduce Figures 2 and 3 of the
paper.  The trace serves single scenarios; campaign runs record none.
"""

from repro.trace.recorder import TraceEvent, TraceRecorder
from repro.trace.sequence import render_sequence_chart

__all__ = ["TraceEvent", "TraceRecorder", "render_sequence_chart"]
