"""Per-run event trace.

Nodes report ``send``/``recv``/``verdict``/``note`` events; the recorder
keeps them in simulation-time order (appends are already ordered because
the kernel is sequential).  An event keeps its message (frozen) and
formats ``detail`` on first read, so an unread trace formats nothing.
Campaign runs switch the trace off; it serves single scenarios (the
Figure 2/3 sequences, debugging).  Filters return lightweight views --
no copying of message objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable


@dataclass(frozen=True)
class TraceEvent:
    """One traced protocol event.

    ``kind`` is ``"send"``, ``"recv"``, ``"verdict"`` or ``"note"``; sends
    and receipts carry ``payload`` (a unicast its ``target``), the rest ``text``.
    """

    time: float
    node: str
    kind: str
    msg_type: str
    text: str = ""
    payload: Any = None
    target: Any = None

    @cached_property
    def detail(self) -> str:
        """The message summary (plus ``" ->target"``), else the text."""
        if self.payload is None:
            return self.text
        if self.target is None:
            return self.payload.summary()
        return f"{self.payload.summary()} ->{self.target}"

    def __str__(self) -> str:
        return f"[{self.time:10.6f}] {self.node:>8} {self.kind:<7} {self.msg_type:<5} {self.detail}"


class TraceRecorder:
    """Append-only event log with simple query helpers."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: list[TraceEvent] = []

    def record(
        self,
        time: float,
        node: str,
        kind: str,
        msg_type: str,
        text: str = "",
        payload: Any = None,
        target: Any = None,
    ) -> None:
        if self.enabled:
            self.events.append(TraceEvent(time, node, kind, msg_type, text, payload, target))

    # -- queries -----------------------------------------------------------
    def filter(
        self,
        kind: str | None = None,
        msg_type: str | None = None,
        node: str | None = None,
    ) -> list[TraceEvent]:
        out: Iterable[TraceEvent] = self.events
        if kind is not None:
            out = (e for e in out if e.kind == kind)
        if msg_type is not None:
            out = (e for e in out if e.msg_type == msg_type)
        if node is not None:
            out = (e for e in out if e.node == node)
        return list(out)

    def sends(self, msg_type: str | None = None) -> list[TraceEvent]:
        return self.filter(kind="send", msg_type=msg_type)

    def receipts(self, msg_type: str | None = None) -> list[TraceEvent]:
        return self.filter(kind="recv", msg_type=msg_type)

    def dump(self, limit: int | None = None) -> str:
        """Human-readable chronological dump."""
        events = self.events if limit is None else self.events[:limit]
        return "\n".join(str(e) for e in events)

    def clear(self) -> None:
        self.events.clear()
