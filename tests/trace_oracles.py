"""Eager-format trace recorder the lazy trace detail is checked against.

The simulator never uses this.  :class:`EagerRecorder` formats every
event's detail string at record time -- ``msg.summary()`` plus the
``" ->target"`` suffix of a unicast send, or the note/verdict text --
exactly as the recorder did before details became lazy.  The lazy-detail
suite swaps it in for a scenario's recorder and demands event strings,
transcripts and sequence charts byte-identical to production's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class EagerEvent:
    time: float
    node: str
    kind: str
    msg_type: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.time:10.6f}] {self.node:>8} {self.kind:<7} {self.msg_type:<5} {self.detail}"


class EagerRecorder:
    """Drop-in for :class:`~repro.trace.recorder.TraceRecorder` that
    formats each detail when the event is recorded."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[EagerEvent] = []

    def record(self, time: float, node: str, kind: str, msg_type: str,
               text: str = "", payload: Any = None, target: Any = None) -> None:
        if payload is not None:
            text = payload.summary()
            if target is not None:
                text += f" ->{target}"
        self.events.append(EagerEvent(time, node, kind, msg_type, text))
