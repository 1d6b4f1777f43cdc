"""Reference implementations the PHY fast path is checked against.

The simulator never uses these.  The equivalence suites and
``benchmarks/test_perf_phy.py`` put them in place and demand runs that
are byte-identical to production:

* :class:`NaiveScanIndex` -- the O(N) full scan: every enabled radio is
  a candidate of every query.  It stands in for the spatial-hash grid
  through :func:`installed` (``naive_index=True``), which patches the
  index class :class:`~repro.phy.medium.WirelessMedium` builds.
* :class:`ScalarBroadcastMedium` -- the per-receiver broadcast loop:
  ``math.sqrt`` distances, then per in-range receiver one fault-hook
  call, one ``random()`` loss draw and one ``schedule``.  Whole
  scenarios get it through :func:`installed` (``scalar_broadcast=True``),
  which patches the medium class the scenario builder instantiates.

:func:`fingerprint` is what those suites compare.  Benchmarks import
this module by path (``tests/`` is not a package).
"""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import repro.phy.medium as medium_mod
import repro.scenarios.builder as builder_mod
from repro.phy.medium import WirelessMedium
from repro.phy.neighbor_index import CandidateBlock, _build_block


class NaiveScanIndex:
    """Full-scan neighbor index with the grid's interface and contract.

    Its candidate "block" is the whole network, cached as one
    :class:`CandidateBlock` and rebuilt after any mutation.  Link ids
    are monotonic and the dict is insertion-ordered, so candidates come
    out in ascending id order, as the contract requires.
    """

    def __init__(self, cell_size: float | None = None):
        # link_id -> (position, enabled)
        self._links: dict[int, tuple[tuple[float, float], bool]] = {}
        self._block: CandidateBlock | None = None

    def insert(self, link_id: int, position: tuple[float, float]) -> None:
        self._links[link_id] = ((float(position[0]), float(position[1])), True)
        self._block = None

    def remove(self, link_id: int) -> None:
        if self._links.pop(link_id, None) is not None:
            self._block = None

    def move(self, link_id: int, position: tuple[float, float]) -> None:
        entry = self._links.get(link_id)
        if entry is None:
            return
        self._links[link_id] = ((float(position[0]), float(position[1])), entry[1])
        self._block = None

    def set_enabled(self, link_id: int, enabled: bool) -> None:
        entry = self._links.get(link_id)
        if entry is not None and entry[1] != enabled:
            self._links[link_id] = (entry[0], enabled)
            self._block = None

    def candidates_with_positions(
        self, position: tuple[float, float]
    ) -> CandidateBlock:
        """Every *enabled* radio with its position, ascending id."""
        if self._block is None:
            ids = [lid for lid, (_, enabled) in self._links.items() if enabled]
            self._block = _build_block(ids, [self._links[lid][0] for lid in ids])
        return self._block


class ScalarBroadcastMedium(WirelessMedium):
    """:class:`WirelessMedium` with the per-receiver broadcast loop."""

    def in_range_pairs(self, link_id: int) -> list[tuple[int, float]]:
        """``(other_id, distance)`` for enabled radios in range, ascending."""
        radio = self._radios[link_id]
        px, py = radio.position
        block = self._index.candidates_with_positions(radio.position)
        out = []
        for other, (ox, oy) in zip(block.ids, block.pos_arr.tolist()):
            if other == link_id:
                continue
            dx, dy = px - ox, py - oy
            d = math.sqrt(dx * dx + dy * dy)
            if d <= self.radio_range:
                out.append((other, d))
        return out

    def broadcast(self, frame):
        sender = self._radios.get(frame.src_link)
        if sender is None or not sender.enabled:
            return 0
        self.total_frames += 1
        self.total_bytes += frame.size
        sender.frames_sent += 1
        sender.bytes_sent += frame.size
        hook = self.fault_hook
        count = 0
        for other_id, dist in self.in_range_pairs(frame.src_link):
            count += 1
            fx = frame
            if hook is not None:
                fx = hook(frame.src_link, other_id, frame)
                if fx is None:
                    self.suppressed_frames += 1
                    continue  # no loss draw: see the fault_hook contract
            if self._rng.random() < self.loss_rate:
                self.dropped_frames += 1
                continue
            delay = self._delivery_delay(frame.size, dist)
            self.sim.schedule(delay, self._deliver, other_id, fx)
        return count


@contextlib.contextmanager
def installed(naive_index: bool = False, scalar_broadcast: bool = False):
    """Media built inside this block use the chosen oracles.

    ``naive_index`` swaps the index class every :class:`WirelessMedium`
    constructs; ``scalar_broadcast`` swaps the medium class that
    :class:`~repro.scenarios.builder.ScenarioBuilder` (and so every
    in-process campaign run) builds.
    """
    with contextlib.ExitStack() as stack:
        if naive_index:
            stack.enter_context(
                mock.patch.object(medium_mod, "SpatialHashGrid", NaiveScanIndex)
            )
        if scalar_broadcast:
            stack.enter_context(
                mock.patch.object(builder_mod, "WirelessMedium", ScalarBroadcastMedium)
            )
        yield


def make_medium(
    sim, naive_index: bool = False, scalar_broadcast: bool = False, **kw
) -> WirelessMedium:
    """A bare medium on ``sim``, production or with the chosen oracles."""
    cls = ScalarBroadcastMedium if scalar_broadcast else WirelessMedium
    with installed(naive_index=naive_index):
        return cls(sim, **kw)


def fingerprint(scenario) -> dict:
    """Everything observable about a finished scenario run."""
    medium = scenario.medium
    return {
        "summary": scenario.metrics.summary(),
        "trace": [
            (e.time, e.node, e.kind, e.msg_type, e.detail)
            for e in scenario.trace.events
        ],
        "medium": (
            medium.total_frames,
            medium.total_bytes,
            medium.dropped_frames,
            medium.suppressed_frames,
        ),
        "events": scenario.sim.events_executed,
    }
