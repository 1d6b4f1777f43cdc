"""Traffic workloads.

Three generators cover the experiments' needs:

* :class:`CBRTraffic` -- constant-bit-rate flow (the MANET evaluation
  staple), fixed interval and packet count;
* :class:`PoissonTraffic` -- exponential inter-arrivals, for randomised
  load;
* :class:`RequestResponse` -- request/ACK-style application exchange
  used by the DNS-heavy scenarios.

All report through the scenario's MetricsCollector automatically
(delivery accounting lives in the routing layer).  A packet due while
its source is down (crashed, not yet re-bootstrapped) is not sent: it
counts as failed and the generator keeps its schedule.
"""

from __future__ import annotations

from repro.core.node import Node
from repro.ipv6.address import IPv6Address


def _send(src: Node, dst: IPv6Address, payload: bytes, on_delivered, on_failed) -> None:
    """``send_data`` from ``src``, or an immediate failure while it is down."""
    if src.configured:
        src.router.send_data(
            dst, payload, on_delivered=on_delivered, on_failed=on_failed
        )
    else:
        on_failed()


class CBRTraffic:
    """Constant-rate flow of ``count`` packets every ``interval`` seconds."""

    def __init__(
        self,
        src: Node,
        dst: IPv6Address,
        interval: float = 1.0,
        count: int = 10,
        payload_size: int = 64,
        start_at: float = 0.0,
    ):
        if interval <= 0 or count <= 0 or payload_size <= 0:
            raise ValueError("interval/count/payload_size must be positive")
        self.src = src
        self.dst = dst
        self.interval = interval
        self.count = count
        self.payload = bytes(payload_size)
        self.sent = 0
        self.delivered = 0
        self.failed = 0
        src.sim.schedule(start_at, self._tick)

    def _tick(self) -> None:
        if self.sent >= self.count:
            return
        self.sent += 1
        _send(self.src, self.dst, self.payload,
              self._on_delivered, self._on_failed)
        if self.sent < self.count:
            self.src.sim.schedule(self.interval, self._tick)

    def _on_delivered(self) -> None:
        self.delivered += 1

    def _on_failed(self) -> None:
        self.failed += 1

    @property
    def done(self) -> bool:
        return self.delivered + self.failed == self.count


class PoissonTraffic:
    """Poisson flow: exponential inter-arrivals at the given rate (pkt/s)."""

    def __init__(
        self,
        src: Node,
        dst: IPv6Address,
        rate: float = 1.0,
        count: int = 10,
        payload_size: int = 64,
        start_at: float = 0.0,
    ):
        if rate <= 0 or count <= 0 or payload_size <= 0:
            raise ValueError("rate/count/payload_size must be positive")
        self.src = src
        self.dst = dst
        self.rate = rate
        self.count = count
        self.payload = bytes(payload_size)
        self.sent = 0
        self.delivered = 0
        self.failed = 0
        self._rng = src.rng("poisson-traffic")
        src.sim.schedule(start_at + self._rng.expovariate(rate), self._tick)

    def _tick(self) -> None:
        if self.sent >= self.count:
            return
        self.sent += 1
        _send(
            self.src, self.dst, self.payload,
            lambda: setattr(self, "delivered", self.delivered + 1),
            lambda: setattr(self, "failed", self.failed + 1),
        )
        if self.sent < self.count:
            self.src.sim.schedule(self._rng.expovariate(self.rate), self._tick)


class RequestResponse:
    """Application-level request/response pairs over the data plane.

    The responder side is handled by the destination's router ACK; this
    class measures round-trip completion of each request at the source.
    """

    def __init__(
        self,
        src: Node,
        dst: IPv6Address,
        count: int = 5,
        interval: float = 2.0,
        payload_size: int = 128,
    ):
        self.src = src
        self.dst = dst
        self.count = count
        self.interval = interval
        self.payload = bytes(payload_size)
        self.completed = 0
        self.failed = 0
        self.rtts: list[float] = []
        self._next(0)

    def _next(self, i: int) -> None:
        if i >= self.count:
            return
        started = self.src.sim.now
        _send(self.src, self.dst, self.payload,
              lambda: self._on_done(started), self._on_fail)
        self.src.sim.schedule(self.interval, self._next, i + 1)

    def _on_done(self, started: float) -> None:
        self.completed += 1
        self.rtts.append(self.src.sim.now - started)

    def _on_fail(self) -> None:
        self.failed += 1

    @property
    def mean_rtt(self) -> float:
        return sum(self.rtts) / len(self.rtts) if self.rtts else 0.0
