"""Campaign runs record no trace, and the trace never changes a record.

``execute_run`` switches the recorder off right after building the
scenario: no record reads the trace, and formatting it used to dominate
flood runs.  These tests pin that (a) a campaign run leaves the trace
empty, (b) forcing the trace on yields a byte-identical record, and (c)
a trace-off run formats no message summary and no address on the node
send/receive path.
"""

from __future__ import annotations

import json
import sys

import pytest

import repro.ipv6.address as address_mod
from repro.campaign.runner import execute_run
from repro.campaign.spec import CampaignSpec
from repro.messages.base import Message
from repro.scenarios.builder import ScenarioBuilder
from repro.trace.recorder import TraceRecorder


def _run(**base_extra) -> dict:
    """One run of a 20-host sweep with a blackhole and a crash fault."""
    spec = CampaignSpec.from_dict({
        "name": "trace",
        "seed": 3,
        "base": {
            "topology": {"kind": "uniform_density", "n": 20, "density": 10.0},
            "radio": {"range": 250.0, "loss_rate": 0.02},
            "dns": {},
            "faults": {"events": [
                {"kind": "crash", "at": 2.0, "node": 3, "recover_after": 3.0},
            ]},
            **base_extra,
        },
        "adversaries": [{"kind": "blackhole", "position": [313.0, 313.0],
                         "forge_rreps": True}],
        "workload": {"kind": "cbr", "flows": 4, "count": 10, "interval": 0.5},
        "duration": 15.0,
        "timeout": 120.0,
    })
    return spec.expand()[0].to_dict()


@pytest.fixture
def built(monkeypatch):
    """Scenarios built during the test, captured from ``build()``."""
    scenarios = []
    real_build = ScenarioBuilder.build

    def build(builder):
        scenarios.append(real_build(builder))
        return scenarios[-1]

    monkeypatch.setattr(ScenarioBuilder, "build", build)
    return scenarios


def test_campaign_run_records_no_trace(built):
    record = execute_run(_run())
    assert record["status"] == "ok", record
    (scenario,) = built
    assert scenario.trace.events == []
    assert not scenario.trace.enabled


def test_trace_on_gives_byte_identical_record(built, monkeypatch):
    run = _run()
    off = execute_run(run)
    # ``enabled`` becomes a class property pinned True: the runner's
    # switch-off is ignored and this run records the full trace.
    monkeypatch.setattr(TraceRecorder, "enabled",
                        property(lambda self: True, lambda self, value: None),
                        raising=False)
    on = execute_run(run)
    assert off["status"] == on["status"] == "ok"
    assert built[0].trace.events == []
    kinds = {e.kind for e in built[1].trace.events}
    assert {"send", "recv", "verdict", "note"} <= kinds
    assert any(e.msg_type == "FAULT" for e in built[1].trace.events)
    assert (json.dumps(on, sort_keys=True).encode()
            == json.dumps(off, sort_keys=True).encode())


def test_trace_off_run_formats_nothing_on_the_node_path(monkeypatch):
    summaries = [0]
    node_formats = [0]
    real_summary = Message.summary
    real_format = address_mod._format

    def summary(self):
        summaries[0] += 1
        return real_summary(self)

    def _format(groups):
        # frame 1 is IPv6Address.__str__; frame 2 is whoever formatted it
        if sys._getframe(2).f_code.co_filename.endswith("core/node.py"):
            node_formats[0] += 1
        return real_format(groups)

    monkeypatch.setattr(Message, "summary", summary)
    monkeypatch.setattr(address_mod, "_format", _format)
    record = execute_run(_run(
        config={"verify_at_intermediate": True},
        mobility={"kind": "rwp", "speed": [1.0, 5.0], "pause": 2.0},
    ))
    assert record["status"] == "ok", record
    assert record["summary"]["data_delivered"] > 0
    assert summaries[0] == 0
    assert node_formats[0] == 0
