"""In-memory span tracer that attributes wall time to ``repro`` layers.

The tracer never edits the program: :func:`install` replaces layer entry
points *at class level* (and module functions in every ``repro`` module
that imported them) with thin wrappers that record a span around each
call.  It must run before ``ScenarioBuilder.build()``, because nodes
register bound handler methods when they are constructed.

Every callback handed to the simulator's ``schedule*`` methods is
wrapped as well, so each executed event opens one root span, numbered
by execution order (the event id).  A span is ``(name, start, end,
parent, event)``; spans live in flat arrays until :meth:`SpanTracer.dump`
writes them out at the end of a run.  A span's self time is its
duration minus the durations of its direct children; a layer's self
time is the sum over the spans it owns.

``Message.summary`` runs only to feed the trace, so it and everything
under it (IPv6 formatting) is booked to ``trace``: nested wrappers are
muted while it runs.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

#: Every plain method defined on the class (no dunders).
ALL = "*"

#: (module, class, layer, methods) -- class-level entry points.
CLASS_POINTS = [
    ("repro.sim.kernel", "Simulator", "sim",
     ["run", "schedule", "schedule_batch", "drain_cancelled"]),
    ("repro.phy.medium", "WirelessMedium", "phy",
     ["broadcast", "unicast", "_attempt_unicast", "_deliver",
      "set_position", "set_enabled"]),
    ("repro.phy.mobility", "RandomWaypoint", "phy", ALL),
    ("repro.core.node", "Node", "core",
     ["_on_frame", "broadcast", "unicast_link", "unicast_ip", "deliver_app",
      "_trace_send", "reset_soft_state"]),
    ("repro.core.node", "Node", "crypto",
     ["sign", "verify", "verify_batch", "_compute_verify", "_derive_keypair"]),
    ("repro.messages.base", "Message", "messages", ["replace"]),
    ("repro.messages.base", "Message", "trace", ["summary"]),
    ("repro.trace.recorder", "TraceRecorder", "trace", ["record"]),
    ("repro.ipv6.address", "IPv6Address", "ipv6",
     ["__init__", "__str__", "__repr__", "groups", "high_bits"]),
    ("repro.crypto.simsig", "SimSigBackend", "crypto",
     ["generate_keypair", "sign", "verify", "verify_batch"]),
    ("repro.crypto.rsa", "RSABackend", "crypto",
     ["generate_keypair", "sign", "verify"]),
    ("repro.crypto.keys", "KeypairPool", "crypto", ["get"]),
    ("repro.crypto.verify_cache", "SharedVerifyCache", "crypto", ALL),
    ("repro.bootstrap.autoconf", "BootstrapManager", "bootstrap", ALL),
    ("repro.dns.server", "DNSServer", "dns", ALL),
    ("repro.dns.client", "DNSClient", "dns", ALL),
    ("repro.routing.secure_dsr", "SecureDSRRouter", "routing", ALL),
    ("repro.routing.route_cache", "RouteCache", "routing", ALL),
    ("repro.credit.manager", "CreditManager", "routing", ALL),
    ("repro.metrics.collector", "MetricsCollector", "metrics", ALL),
    ("repro.faults.injector", "FaultInjector", "faults", ALL),
    ("repro.adversary.blackhole", "BlackholeRouter", "adversary", ALL),
    ("repro.adversary.forger", "ForgingRouter", "adversary", ALL),
    ("repro.adversary.replayer", "ReplayAgent", "adversary", ALL),
    ("repro.adversary.rerr_spammer", "RERRSpamRouter", "adversary", ALL),
    ("repro.scenarios.builder", "ScenarioBuilder", "scenarios", ["build"]),
    ("repro.scenarios.builder", "Scenario", "scenarios", ["bootstrap_all"]),
    ("repro.campaign.runner", "CampaignRunner", "campaign",
     ["_ingest", "_finalize", "_open_stream", "_batch_telemetry"]),
]

#: (module, layer, functions) -- module-level entry points.
FUNCTION_POINTS = [
    ("repro.messages.codec", "messages", ["encode_message", "decode_message"]),
    ("repro.messages.signing", "messages", ALL),
    ("repro.ipv6.cga", "ipv6", ["cga_address", "generate_cga", "verify_cga"]),
    ("repro.bootstrap.verifier", "bootstrap",
     ["verify_identity", "verify_identity_batch"]),
    ("repro.campaign.runner", "campaign", ["execute_run"]),
]

#: Spans whose callees are booked to the span's own layer.
MUTING = {"Message.summary"}

#: Layers named after ``repro`` packages; anything else is ``other``.
LAYERS = ("sim", "phy", "core", "messages", "ipv6", "trace", "crypto",
          "bootstrap", "dns", "routing", "metrics", "faults", "adversary",
          "campaign", "scenarios")


def _layer_of_module(module: str | None) -> str:
    parts = (module or "").split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    pkg = "routing" if parts[1] == "credit" else parts[1]
    return pkg if pkg in LAYERS else "other"


class SpanTracer:
    """Flat-array span store plus the wrappers that feed it."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.event = array("i")
        self.stack = [-1]
        self.cell = [0, -1]  # [mute depth, current event id]
        self.hash_calls = [0]
        self.pid = os.getpid()
        self._root_ids: dict = {}

    # -- bookkeeping ------------------------------------------------------
    def _name(self, name: str, layer: str) -> int:
        key = (name, layer)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def reset(self) -> None:
        """Forget recorded spans (kept: the name table and the wrappers)."""
        for arr in (self.name_id, self.start, self.end, self.parent, self.event):
            del arr[:]
        del self.stack[1:]
        self.cell[0] = 0
        self.cell[1] = -1
        self.hash_calls[0] = 0
        self.pid = os.getpid()

    # -- wrappers ---------------------------------------------------------
    def span(self, fn, name: str, layer: str):
        nid = self._name(name, layer)
        name_id, start, end = self.name_id, self.start, self.end
        parent, event, stack, cell = self.parent, self.event, self.stack, self.cell
        clock = time.perf_counter
        mutes = name in MUTING

        def wrapper(*args, **kwargs):
            if cell[0]:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            event.append(cell[1])
            end.append(0.0)
            stack.append(idx)
            if mutes:
                cell[0] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                if mutes:
                    cell[0] -= 1
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, callback):
        """Wrap a scheduled callback so its execution is one root span."""
        func = getattr(callback, "__func__", callback)
        while hasattr(func, "__wrapped__"):
            func = func.__wrapped__
        key = getattr(func, "__code__", func)  # closures share their code
        nid = self._root_ids.get(key)
        if nid is None:
            qual = getattr(func, "__qualname__", type(func).__name__)
            layer = _layer_of_module(getattr(func, "__module__", None))
            nid = self._root_ids[key] = self._name(f"event:{qual}", layer)
        name_id, start, end = self.name_id, self.start, self.end
        parent, event, stack, cell = self.parent, self.event, self.stack, self.cell
        clock = time.perf_counter

        def fire(*args):
            cell[1] += 1
            if cell[0]:
                return callback(*args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            event.append(cell[1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return callback(*args)
            finally:
                end[idx] = clock()
                stack.pop()

        return fire

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        from repro.sim.kernel import Simulator

        orig_at = Simulator.schedule_at
        root = self.root

        def schedule_at(sim, time, callback, *args, priority=0):
            return orig_at(sim, time, root(callback), *args, priority=priority)

        Simulator.schedule_at = self.span(
            schedule_at, "Simulator.schedule_at", "sim")
        orig_batch = Simulator.schedule_batch

        def schedule_batch(sim, delays, callback, args_seq, priority=0):
            return orig_batch(sim, delays, root(callback), args_seq,
                              priority=priority)

        Simulator.schedule_batch = schedule_batch

        for module, cls_name, layer, methods in CLASS_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            if methods == ALL:
                methods = [k for k, v in vars(cls).items()
                           if inspect.isfunction(v) and not k.startswith("__")]
            for meth in methods:
                attr = vars(cls)[meth]
                if isinstance(attr, property):
                    attr = property(self.span(
                        attr.fget, f"{cls_name}.{meth}", layer))
                else:
                    attr = self.span(attr, f"{cls_name}.{meth}", layer)
                setattr(cls, meth, attr)

        address = importlib.import_module("repro.ipv6.address").IPv6Address
        orig_hash = address.__hash__
        hash_calls = self.hash_calls

        def counted_hash(addr):
            hash_calls[0] += 1
            return orig_hash(addr)

        address.__hash__ = counted_hash

        for module, layer, funcs in FUNCTION_POINTS:
            mod = importlib.import_module(module)
            if funcs == ALL:
                funcs = [k for k, v in vars(mod).items()
                         if inspect.isfunction(v) and v.__module__ == module
                         and not k.startswith("_")]
            for func in funcs:
                orig = getattr(mod, func)
                wrapped = self.span(orig, func, layer)
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "") or ""
                    if name.startswith("repro") and getattr(other, func, None) is orig:
                        setattr(other, func, wrapped)

    # -- output -----------------------------------------------------------
    def arrays(self) -> dict:
        # A run-timeout signal can land between a wrapper's appends; only
        # the span being opened at that moment is incomplete, so cut the
        # columns to their common length.
        n = min(map(len, (self.name_id, self.start, self.end, self.parent,
                          self.event)))
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16)[:n].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[:n].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[:n].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[:n].copy(),
            "event": np.frombuffer(self.event, dtype=np.int32)[:n].copy(),
        }

    def aggregate(self) -> dict:
        """Per span name: ``[layer, calls, self_s, inclusive_s]``."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        closed = a["end"] > 0.0
        dur[~closed] = 0.0
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        calls = np.bincount(a["name_id"], minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        incl_s = np.bincount(a["name_id"], weights=dur, minlength=k)
        return {
            self.names[i]: [self.layers[i], int(calls[i]), float(self_s[i]),
                            float(incl_s[i])]
            for i in range(k) if calls[i]
        }

    def dump(self, tag: str) -> tuple[dict, str]:
        """Write the spans of the run just finished; return its aggregate."""
        path = os.path.join(self.out_dir, f"spans-{tag}.npz")
        np.savez(path, names=np.array(self.names), layers=np.array(self.layers),
                 **self.arrays())
        agg = self.aggregate()
        return agg, path
