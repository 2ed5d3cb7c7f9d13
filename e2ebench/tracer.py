"""Outside-in span tracer for one simulation run.

The tracer patches the simulator from the outside: it changes no file of
the package.  ``Engine.schedule`` is wrapped so that every dispatched
callback becomes a root span named after the module that owns it, and
the public entry points of each layer (ENTRY_POINTS) get child spans.
Every span records its name, start, end, parent and the ordinal of the
engine event it belongs to.  Spans are kept in memory as typed columns
and written out once, when the run ends.

A span name is ``<layer>.<what>``; a layer's self time is the duration
of its spans minus the time of their direct children.  Span time spent
inside the tracer itself lands in the caller's self time, which is part
of what ``trace.overhead_s`` reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (layer, attribute path) of every public entry point that gets a child span.
ENTRY_POINTS = [
    ("telemetry", "EventLog.append"), ("telemetry", "EventLog.hash"),
    ("telemetry", "Telemetry.hash"), ("telemetry", "summarize"),
    ("telemetry", "render_summary"), ("telemetry", "export"),
    ("telemetry", "import_artifacts"),
    ("harness", "validate_config"), ("harness", "build_world"),
    ("harness", "config_hash"), ("harness", "compare_artifacts"),
    ("harness", "render_comparison"),
    ("fabric", "Fabric.inject"), ("fabric", "Fabric.set_link_state"),
    ("fabric", "Fabric.flush_counters"), ("fabric", "FidNode.process"),
    ("_bitops", "select_covered"), ("_bitops", "or_many"),
    ("_bitops", "is_subset"), ("_bitops", "popcount"),
    ("fid", "encode_path"), ("fid", "combine_trees"),
    ("fid", "should_forward"), ("fid", "assign_link_ids"),
    ("pce", "Pce.compute_path"), ("pce", "Pce.cached_path"),
    ("pce", "Pce.build_multicast_fid"), ("pce", "Pce.select_publisher"),
    ("pce", "Pce.register_publisher"), ("pce", "Pce.unregister_publisher"),
    ("pce", "Pce.subscribe"), ("pce", "Pce.unsubscribe"),
    ("pce", "Pce.request_tree"), ("pce", "Pce.on_topology_event"),
    ("pce", "Pce.routing_digest"),
    ("nap", "Nap.demux"), ("nap", "Nap.inject_stream"),
    ("nap", "Nap.handle_http"), ("nap", "Nap.handle_igmp"),
    ("nap", "Nap.cancel_fetch"), ("nap", "Nap.on_match"),
    ("nap", "Nap.on_server_response"), ("nap", "Nap.update_fid"),
    ("nap", "Nap.routing_digest"), ("nap", "IcnHttpTransport.fetch"),
    ("nap", "IcnHttpTransport.cancel"), ("nap", "IcnIgmpAdapter.act"),
    ("nap", "IcnStreamSender.send_stream"),
    ("apps", "HlsServer.handle_request"), ("apps", "HlsServer.set_up"),
    ("apps", "HlsClient.on_response"), ("apps", "Stb.on_stream_packet"),
    ("apps", "Stb.zap"), ("apps", "SurrogateAgent.toggle"),
    ("ip_baseline", "IpSwitch.process"), ("ip_baseline", "IpSwitch.flush"),
    ("ip_baseline", "StpController.on_topology_event"),
    ("ip_baseline", "IpHttpTransport.fetch"),
    ("ip_baseline", "IpHttpTransport.cancel"),
    ("ip_baseline", "IpHttpTransport.on_packet"),
    ("ip_baseline", "IpServerEndpoint.on_packet"),
    ("ip_baseline", "IpIgmpAdapter.act"),
    ("ip_baseline", "IpStreamSender.send_stream"),
    ("ip_baseline", "DnsDirectory.lookup"),
    ("topology", "TopologyGraph.egress"),
    ("topology", "TopologyGraph.set_link_state"),
]

# The post-run checks of harness; wrapped only in the harness namespace,
# because summarize calls the same conservation reducer for its report.
HARNESS_CHECKS = ("conservation_from_events", "trace_delivery")

LAYERS = ("simkernel", "topology", "fabric", "_bitops", "fid", "pce", "nap",
          "apps", "ip_baseline", "telemetry", "harness")


class Tracer:
    """Span recorder plus the counters that need call arguments."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.event = array("i")
        self._stack: list[int] = []
        # [current event ordinal (-1 outside events), events dispatched]
        self._event_no = [-1, 0]
        self._undo: list = []
        self.scheduled = 0
        self.cancelled = 0
        self.peak_pending = 0
        self.links_tested = 0
        self.links_chosen = 0
        self.bytes_scanned = 0
        self.tree_receivers = 0
        self.floods = 0

    # -- recording ---------------------------------------------------------

    def span_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, after=None):
        """fn with a span around every call; after(args, result) runs
        once the span is closed."""
        nid = self.span_id(name)
        stack, event_no = self._stack, self._event_no
        names, parents, events = self.name_col, self.parent, self.event
        starts, ends = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kw):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            events.append(event_no[0])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kw)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _dispatch_wrapper(self):
        """Engine callback shim: each dispatched event is a root span."""
        stack, event_no = self._stack, self._event_no
        names, parents, events = self.name_col, self.parent, self.event
        starts, ends = self.start, self.end
        clock = time.perf_counter

        def dispatch(nid, action, args):
            event_no[0] = event_no[1]
            event_no[1] += 1
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            events.append(event_no[0])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                action(*args)
            finally:
                ends[i] = clock()
                stack.pop()
                event_no[0] = -1
        return dispatch

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch the loaded icnsim package; uninstall() reverts it."""
        mods = {name: importlib.import_module(f"icnsim.{name}") for name in LAYERS}
        package = [m for n, m in sys.modules.items()
                   if n == "icnsim" or n.startswith("icnsim.")]
        after = {
            "FidNode.process": self._after_process,
            "select_covered": self._after_select,
            "Pce.build_multicast_fid": self._after_tree,
        }
        for layer, path in ENTRY_POINTS:
            owner = mods[layer]
            parts = path.split(".")
            if len(parts) == 2:
                owner = getattr(owner, parts[0])
            attr = parts[-1]
            orig = owner.__dict__[attr]
            wrapped = self.wrap(orig, f"{layer}.{path}", after.get(path))
            self._set(owner, attr, wrapped)
            if len(parts) == 1:
                # module functions imported by name elsewhere in the package
                for mod in package:
                    if mod is not owner and mod.__dict__.get(attr) is orig:
                        self._set(mod, attr, wrapped)
        harness = mods["harness"]
        for attr in HARNESS_CHECKS:
            self._set(harness, attr,
                      self.wrap(harness.__dict__[attr], f"harness.check.{attr}"))
        flood = mods["ip_baseline"].IpSwitch.__dict__["_tree_flood"]

        @functools.wraps(flood)
        def counted_flood(*args, **kw):
            self.floods += 1
            return flood(*args, **kw)
        self._set(mods["ip_baseline"].IpSwitch, "_tree_flood", counted_flood)
        self._install_engine(mods["simkernel"].Engine)

    def _install_engine(self, engine_cls) -> None:
        orig_schedule = engine_cls.__dict__["schedule"]
        orig_cancel = engine_cls.__dict__["cancel"]
        dispatch = self._dispatch_wrapper()
        roots: dict = {}
        tracer = self

        def schedule(engine, delay_us, action, *args):
            fn = getattr(action, "__func__", action)
            key = (fn.__module__, fn.__qualname__)
            nid = roots.get(key)
            if nid is None:
                layer = key[0].rsplit(".", 1)[-1]
                nid = roots[key] = tracer.span_id(f"{layer}.event.{key[1]}")
            seq = orig_schedule(engine, delay_us, dispatch, nid, action, args)
            tracer.scheduled += 1
            pending = engine.pending()
            if pending > tracer.peak_pending:
                tracer.peak_pending = pending
            return seq

        def cancel(engine, event_id):
            tracer.cancelled += 1
            return orig_cancel(engine, event_id)

        self._set(engine_cls, "schedule", functools.wraps(orig_schedule)(schedule))
        self._set(engine_cls, "cancel", functools.wraps(orig_cancel)(cancel))
        self._set(engine_cls, "run_until", self.wrap(
            engine_cls.__dict__["run_until"], "simkernel.Engine.run_until"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _after_process(self, args, result) -> None:
        node, packet = args[0], args[1]
        if node.egress_links and packet.fid is not None:
            self.links_tested += len(node.egress_links)
            self.links_chosen += len(result[0])

    def _after_select(self, args, result) -> None:
        self.bytes_scanned += args[2] * args[3]

    def _after_tree(self, args, result) -> None:
        self.tree_receivers += len(args[2])

    # -- reduction -------------------------------------------------------------

    def split(self) -> dict:
        """Per-span-name call count, total and self time, plus the
        per-layer self time and the time covered by top-level spans."""
        n = len(self.start)
        durs = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parents = self.parent
        top = 0.0
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += durs[i]
            else:
                top += durs[i]
        by_name = {name: [0, 0.0, 0.0] for name in self.names}
        layers = {layer: 0.0 for layer in LAYERS}
        for i in range(n):
            name = self.names[self.name_col[i]]
            row = by_name[name]
            own = durs[i] - child[i]
            row[0] += 1
            row[1] += durs[i]
            row[2] += own
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
        return {"spans": n, "top_level_s": top, "layer_self_s": layers,
                "by_name": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                            for k, v in by_name.items()}}

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw columns."""
        header = {"names": self.names, "count": len(self.start),
                  "columns": [["name", "H"], ["start", "d"], ["end", "d"],
                              ["parent", "i"], ["event", "i"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_col, self.start, self.end, self.parent,
                        self.event):
                col.tofile(fh)


def read_spans(path: str) -> dict:
    """Load a file written by Tracer.dump into a dict of columns."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"names": header["names"]}
        for name, code in header["columns"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            out[name] = col
    return out
