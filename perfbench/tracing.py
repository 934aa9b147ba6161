"""Span tracing for the fleet-service benchmark, installed from outside.

:func:`install` wraps the public calls of every layer of the service
(one wrapper per name, patched where the caller looks the name up) so
that each call records a span ``(name, start, end, parent)`` in memory.
Nothing in ``src/`` knows about it.  :meth:`Tracer.dump` writes the spans
and counters out when the process ends; :func:`summarize` turns them
into the per-layer metrics.

A layer's *self time* is the summed duration of its spans minus the part
covered by their child spans.  Spans nest by call stack, which is exact
here: every wrapped call is synchronous and the server runs them on one
thread (the asyncio loop).
"""

from __future__ import annotations

import functools
import json
import os
import selectors
import statistics
import time
from collections import defaultdict

perf_counter = time.perf_counter

SETUP_PREFIX = "setup."
#: The event loop blocked in ``select`` waiting for sockets.
IDLE = "idle"
#: One event-loop callback: routing, the tick barrier, acks and
#: everything the layers below do inside it.
LOOP = "net.loop"


class Tracer:
    """In-memory span recorder plus the per-layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: ``[name_id, start, end, parent_index]`` per span; parent -1
        #: for top-level spans.
        self.spans: list = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: tick -> end of the decode call that first delivered a frame
        #: of that tick (barrier wait starts there).
        self.first_seen: dict[int, float] = {}
        self.barrier_waits: list[float] = []
        self.wal_writer = None

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured by the caller (top level)."""
        self.spans.append([self._nid(name), start, end, -1])

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span around every call.

        ``after(args, kwargs, result, start, end)`` runs once the span
        is closed, to update counters.
        """
        nid = self._nid(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = [nid, start, end, stack[-1] if stack else -1]
            if after is not None:
                after(args, kwargs, result, start, end)
            return result

        return wrapped

    def wrap_generator(self, name: str, fn, after_item=None):
        """A generator function whose every ``next`` is one span."""
        nid = self._nid(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[idx] = [nid, start, end, stack[-1] if stack else -1]
                if after_item is not None:
                    after_item(item)
                yield item

        return wrapped

    def dump(self, path: str) -> None:
        """Write spans and counters as one JSON document."""
        counters = dict(self.counters)
        writer = self.wal_writer
        if writer is not None:
            counters["wal.bytes"] = writer.bytes_written
            counters["wal.fsyncs"] = writer.fsyncs
        doc = {
            "names": self.names,
            "spans": [s for s in self.spans if s is not None],
            "counters": counters,
            "barrier_waits": self.barrier_waits,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls (imports the service modules)."""
    import asyncio.events

    import repro.analysis.rootcause as rootcause
    import repro.monitoring.telestore as telestore
    import repro.service.api as api
    import repro.service.checkpoint as checkpoint
    import repro.service.detector as detector
    import repro.service.fastreplay as fastreplay
    import repro.service.guard as guard
    import repro.service.ops as ops
    import repro.service.protocol as protocol
    import repro.service.wal as wal
    from repro.engine.hotpath import TickArena
    from repro.service.alerts import JSONLAlertSink

    c = tracer.counters

    # setup: the CLI imports these from repro.service.api at call time.
    api.build_setup = tracer.wrap("setup.build", api.build_setup)
    api.build_detector = tracer.wrap("setup.detector", api.build_detector)

    # protocol: the server's decoder, per received chunk.
    first_seen = tracer.first_seen

    def after_feed(args, kwargs, result, start, end):
        frames, errors = result
        c["protocol.bytes"] += len(args[1])
        c["protocol.frames"] += len(frames)
        c["protocol.errors"] += len(errors)
        for frame in frames:
            if frame.control is None and frame.tick not in first_seen:
                first_seen[frame.tick] = end

    protocol.FrameDecoder.feed = tracer.wrap(
        "protocol.decode", protocol.FrameDecoder.feed, after_feed
    )

    # wal: methods on the writer class; append_watermark calls sync, so
    # sync spans nest under it.
    def after_append(args, kwargs, result, start, end):
        tracer.wal_writer = args[0]
        c["wal.records"] += 1

    for method in ("append_frame", "append_error", "append_watermark"):
        setattr(
            wal.WalWriter,
            method,
            tracer.wrap("wal.append", getattr(wal.WalWriter, method), after_append),
        )
    wal.WalWriter.sync = tracer.wrap("wal.sync", wal.WalWriter.sync)

    # checkpoint: net.py imports save_checkpoint at call time.
    def after_save(args, kwargs, result, start, end):
        c["checkpoint.count"] += 1
        try:
            c["checkpoint.bytes"] += os.path.getsize(args[0])
        except OSError:
            pass

    checkpoint.save_checkpoint = tracer.wrap(
        "checkpoint.save", checkpoint.save_checkpoint, after_save
    )

    # guard: the barrier wait of tick N ends when its process_block starts.
    def after_guard(args, kwargs, result, start, end):
        c["guard.calls"] += 1
        tick = kwargs.get("tick")
        seen = first_seen.pop(tick, None)
        if seen is not None:
            tracer.barrier_waits.append(start - seen)

    guard.GuardedDetector.process_block = tracer.wrap(
        "guard.process_block", guard.GuardedDetector.process_block, after_guard
    )

    # detector: process_blocks drives process_block once per block.
    def after_detect(args, kwargs, result, start, end):
        c["detector.events"] += len(result)

    FFD = detector.FleetFaultDetector
    FFD.process_block = tracer.wrap(
        "detector.process_block", FFD.process_block, after_detect
    )
    FFD.process_blocks = tracer.wrap("detector.process_blocks", FFD.process_blocks)

    # hotpath: the fused arena's per-tick (or per-partition) pass.
    def after_tick(args, kwargs, result, start, end):
        c["hotpath.samples"] += sum(
            int(getattr(v, "shape", (0, 0))[1]) for v in args[1].values()
        )
        c["hotpath.windows"] += sum(len(r[1]) for r in result)

    TickArena.tick = tracer.wrap("hotpath.tick", TickArena.tick, after_tick)

    # rootcause: detector.py binds explain_difference at import, so it
    # is patched there; explain_difference looks block_sensors up in
    # its own module.
    def count(key):
        def after(args, kwargs, result, start, end):
            c[key] += 1

        return after

    detector.explain_difference = tracer.wrap(
        "rootcause.explain",
        detector.explain_difference,
        count("rootcause.explain_calls"),
    )
    rootcause.block_sensors = tracer.wrap(
        "rootcause.block_sensors",
        rootcause.block_sensors,
        count("rootcause.block_sensors_calls"),
    )

    # alerts: the JSONL sink the benchmark reads, plus the ops alert log
    # every server keeps.
    JSONLAlertSink.emit = tracer.wrap(
        "alerts.sink", JSONLAlertSink.emit, count("alerts.events")
    )
    ops.AlertLog.emit = tracer.wrap("alerts.sink", ops.AlertLog.emit)

    # telestore: time spent inside each next() of the partition scan.
    def after_partition(item):
        c["telestore.partitions"] += 1
        c["telestore.bytes"] += sum(p.nbytes for p in item[1].values())

    telestore.TeleStore.scan = tracer.wrap_generator(
        "telestore.scan", telestore.TeleStore.scan, after_partition
    )

    # fastreplay: the CLI imports replay_from_store at call time.
    fastreplay.replay_from_store = tracer.wrap(
        "fastreplay.replay", fastreplay.replay_from_store
    )

    # net: the FleetServer pump, connection handlers and acks run as
    # event-loop callbacks; idle is the loop blocked waiting for sockets.
    asyncio.events.Handle._run = tracer.wrap(LOOP, asyncio.events.Handle._run)
    selectors.DefaultSelector.select = tracer.wrap(
        IDLE, selectors.DefaultSelector.select
    )


#: Per-layer self-time metrics: metric -> span names whose self time
#: it sums.
SELF_TIME = {
    "protocol.decode_s": ("protocol.decode",),
    "wal.append_s": ("wal.append",),
    "wal.sync_s": ("wal.sync",),
    "checkpoint.save_s": ("checkpoint.save",),
    "guard.self_s": ("guard.process_block",),
    "detector.self_s": ("detector.process_block", "detector.process_blocks"),
    "hotpath.tick_s": ("hotpath.tick",),
    "rootcause.explain_s": ("rootcause.explain", "rootcause.block_sensors"),
    "alerts.sink_s": ("alerts.sink",),
    "telestore.scan_s": ("telestore.scan",),
    "fastreplay.self_s": ("fastreplay.replay",),
}

def serving_window(names: list[str], spans: list) -> tuple[float, float] | None:
    """First decoded data to the end of the loop callback that
    processed the last tick (its sinks, journal watermark, ack and
    checkpoint included); ``None`` when nothing was served."""
    try:
        decode = names.index("protocol.decode")
        guard = names.index("guard.process_block")
    except ValueError:
        return None
    start = next((s[1] for s in spans if s[0] == decode), None)
    last = max((i for i, s in enumerate(spans) if s[0] == guard), default=None)
    if start is None or last is None:
        return None
    while spans[last][3] >= 0:
        last = spans[last][3]
    return start, spans[last][2]


def summarize(doc: dict) -> dict:
    """Per-layer metrics from a dumped trace.

    Self times of the set-up spans are taken whole.  For a network
    server every other span is clipped to the serving window (see
    :func:`serving_window`), which also gives ``net.wall_s``,
    ``net.idle_s`` (the loop blocked in ``select``), ``net.self_s``
    (loop callbacks minus every timed call below them) and
    ``trace.accounted_frac``: all layers' self times plus idle, over
    the window's wall time.  ``net.self_s`` is a residual: time of a
    layer whose patch never runs lands in it, so ``accounted_frac`` only
    bounds the loop's own bookkeeping between callbacks.  The counters
    are passed through as recorded.
    """
    names = doc["names"]
    spans = doc["spans"]
    window = serving_window(names, spans)
    lo, hi = window if window is not None else (float("-inf"), float("inf"))
    setup_ids = {i for i, n in enumerate(names) if n.startswith(SETUP_PREFIX)}

    def length(nid: int, start: float, end: float) -> float:
        if nid in setup_ids:
            return end - start
        return max(0.0, min(end, hi) - max(start, lo))

    child = [0.0] * len(spans)
    # A parent's index always precedes its children's (spans are
    # stored in start order), so one pass collects child time.
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += length(nid, start, end)
    self_by_name: dict[str, float] = defaultdict(float)
    setup_end = 0.0
    for i, (nid, start, end, _) in enumerate(spans):
        self_by_name[names[nid]] += length(nid, start, end) - child[i]
        if nid in setup_ids:
            setup_end = max(setup_end, end)
    out = {
        metric: sum(self_by_name.get(n, 0.0) for n in span_names)
        for metric, span_names in SELF_TIME.items()
    }
    out.update(doc["counters"])
    out["setup.import_s"] = self_by_name.get("setup.import", 0.0)
    out["setup.build_s"] = self_by_name.get("setup.build", 0.0)
    out["setup.detector_s"] = self_by_name.get("setup.detector", 0.0)
    out["setup_end"] = setup_end
    waits = doc["barrier_waits"]
    out["net.barrier_wait_p50_ms"] = (
        statistics.median(waits) * 1e3 if waits else 0.0
    )
    out["net.self_s"] = self_by_name.get(LOOP, 0.0)
    out["net.idle_s"] = out["net.wall_s"] = 0.0
    out["net.idle_frac"] = out["trace.accounted_frac"] = 0.0
    if window is not None and hi > lo:
        wall = hi - lo
        idle = self_by_name.get(IDLE, 0.0)
        out["net.wall_s"] = wall
        out["net.idle_s"] = idle
        out["net.idle_frac"] = idle / wall
        layers = sum(out[m] for m in SELF_TIME) + out["net.self_s"]
        out["trace.accounted_frac"] = (layers + idle) / wall
    return out
