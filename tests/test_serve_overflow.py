"""A full node queue must never give up the tick the barrier waits on.

A resuming client keeps a window of unacked ticks in flight and, after
a repeated ack, resends that window from the tick after it.  When the
window is longer than ``queue_max``, the overflow policy used to evict
the cursor tick itself (``drop-oldest`` pops the head; ``coalesce``
replaces the tail when that is the head).  The barrier deadline then
held the hole and re-acked, the client resent the same window, and the
cycle repeated forever: no tick was ever processed.

These drives run :class:`~repro.service.servecore.ServeCore` directly
over the smoke fleet: one ack-subscribed client feeds every node and
resends ``WINDOW`` ticks per round.  Every tick must be processed once,
in order, and the alert lines must equal in-process replay of the same
ticks byte for byte.
"""

import json
import math

import pytest

from repro.service import api
from repro.service.api import ServiceConfig, build_detector, build_setup
from repro.service.protocol import Frame
from repro.service.servecore import (
    BackpressureConfig,
    ListAlertSink,
    ServeCore,
)

CFG = ServiceConfig.smoke(chunk=20, replicate=6)
SUBSCRIBE = Frame("", 0, None, control="acks")
N_TICKS = 6
WINDOW = 4
MAX_ROUNDS = 4 * N_TICKS
TICK_TIMEOUT = 1.0


@pytest.fixture(scope="module")
def setup():
    return build_setup(CFG)


@pytest.fixture(scope="module")
def reference(setup):
    sink = ListAlertSink()
    api.replay(CFG, setup, sinks=(sink,), stop_after=N_TICKS)
    return sink.lines


class _Client:
    """An ack-subscribed connection; acks are cumulative."""

    def __init__(self):
        self.acked = -1

    def write(self, data: bytes) -> None:
        self.acked = max(self.acked, json.loads(data)["tick"])


@pytest.mark.parametrize(
    "policy,queue_max",
    [("drop-oldest", 2), ("drop-oldest", 1), ("coalesce", 1)],
)
def test_window_longer_than_queue_converges(setup, reference, policy, queue_max):
    sink = ListAlertSink()
    core = ServeCore(
        build_detector(CFG, setup),
        sinks=(sink,),
        backpressure=BackpressureConfig(queue_max=queue_max, policy=policy),
        tick_timeout=TICK_TIMEOUT,
    )
    processed = []
    real = core.guarded.process_block

    def process_block(burst, tick=None):
        processed.append(tick)
        return real(burst, tick=tick)

    core.guarded.process_block = process_block
    paths = sorted(setup.eval_data)
    client = _Client()
    core.connect(client)
    core.feed(SUBSCRIBE, client)
    now = 0.0
    for _ in range(MAX_ROUNDS):
        if client.acked == N_TICKS - 1:
            break
        first = client.acked + 1
        for tick in range(first, min(first + WINDOW, N_TICKS)):
            lo = tick * CFG.chunk
            for path in paths:
                values = setup.eval_data[path][:, lo : lo + CFG.chunk]
                core.feed(Frame(path, tick, values), client)
                assert len(core.queues[path]) <= queue_max
        # Fire every complete tick, then let a pending barrier deadline
        # pass: the core holds the hole and re-acks, the client resends.
        due = core.poll(now)
        while due == now:
            due = core.poll(now)
        if due < math.inf:
            now = due
            core.poll(now)
    core.close()
    assert client.acked == N_TICKS - 1, (
        f"stuck at cursor {core.cursor} after {MAX_ROUNDS} rounds"
    )
    assert processed == list(range(N_TICKS))
    overflow = core.stats_snapshot()["backpressure"]
    assert overflow["dropped"] + overflow["coalesced"] > 0  # the branch ran
    assert sink.lines == reference
