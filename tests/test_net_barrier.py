"""The tick barrier's incremental bookkeeping against its definition.

``ServeCore`` keeps the set of registered nodes whose queue head is not
the cursor tick, updated for the one node each routed frame or poison
push touches and rebuilt when the cursor moves.  The barrier is
complete when that set is empty.  These seeded random schedules check,
after every operation, that the set equals the full scan over all
queues it replaces, that a poll before any deadline fires a tick
exactly when the scan is empty, and that no queue head ever lies below
the cursor (stale heads are dropped only when the cursor moves).
"""

import random

import pytest

from repro.service.api import ServiceConfig, build_detector, build_setup
from repro.service.checkpoint import fleet_fingerprint
from repro.service.net import FleetServer
from repro.service.protocol import Frame, FrameError
from repro.service.servecore import ServeOptions, ServerCheckpoint

CFG = ServiceConfig.smoke(chunk=20, replicate=6)
SUBSCRIBE = Frame("", 0, None, control="acks")


@pytest.fixture(scope="module")
def setup():
    return build_setup(CFG)


class _Writer:
    """Stands in for an ack-subscribed connection."""

    def __init__(self):
        self.acks = 0

    def write(self, data):
        self.acks += 1


def barrier_scan(core) -> set:
    """The nodes whose queue head is not the cursor tick, by full scan."""
    return {
        p
        for p, q in core.queues.items()
        if not (q.entries and q.entries[0][0] == core.cursor)
    }


def check_barrier(core) -> None:
    assert core.missing == barrier_scan(core)
    assert all(
        q.entries[0][0] >= core.cursor for q in core.queues.values() if q.entries
    )


def _core(setup, tmp_path, policy):
    core = FleetServer(
        build_detector(CFG, setup),
        ServeOptions(queue_max=2, backpressure=policy, wal=tmp_path / "wal"),
        checkpoint=ServerCheckpoint(
            path=tmp_path / "ckpt.npz",
            every=7,
            fingerprint=fleet_fingerprint(setup.trained),
            chunk=CFG.chunk,
        ),
    ).core
    core.recover()
    check_barrier(core)
    # A connected sender arms the barrier deadline.
    core.connect(_Writer())
    return core


def _schedule(setup, tmp_path, policy, seed, n_ops=300):
    rng = random.Random(seed)
    core = _core(setup, tmp_path, policy)
    paths = sorted(core.queues)
    n_slices = setup.eval_data[paths[0]].shape[1] // CFG.chunk
    writer = _Writer()
    now = 0.0

    def values(path, tick):
        lo = (tick % n_slices) * CFG.chunk
        return setup.eval_data[path][:, lo : lo + CFG.chunk]

    def sender():
        # Mostly unsubscribed senders: holes they leave are broken.
        return writer if rng.random() < 0.2 else None

    ticks_done = 0
    for _ in range(n_ops):
        op = rng.random()
        path = rng.choice(paths)
        cursor = core.cursor
        if op < 0.35:
            # In-order: the tick after the node's newest queued one.
            q = core.queues[path].entries
            tick = q[-1][0] + 1 if q else cursor
            core.feed(Frame(path, tick, values(path, tick)), sender())
        elif op < 0.5:
            # Out of order, a duplicate of a queued tick, or late.
            tick = max(0, cursor + rng.randint(-2, 3))
            core.feed(Frame(path, tick, values(path, tick)), sender())
        elif op < 0.55:
            core.feed_error(FrameError("bad-crc", node=path))
        elif op < 0.6:
            ghost = f"ghost/node{rng.randint(0, 3)}"
            core.feed(Frame(ghost, cursor, values(path, cursor)))
        elif op < 0.65:
            # A subscribed sender: a timeout at a hole it fed is held
            # instead of broken.
            core.feed(SUBSCRIBE, writer)
        elif op < 0.85:
            # Before any deadline, a poll fires exactly the complete
            # barrier.
            complete = not barrier_scan(core)
            ticks = core.stats.ticks
            core.poll(now)
            assert (core.stats.ticks == ticks + 1) == complete
            ticks_done += complete
        elif op < 0.95:
            # Barrier timeout: hold a subscribed sender's hole, or break
            # for a partial fleet.
            now += core.tick_timeout
            ticks = core.stats.ticks
            core.poll(now)
            ticks_done += core.stats.ticks - ticks
            if rng.random() < 0.3:
                core.disconnect(writer)
        else:
            # Crash: a fresh core restores the last checkpoint and
            # replays the journal behind it.
            core.wal.close()
            core = _core(setup, tmp_path, policy)
            now = 0.0
        check_barrier(core)
    core.wal.close()
    return ticks_done


@pytest.mark.parametrize("policy", ["drop-oldest", "coalesce"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_missing_set_matches_full_scan(setup, tmp_path, policy, seed):
    assert _schedule(setup, tmp_path, policy, seed) > 10
