"""The tick barrier's incremental bookkeeping against its definition.

``FleetServer`` keeps the set of registered nodes whose queue head is
not the cursor tick, updated for the one node each routed frame or
poison push touches and rebuilt when the cursor moves.  The barrier is
complete when that set is empty.  These seeded random schedules check,
after every operation, that the set equals the full scan over all
queues it replaces, and that no queue head ever lies below the cursor
(stale heads are dropped only when the cursor moves).
"""

import random

import pytest

from repro.service.api import ServiceConfig, build_detector, build_setup
from repro.service.checkpoint import fleet_fingerprint
from repro.service.net import BackpressureConfig, FleetServer, ServerCheckpoint
from repro.service.protocol import Frame, FrameError

CFG = ServiceConfig.smoke(chunk=20, replicate=6)


@pytest.fixture(scope="module")
def setup():
    return build_setup(CFG)


class _Writer:
    """Stands in for an ack-subscribed connection."""

    def __init__(self):
        self.acks = 0

    def write(self, data):
        self.acks += 1


def _check(server):
    cursor = server._cursor
    scan = {
        p
        for p, q in server._queues.items()
        if not (q.entries and q.entries[0][0] == cursor)
    }
    assert server._missing == scan
    assert server._barrier_complete() == (not scan)
    assert all(
        q.entries[0][0] >= cursor for q in server._queues.values() if q.entries
    )


def _server(setup, tmp_path, policy):
    server = FleetServer(
        build_detector(CFG, setup),
        backpressure=BackpressureConfig(queue_max=2, policy=policy),
        wal=tmp_path / "wal",
        checkpoint=ServerCheckpoint(
            path=tmp_path / "ckpt.npz",
            every=7,
            fingerprint=fleet_fingerprint(setup.trained),
            chunk=CFG.chunk,
        ),
    )
    server._recover()
    _check(server)
    return server


def _schedule(setup, tmp_path, policy, seed, n_ops=300):
    rng = random.Random(seed)
    server = _server(setup, tmp_path, policy)
    paths = sorted(server._queues)
    n_slices = setup.eval_data[paths[0]].shape[1] // CFG.chunk
    writer = _Writer()

    def values(path, tick):
        lo = (tick % n_slices) * CFG.chunk
        return setup.eval_data[path][:, lo : lo + CFG.chunk]

    ticks_done = 0
    for _ in range(n_ops):
        op = rng.random()
        path = rng.choice(paths)
        cursor = server._cursor
        if op < 0.35:
            # In-order: the tick after the node's newest queued one.
            q = server._queues[path].entries
            tick = q[-1][0] + 1 if q else cursor
            server._route_frame(Frame(path, tick, values(path, tick)))
        elif op < 0.5:
            # Out of order, a duplicate of a queued tick, or late.
            tick = max(0, cursor + rng.randint(-2, 3))
            server._route_frame(Frame(path, tick, values(path, tick)))
        elif op < 0.55:
            server._route_error(FrameError("bad-crc", node=path))
        elif op < 0.6:
            ghost = f"ghost/node{rng.randint(0, 3)}"
            server._route_frame(Frame(ghost, cursor, values(path, cursor)))
        elif op < 0.65:
            # A subscribed sender now feeds this node: a timeout at a
            # hole it left is held instead of broken.
            server._feeders[path] = writer
            server._ack_subs.add(writer)
        elif op < 0.85:
            if server._barrier_complete():
                server._process_tick()
                ticks_done += 1
        elif op < 0.95:
            # Barrier timeout: hold a subscribed sender's hole, or break
            # for a partial fleet.
            if server._any_queued() and not server._hold_hole():
                server._advance_to_next_queued()
                server._process_tick()
                ticks_done += 1
            if rng.random() < 0.3:
                server._feeders.clear()
                server._ack_subs.clear()
        else:
            # Crash: a fresh server restores the last checkpoint and
            # replays the journal behind it.
            server._wal.close()
            server = _server(setup, tmp_path, policy)
        _check(server)
    server._wal.close()
    return ticks_done


@pytest.mark.parametrize("policy", ["drop-oldest", "coalesce"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_missing_set_matches_full_scan(setup, tmp_path, policy, seed):
    assert _schedule(setup, tmp_path, policy, seed) > 10
