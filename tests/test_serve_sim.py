"""Deterministic simulation of the serving core.

Seeded schedules drive :class:`~repro.service.servecore.ServeCore` in
virtual time over the smoke fleet.  Each schedule has 2-3 fake senders
that behave like ``loadgen(resume=True)``: they subscribe to acks, keep
a window of unacked ticks in flight, go back to the tick after a
repeated ack, and reconnect, resubscribe and resend after a reset or an
ack stall.  Their links reorder, duplicate and drop frames, reset, and
partition all senders at once; acks can be lost; barrier deadlines and
the idle grace fire as virtual time passes.  Durable schedules journal
and checkpoint, and crash: the exhaustive sweep crashes one schedule at
every journal record boundary and once inside every record (the segment
file torn mid-record), then restores the checkpoint and replays.

Invariants, checked after every step and every schedule:

* (a) a schedule whose senders all subscribe and eventually deliver
  emits alert lines byte-identical to a plain guarded loop over the
  same ticks (``_guarded_oracle``, which shares no code with the core),
  crashes included;
* (b) no ack ever exceeds the watermark restored after a later crash;
* (c) the cursor is monotone and no tick reaches ``process_block``
  twice in one process;
* (d) every queue stays within ``queue_max``, the strays within
  ``MAX_STRAY_NODES`` and the feeders within the fleet size — and the
  barrier's missing set equals its full scan (``test_net_barrier``).

Hostile schedules add poison, protocol garbage, unknown nodes, senders
that never subscribe, losses before a node was first fed and one-entry
queues; (a) does not apply to them, (b)-(d) do.
"""

import json
import math
import os
import random
import shutil
from dataclasses import dataclass

import pytest
from _guarded_oracle import guarded_lines
from test_net_barrier import check_barrier

from repro.service.api import ServiceConfig, build_detector, build_setup
from repro.service.checkpoint import fleet_fingerprint
from repro.service.protocol import Frame, FrameError
from repro.service.servecore import (
    BackpressureConfig,
    ListAlertSink,
    ServeCore,
    ServerCheckpoint,
)

CFG = ServiceConfig.smoke(chunk=20, replicate=6)
SUBSCRIBE = Frame("", 0, None, control="acks")
EOF = Frame("", 0, None, control="eof")
MAX_STEPS = 20_000
#: Virtual seconds after which a hostile schedule's senders give up.
HOSTILE_HORIZON = 10.0


@pytest.fixture(scope="module")
def setup():
    return build_setup(CFG)


@pytest.fixture(scope="module")
def world(setup):
    return World(setup)


class World:
    """What every schedule shares: the fleet, its lineage and the
    reference alert lines per tick count."""

    def __init__(self, setup):
        self.setup = setup
        self.paths = sorted(setup.eval_data)
        self.fingerprint = fleet_fingerprint(setup.trained)
        self._refs: dict[int, list[str]] = {}

    def reference(self, n_ticks: int) -> list[str]:
        if n_ticks not in self._refs:
            self._refs[n_ticks] = guarded_lines(CFG, self.setup, n_ticks)
        return self._refs[n_ticks]

    def values(self, path: str, tick: int):
        lo = tick * CFG.chunk
        return self.setup.eval_data[path][:, lo : lo + CFG.chunk]


@dataclass
class Plan:
    """One schedule's shape, drawn from its seed."""

    seed: int
    hostile: bool
    durable: bool
    crashes: float  # chance per step of a random crash (durable only)
    n_ticks: int
    owners: list  # sender index per node
    window: int
    tick_timeout: float
    ack_timeout: float
    idle_grace: float
    send_eof: bool
    p_drop: float
    p_dup: float
    p_reorder: float
    p_reset: float
    p_partition: float
    p_ack_loss: float
    queue_max: int
    policy: str
    every: int

    @classmethod
    def draw(cls, seed, n_nodes, *, hostile=False, durable=False, crashes=0.0):
        rng = random.Random(f"plan/{seed}")
        n_senders = rng.choice((2, 3))
        owners = list(range(n_senders))
        owners += [rng.randrange(n_senders) for _ in range(n_nodes - n_senders)]
        rng.shuffle(owners)
        window = rng.choice((1, 2, 3, 4))
        return cls(
            seed=seed,
            hostile=hostile,
            durable=durable,
            crashes=crashes,
            n_ticks=rng.randint(4, 10),
            owners=owners,
            window=window,
            tick_timeout=rng.choice((0.2, 0.5, 2.0)),
            ack_timeout=rng.choice((0.15, 0.4, 5.0)),
            idle_grace=rng.choice((0.3, 1.0)),
            send_eof=rng.random() < 0.5,
            p_drop=rng.choice((0.0, 0.05, 0.2)),
            p_dup=rng.choice((0.0, 0.1)),
            p_reorder=rng.choice((0.0, 0.2)),
            p_reset=rng.choice((0.0, 0.01, 0.03)),
            p_partition=rng.choice((0.0, 0.005)),
            p_ack_loss=rng.choice((0.0, 0.0, 0.1)),
            queue_max=rng.choice((1, 2, 3)) if hostile else window + 1,
            policy=rng.choice(("drop-oldest", "coalesce")),
            every=rng.choice((1, 3, 7)),
        )


class Crash(Exception):
    """The simulated kill -9."""


def arm_crash(wal, at: int, torn: bool) -> None:
    """Crash when journal record ``at`` is about to be appended: the
    records before it reach the segment file, and with ``torn`` so does
    the first half of record ``at``."""
    for name in ("append_frame", "append_error", "append_watermark"):
        real = getattr(wal, name)

        def append(*args, _real=real, **kwargs):
            if wal.next_index != at:
                return _real(*args, **kwargs)
            wal.sync()
            if torn:
                before = wal.bytes_written
                _real(*args, **kwargs)
                wal.sync()
                size = wal.bytes_written - before
                segment = max(wal.root.glob("wal-*.seg"))
                os.truncate(segment, segment.stat().st_size - size + size // 2)
            wal.close()
            raise Crash

        setattr(wal, name, append)


class Conn:
    """One connection of a sender: the core's ack target.  Hashed by a
    per-schedule serial, so the core's set iteration (and with it the
    whole schedule) is the same on every run."""

    def __init__(self, sender, serial):
        self.sender = sender
        self.serial = serial

    def __hash__(self):
        return self.serial

    def write(self, data: bytes) -> None:
        self.sender.on_ack(self, json.loads(data)["tick"])


class Sender:
    """A resuming client (``loadgen(resume=True)``) over a faulty link."""

    def __init__(self, sim, nodes, subscribe):
        self.sim = sim
        self.nodes = nodes
        self.subscribe = subscribe
        self.conn = None
        self.link: list = []  # frames in flight to the core
        self.reconnect_at = 0.0
        self.progress_t = 0.0
        self.next_tick = 0
        self.last_acked = -1
        self.synced = False
        self.done = not nodes
        #: Nodes this sender delivered since the core (re)started; a
        #: lossless schedule only loses frames of nodes in here.
        self.fed: set = set()

    # -- the core's side ------------------------------------------------
    def on_ack(self, conn, tick: int) -> None:
        sim = self.sim
        sim.acked = max(sim.acked, tick)
        if conn is not self.conn or sim.rng.random() < sim.plan.p_ack_loss:
            return
        if not self.synced:
            # The watermark on subscribe.
            assert tick >= self.last_acked, "(b) watermark below an ack"
        if tick > self.last_acked:
            self.last_acked = tick
            self.progress_t = sim.now
        elif tick == self.last_acked and self.synced:
            # A repeated ack: the core holds a hole right after it.
            self.next_tick = tick + 1
            self.progress_t = sim.now
        self.synced = True
        self.next_tick = max(self.next_tick, self.last_acked + 1)

    # -- actions ----------------------------------------------------------
    def faulty(self) -> bool:
        return self.sim.plan.hostile or self.fed >= set(self.nodes)

    def actions(self) -> list:
        if self.done:
            return []
        if self.conn is None:
            return [self.connect] if self.sim.now >= self.reconnect_at else []
        plan, out = self.sim.plan, []
        if self.link:
            out.append(self.deliver)
        if not self.subscribe:
            if self.next_tick < plan.n_ticks:
                out.append(self.send)
            elif not self.link:
                out.append(self.finish)
            return out
        if self.last_acked == plan.n_ticks - 1:
            out.append(self.finish)
        elif (
            self.next_tick < plan.n_ticks
            and self.next_tick - self.last_acked <= plan.window
        ):
            out.append(self.send)
        if self.sim.now >= self.stall_at():
            out.append(self.reset)
        return out

    def stall_at(self) -> float:
        outstanding = self.last_acked < min(self.next_tick, self.sim.plan.n_ticks) - 1
        if self.conn is None or not self.subscribe or not outstanding:
            return math.inf
        return self.progress_t + self.sim.plan.ack_timeout

    def timer(self) -> float:
        if self.done:
            return math.inf
        if self.conn is None:
            return self.reconnect_at
        return self.stall_at()

    def connect(self) -> None:
        sim = self.sim
        sim.serial += 1
        self.conn = Conn(self, sim.serial)
        self.synced = False
        self.progress_t = sim.now
        sim.core.connect(self.conn)
        if self.subscribe:
            sim.core.feed(SUBSCRIBE, self.conn)
        sim.woke()

    def send(self) -> None:
        tick = self.next_tick
        self.link.extend(
            Frame(path, tick, self.sim.world.values(path, tick))
            for path in self.nodes
        )
        self.next_tick += 1

    def deliver(self) -> None:
        sim, plan, rng = self.sim, self.sim.plan, self.sim.rng
        i = 1 if len(self.link) > 1 and rng.random() < plan.p_reorder else 0
        frame = self.link.pop(i)
        if self.faulty():
            live = [s for s in sim.senders if s.conn is not None]
            if rng.random() < plan.p_partition and all(s.faulty() for s in live):
                for sender in live:
                    sender.reset()
                return
            if rng.random() < plan.p_reset:
                self.reset()
                return
            if rng.random() < plan.p_drop:
                return
            if rng.random() < plan.p_dup:
                self.link.insert(rng.randint(0, len(self.link)), frame)
        if self.subscribe:
            self.fed.add(frame.node)
        sim.core.feed(frame, self.conn)
        sim.woke()

    def finish(self) -> None:
        if self.sim.plan.send_eof:
            self.sim.core.feed(EOF, self.conn)
        self.drop_conn()
        self.done = True

    def reset(self) -> None:
        """A link reset or an ack stall: reconnect after a backoff and
        go back to the tick after the last ack.  A client without acks
        cannot resume: it ends with its connection."""
        self.drop_conn()
        self.done = not self.subscribe
        self.reconnect_at = self.sim.now + self.sim.rng.uniform(0.01, 0.1)
        self.next_tick = self.last_acked + 1

    def drop_conn(self) -> None:
        self.sim.core.disconnect(self.conn)
        self.conn = None
        self.link.clear()
        self.sim.woke()

    def crashed(self) -> None:
        """The core died: every connection with it."""
        self.conn = None
        self.link.clear()
        self.fed.clear()
        self.reconnect_at = self.sim.now + self.sim.rng.uniform(0.01, 0.1)
        self.next_tick = self.last_acked + 1
        # A resuming client, finished or not, reconnects to re-check.
        self.done = not self.nodes or not self.subscribe


class Sim:
    """One schedule: senders, the core, virtual time and the checks."""

    def __init__(self, world, plan, tmp_path, crash_at=None, torn=False):
        self.world, self.plan, self.tmp_path = world, plan, tmp_path
        self.rng = random.Random(plan.seed)
        self.crash_at, self.torn = crash_at, torn
        self.crash_point = (crash_at, torn)
        self.now = 0.0
        self.due = math.inf
        self.acked = -1  # highest ack any sender received
        self.crashes = 0
        self.serial = 0
        self.stopped = False
        n_senders = max(plan.owners) + 1
        subscribe = [True] * n_senders
        if plan.hostile:
            subscribe = [self.rng.random() < 0.7 for _ in range(n_senders)]
        self.senders = [
            Sender(
                self,
                [p for p, o in zip(world.paths, plan.owners) if o == i],
                subscribe[i],
            )
            for i in range(n_senders)
        ]
        self.start_core()

    def start_core(self) -> None:
        plan = self.plan
        self.sink = ListAlertSink()
        durable = {}
        if plan.durable:
            durable = dict(
                wal=self.tmp_path / "wal",
                checkpoint=ServerCheckpoint(
                    path=self.tmp_path / "ckpt.npz",
                    every=plan.every,
                    fingerprint=self.world.fingerprint,
                    chunk=CFG.chunk,
                ),
            )
        self.core = ServeCore(
            build_detector(CFG, self.world.setup),
            sinks=(self.sink,),
            backpressure=BackpressureConfig(plan.queue_max, plan.policy),
            tick_timeout=plan.tick_timeout,
            exit_on_idle=True,
            idle_grace=plan.idle_grace,
            **durable,
        )
        if plan.hostile:
            self.core.MAX_STRAY_NODES = 2
        self.processed = -1  # the last tick this process ran
        guarded = self.core.guarded
        real = guarded.process_block

        def process_block(burst, tick=None):
            assert tick > self.processed, "(c) tick processed out of order"
            self.processed = tick
            return real(burst, tick=tick)

        guarded.process_block = process_block
        self.core.recover()
        assert self.core.cursor - 1 >= self.acked, "(b) acked tick lost"
        self.cursor = self.core.cursor
        if self.crash_at is not None and self.core.wal is not None:
            arm_crash(self.core.wal, self.crash_at, self.torn)
        self.due = self.now

    def woke(self) -> None:
        self.due = self.now

    def poll(self) -> None:
        self.due = self.core.poll(self.now)

    def hostile_input(self) -> None:
        rng, core = self.rng, self.core
        if rng.random() < 0.5:
            node = rng.choice(self.world.paths + [None])
            core.feed_error(FrameError("bad-crc", node=node))
        else:
            ghost = f"ghost/node{rng.randint(0, 3)}"
            path = rng.choice(self.world.paths)
            core.feed(Frame(ghost, 0, self.world.values(path, 0)))
        self.woke()

    def give_up(self) -> None:
        """End a hostile schedule: senders leave, the core drains."""
        for sender in self.senders:
            if sender.conn is not None:
                sender.drop_conn()
            sender.done = True
        self.core.stop()
        self.stopped = True
        self.woke()

    def step(self) -> bool:
        """One event; False once the core has drained."""
        actions = [a for s in self.senders for a in s.actions()]
        if self.due <= self.now:
            actions.append(self.poll)
        if self.plan.hostile and not self.stopped:
            if self.now > HOSTILE_HORIZON:
                self.give_up()
                return True
            if self.rng.random() < 0.02:
                actions.append(self.hostile_input)
        if not self.stopped and self.rng.random() < self.plan.crashes:
            actions.append(self.crash)
        if actions:
            self.rng.choice(actions)()
        else:
            now = min([s.timer() for s in self.senders] + [self.due])
            if now < math.inf:
                self.now = now
            else:
                assert self.plan.hostile, "a lossless schedule deadlocked"
                self.give_up()
        return self.due is not None

    def crash(self) -> None:
        if self.core.wal is not None:
            self.core.wal.close()
        raise Crash

    def check(self) -> None:
        core = self.core
        check_barrier(core)
        assert core.cursor >= self.cursor, "(c) cursor moved back"
        self.cursor = core.cursor
        assert max(map(len, core.queues.values())) <= self.plan.queue_max, "(d)"
        assert len(core.strays) <= core.MAX_STRAY_NODES, "(d) strays"
        assert len(core.feeders) <= len(core.queues), "(d) feeders"

    def run(self) -> list[str]:
        try:
            return self._run()
        except AssertionError as exc:
            exc.add_note(f"schedule: {self.plan}, crash at {self.crash_point}")
            raise

    def _run(self) -> list[str]:
        for _ in range(MAX_STEPS):
            try:
                if not self.step():
                    if self.crash_at is None:
                        break
                    self.crash()  # the armed record never came: crash now
            except Crash:
                self.crashes += 1
                self.crash_at = None  # one armed crash per run
                for sender in self.senders:
                    sender.crashed()
                self.start_core()
            self.check()
        else:
            raise AssertionError(f"schedule {self.plan} did not converge")
        self.core.close()
        if not self.plan.hostile:
            reference = self.world.reference(self.plan.n_ticks)
            assert self.sink.lines == reference, "(a) alerts differ from replay"
        return self.sink.lines


def run_schedule(world, tmp_path, seed, **kwargs) -> Sim:
    plan = Plan.draw(seed, len(world.paths), **kwargs)
    sim = Sim(world, plan, tmp_path)
    sim.run()
    return sim


#: Crash-free schedules in tier-1: blocks of 100 seeds, the last
#: three blocks hostile.
BLOCKS, HOSTILE_BLOCKS = 20, 3

#: Durable schedules the crash sweep runs: lossy links (drops,
#: duplicates, reorders, resets) with a checkpoint every 1, 3 and 7
#: ticks — the last never checkpoints mid-run, so its restarts replay
#: the journal alone.
SWEEP_SEEDS = (644, 1051, 127)


@pytest.mark.parametrize("block", range(BLOCKS))
def test_crash_free_schedules(world, tmp_path, block):
    hostile = block >= BLOCKS - HOSTILE_BLOCKS
    for seed in range(block * 100, (block + 1) * 100):
        run_schedule(world, tmp_path / str(seed), seed, hostile=hostile)


@pytest.mark.parametrize("hostile", [False, True], ids=["lossless", "hostile"])
def test_durable_schedules_with_random_crashes(world, tmp_path, hostile):
    crashes = 0
    for seed in range(30):
        sim = run_schedule(
            world, tmp_path / str(seed), seed, hostile=hostile, durable=True,
            crashes=0.01,
        )
        crashes += sim.crashes
    assert crashes >= 10


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_crash_at_every_journal_record(world, tmp_path, seed):
    """Crash at every record boundary and inside every record of one
    durable schedule, restore, replay and finish: (a)-(d) each time."""
    plan = Plan.draw(seed, len(world.paths), durable=True)
    clean = Sim(world, plan, tmp_path / "clean")
    clean.run()
    n_records = clean.core.wal.next_index
    assert n_records > 6 * plan.n_ticks
    for at in range(n_records + 1):
        for torn in (False, True) if at < n_records else (False,):
            run_dir = tmp_path / f"{at}-{torn}"
            sim = Sim(world, plan, run_dir, crash_at=at, torn=torn)
            sim.run()
            assert sim.crashes == 1
            shutil.rmtree(run_dir)


@pytest.mark.slow
def test_schedule_sweep(world, tmp_path):
    """The long sweep: 20,000 more seeded schedules of every kind."""
    for seed in range(10_000, 30_000):
        kind = seed % 10
        run_schedule(
            world,
            tmp_path / str(seed),
            seed,
            hostile=kind >= 7,
            durable=kind in (5, 6, 9),
            crashes=0.01 if kind in (6, 9) else 0.0,
        )
        shutil.rmtree(tmp_path / str(seed), ignore_errors=True)
