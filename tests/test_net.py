"""Ingestion-server tests: backpressure, barrier, guard routing, ops API.

The headline contract: alert JSONL produced from frames ingested over a
real loopback socket is byte-identical to the in-process replay of the
same configuration — for both frame encodings.  Around it: the bounded
per-node queues enforce their drop-oldest/coalesce policies under
seeded bursty feeding, protocol garbage lands in the guard's
quarantine machinery instead of crashing the loop, and the HTTP ops
surface reads the same live state the sinks see.
"""

import json
import socket
import urllib.request

import numpy as np
import pytest

from repro.service.api import (
    ServiceConfig,
    build_detector,
    build_setup,
    replay,
)
from repro.service.net import (
    FleetServer,
    ListAlertSink,
    LoadgenOptions,
    loadgen,
    parse_address,
)
from repro.service.protocol import (
    Frame,
    encode_binary,
    encode_eof,
    encode_json,
)
from repro.service.servecore import BackpressureConfig, NodeQueue, ServeOptions

CFG = ServiceConfig.smoke()


@pytest.fixture(scope="module")
def setup():
    return build_setup(CFG)


@pytest.fixture(scope="module")
def reference(setup):
    sink = ListAlertSink()
    outcome = replay(CFG, setup, sinks=(sink,))
    return outcome, sink.text()


def _unreachable(*args, **kwargs):
    """Patched over a step a rejected command line must never reach
    (training, spawning a supervised child)."""
    raise AssertionError("must not be reached")


def _serve(setup, *, config=CFG, sinks=(), **options):
    server = FleetServer(
        build_detector(config, setup),
        ServeOptions(exit_on_idle=True, **options),
        sinks=sinks,
    )
    thread = server.start_background()
    assert server.ready.wait(10)
    return server, thread


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:7000") == ("127.0.0.1", 7000)

    def test_rejects_bare_port(self):
        with pytest.raises(ValueError):
            parse_address("7000")

    @pytest.mark.parametrize(
        "bad", ["host:", ":7000", "host:http", "host:-1", "host:65536"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="host:port"):
            parse_address(bad)


class TestBackpressureQueue:
    def test_drop_oldest_evicts_head(self):
        q = NodeQueue(BackpressureConfig(queue_max=3, policy="drop-oldest"))
        for tick in range(5):
            q.push(tick, None)
        assert [e[0] for e in q.entries] == [2, 3, 4]
        assert q.dropped == 2 and q.coalesced == 0

    def test_coalesce_replaces_tail(self):
        q = NodeQueue(BackpressureConfig(queue_max=3, policy="coalesce"))
        for tick in range(5):
            q.push(tick, None)
        assert [e[0] for e in q.entries] == [0, 1, 4]
        assert q.coalesced == 2 and q.dropped == 0

    @pytest.mark.parametrize(
        "policy,queue_max,kept",
        [
            ("drop-oldest", 3, [0, 3, 4]),
            ("drop-oldest", 1, [0]),
            ("coalesce", 3, [0, 1, 4]),
            ("coalesce", 1, [0]),
        ],
    )
    def test_full_queue_keeps_cursor_entry(self, policy, queue_max, kept):
        """The entry at the cursor tick is never evicted: drop-oldest
        evicts the entry after it, and a queue holding only that entry
        refuses the incoming burst; both count as overflow."""
        q = NodeQueue(BackpressureConfig(queue_max=queue_max, policy=policy))
        for tick in range(5):
            q.push(tick, None, keep=0)
        assert [e[0] for e in q.entries] == kept
        assert q.dropped + q.coalesced == 5 - queue_max

    def test_queue_never_exceeds_bound_under_seeded_bursts(self):
        """Invariant: whatever a bursty feeder does, len(queue) <=
        queue_max and every overflow is accounted for in exactly one
        counter."""
        rng = np.random.default_rng(7)
        for policy in ("drop-oldest", "coalesce"):
            q = NodeQueue(BackpressureConfig(queue_max=8, policy=policy))
            pushed = 0
            for _ in range(50):
                for _ in range(int(rng.integers(0, 12))):  # burst
                    q.push(pushed, None)
                    pushed += 1
                    assert len(q) <= 8
                for _ in range(int(rng.integers(0, 4))):  # partial drain
                    if q.entries:
                        q.entries.popleft()
            drained = pushed - len(q) - q.dropped - q.coalesced
            assert drained >= 0  # everything is in a queue or a counter

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            BackpressureConfig(policy="random-drop")
        with pytest.raises(ValueError, match="queue_max"):
            BackpressureConfig(queue_max=0)


class TestLoopbackIdentity:
    @pytest.mark.parametrize("fmt", ["binary", "json"])
    def test_network_alerts_byte_identical_to_inprocess(
        self, setup, reference, fmt
    ):
        _, ref_text = reference
        sink = ListAlertSink()
        server, thread = _serve(setup, sinks=(sink,))
        loadgen(
            setup,
            LoadgenOptions(connect=f"127.0.0.1:{server.port}", format=fmt),
            chunk=CFG.chunk,
        )
        thread.join(60)
        assert not thread.is_alive()
        assert sink.text() == ref_text
        assert server.stats.garbage == 0
        assert server.stats.frames == server.stats.ticks * len(
            setup.eval_data
        )

    def test_one_socket_per_node_still_identical(self, setup, reference):
        """Frames arriving on separate connections (one agent per node,
        interleaved by tick) reassemble into the same tick bursts."""
        _, ref_text = reference
        sink = ListAlertSink()
        server, thread = _serve(setup, sinks=(sink,))
        paths = sorted(setup.eval_data)
        socks = {
            p: socket.create_connection(("127.0.0.1", server.port))
            for p in paths
        }
        horizon = max(m.shape[1] for m in setup.eval_data.values())
        for ti in range((horizon + CFG.chunk - 1) // CFG.chunk):
            lo = ti * CFG.chunk
            for p in paths:
                m = setup.eval_data[p]
                if lo < m.shape[1]:
                    socks[p].sendall(
                        encode_binary(p, ti, m[:, lo : lo + CFG.chunk])
                    )
        for p in paths:
            socks[p].sendall(encode_eof())
            socks[p].close()
        thread.join(60)
        assert not thread.is_alive()
        assert sink.text() == ref_text

    def test_port_file_written(self, setup, tmp_path):
        port_file = tmp_path / "sub" / "port"
        server, thread = _serve(setup, port_file=port_file)
        assert int(port_file.read_text()) == server.port
        assert not (tmp_path / "sub" / "port.ops").exists()
        server.request_stop()
        thread.join(30)
        assert not thread.is_alive()

    def test_ops_port_lands_in_companion_file(self, setup, tmp_path):
        """With an ephemeral --ops port, the bound port is discoverable
        via <port_file>.ops — the only channel a scripted caller has."""
        port_file = tmp_path / "port"
        server, thread = _serve(
            setup, port_file=port_file, ops="127.0.0.1:0"
        )
        ops_file = tmp_path / "port.ops"
        assert int(ops_file.read_text()) == server.ops_bound_port
        server.request_stop()
        thread.join(30)
        assert not thread.is_alive()


class TestGuardRouting:
    def test_garbage_frame_poisons_node_into_guard(self, setup):
        """A corrupt frame that still names a node must degrade that
        node through the PR 7 guard (shape-mismatch fault), and enough
        of them must quarantine it — never crash the pump."""
        sink = ListAlertSink()
        server, thread = _serve(setup, sinks=(sink,))
        paths = sorted(setup.eval_data)
        victim = paths[0]
        with socket.create_connection(
            ("127.0.0.1", server.port)
        ) as sock:
            for tick in range(4):
                # Valid JSON naming the victim but with no tick: the
                # decoder attributes the error, the server poisons the
                # victim's queue, the guard counts a fault.
                sock.sendall(
                    json.dumps({"node": victim, "values": []}).encode()
                    + b"\n"
                )
                # The other nodes tick normally so the barrier advances.
                for p in paths[1:]:
                    m = setup.eval_data[p]
                    sock.sendall(
                        encode_binary(p, tick, m[:, :CFG.chunk])
                    )
            sock.sendall(encode_eof())
        thread.join(60)
        assert not thread.is_alive()
        assert server.stats.poisoned == 4
        health = server.guarded.fleet_health()
        assert health["nodes"][victim]["state"] in (
            "degraded",
            "quarantined",
        )
        assert health["nodes"][victim]["fault_counts"]["shape-mismatch"] >= 1
        guard_events = [
            line for line in sink.lines if '"event":"guard"' in line
        ]
        assert guard_events, "guard degradation must surface in the stream"

    def test_unknown_node_surfaces_as_guard_reject(self, setup):
        sink = ListAlertSink()
        server, thread = _serve(setup, sinks=(sink,))
        paths = sorted(setup.eval_data)
        m0 = setup.eval_data[paths[0]]
        with socket.create_connection(
            ("127.0.0.1", server.port)
        ) as sock:
            sock.sendall(encode_binary("rack9/node99", 0, m0[:, :CFG.chunk]))
            for p in paths:
                sock.sendall(
                    encode_binary(p, 0, setup.eval_data[p][:, :CFG.chunk])
                )
            sock.sendall(encode_eof())
        thread.join(60)
        assert not thread.is_alive()
        assert server.stats.strays == 1
        assert any(
            '"fault":"unknown-node"' in line for line in sink.lines
        )

    def test_pure_garbage_connection_is_survived(self, setup):
        server, thread = _serve(setup)
        # Keepalive connection: with exit_on_idle, the garbage
        # connection closing must not race the server into drain-and-
        # exit before the real feed connects.
        keep = socket.create_connection(("127.0.0.1", server.port))
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port)
            ) as sock:
                sock.sendall(b"\x00\x01\xfe\xfdGET / HTTP/1.1\r\n\r\n")
            # The garbage connection closed; feed a real run afterwards.
            loadgen(
                setup,
                LoadgenOptions(connect=f"127.0.0.1:{server.port}"),
                chunk=CFG.chunk,
            )
        finally:
            keep.close()
        thread.join(60)
        assert not thread.is_alive()
        assert server.stats.garbage >= 1
        assert server.stats.ticks > 0


class TestStrayBounds:
    def test_stray_flood_is_bounded(self, setup):
        """Unknown-node frames must not grow server memory without
        limit during a barrier stall: at most MAX_STRAY_NODES distinct
        paths are buffered, the rest are counted and dropped."""
        core = FleetServer(build_detector(CFG, setup)).core
        core.MAX_STRAY_NODES = 4
        values = np.zeros((2, 3))
        for i in range(10):
            core.feed(Frame(f"ghost/node{i}", 0, values))
        assert len(core.strays) == 4
        assert core.stats.strays == 10
        assert core.stats.stray_dropped == 6
        # A path already pending is refreshed in place, never dropped.
        core.feed(Frame("ghost/node0", 1, values))
        assert len(core.strays) == 4
        assert core.stats.stray_dropped == 6
        assert core.stats.snapshot()["protocol"]["stray_dropped"] == 6

    def test_empty_fleet_rejected_at_construction(self):
        """Zero registered paths would make the barrier trivially
        complete and busy-spin the pump; refuse it up front."""
        from repro.service.guard import GuardedDetector

        class _NoNodes(GuardedDetector):
            def __init__(self):  # only .paths is consulted before the raise
                pass

            @property
            def paths(self):
                return []

        with pytest.raises(ValueError, match="no registered node paths"):
            FleetServer(_NoNodes())


class TestAlertLog:
    def _open(self, node, window=0):
        return {"event": "open", "node": node, "window": window}

    def test_reopen_supersedes_stale_open(self):
        from repro.service.ops import AlertLog

        log = AlertLog()
        log.emit(self._open("n1"))
        log.emit(self._open("n1", window=5))
        assert [r["state"] for r in log.records()] == ["superseded", "open"]
        log.emit({"event": "close", "node": "n1", "window": 9})
        assert [r["state"] for r in log.records()] == [
            "superseded",
            "closed",
        ]

    def test_retention_bound_evicts_oldest(self):
        from repro.service.ops import AlertLog

        log = AlertLog()
        log.MAX_RECORDS = 3
        for i in range(5):
            log.emit(self._open(f"n{i}", window=i))
        records = log.records()
        assert len(records) == 3
        assert log.evicted == 2
        assert [r["id"] for r in records] == [
            "a000002",
            "a000003",
            "a000004",
        ]
        # Evicted records leave every index: ack misses, and a late
        # close for an evicted node is a no-op rather than a crash.
        assert log.ack("a000000") is False
        log.emit({"event": "close", "node": "n0"})
        assert all(r["state"] == "open" for r in log.records())
        assert log.ack("a000004") is True


class TestServeListenFlagConflicts:
    def test_interval_rejected_with_listen(self, capsys):
        """Pacing belongs to the client (`loadgen --interval`); the
        server has no `--interval`, so passing one is a usage error,
        never a silent no-op."""
        from repro import cli

        with pytest.raises(SystemExit) as exc_info:
            cli.main(["serve", "--listen", "127.0.0.1:0", "--interval", "0.5"])
        assert exc_info.value.code == 2
        assert "--interval" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [["--wal", "waldir"], ["--supervise"]],
    )
    def test_network_only_flags_require_listen(self, extra, capsys):
        """`repro serve` is only the network server: without --listen
        it exits 2, whatever else is set."""
        from repro import cli

        with pytest.raises(SystemExit) as exc_info:
            cli.main(["serve", *extra])
        assert exc_info.value.code == 2
        assert "--listen" in capsys.readouterr().err

    def test_api_serve_rejects_unguarded_config(self, monkeypatch):
        """The server always guards its ingress; guard=False is an error
        before any training, not a flag that is quietly ignored."""
        from repro.service import api

        monkeypatch.setattr(api, "build_setup", _unreachable)
        with pytest.raises(ValueError, match="guard"):
            api.serve(api.ServiceConfig.smoke(guard=False))

    @pytest.mark.parametrize("supervise", [[], ["--supervise"]])
    @pytest.mark.parametrize(
        "extra",
        [
            ["--queue-max", "0"],
            ["--checkpoint-every", "-1"],
            ["--listen", "localhost"],
            ["--ops", "127.0.0.1:http"],
            ["--no-guard"],
            ["--tick-timeout", "-1"],
        ],
    )
    def test_rejected_flags_fail_before_training(
        self, extra, supervise, monkeypatch, capsys
    ):
        """Bad --listen flags exit 2 before the fleet trains and before
        a supervisor spawns a child (which would fail the same way on
        every restart)."""
        from repro import cli
        from repro.service import api, net

        monkeypatch.setattr(api, "build_setup", _unreachable)
        monkeypatch.setattr(net, "supervise", _unreachable)
        argv = ["serve", "--smoke", "--listen", "127.0.0.1:0", *extra]
        assert cli.main([*argv, *supervise]) == 2
        assert "error:" in capsys.readouterr().err

    def test_loadgen_rejects_bad_connect_before_training(
        self, monkeypatch, capsys
    ):
        from repro import cli
        from repro.service import api

        monkeypatch.setattr(api, "build_setup", _unreachable)
        assert cli.main(["loadgen", "--smoke", "--connect", "nohost"]) == 2
        assert "host:port" in capsys.readouterr().err

    def test_store_record_rejects_partition_ticks_before_training(
        self, monkeypatch, capsys, tmp_path
    ):
        from repro import cli
        from repro.service import api

        monkeypatch.setattr(api, "build_setup", _unreachable)
        argv = ["store", "record", str(tmp_path / "st"), "--smoke"]
        assert cli.main([*argv, "--partition-ticks", "0"]) == 2
        assert "--partition-ticks" in capsys.readouterr().err
        assert not (tmp_path / "st").exists()


class TestContradictoryFlags:
    """`repro detect`, `repro serve` and `repro loadgen` reject flags the
    chosen mode would ignore or only fail on late: exit 2 and `error:`,
    before the fleet trains."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["detect", "--resume"], "--resume requires --checkpoint"),
            (["detect", "--t0", "100"], "require --from-store"),
            (["detect", "--t1", "100"], "require --from-store"),
            (
                ["detect", "--from-store", "st", "--stop-after", "3"],
                "--stop-after",
            ),
            (
                ["detect", "--checkpoint", "ck.npz", "--checkpoint-every", "0"],
                "--checkpoint-every must be >= 1",
            ),
            (
                ["detect", "--checkpoint", "ck.npz", "--checkpoint-every", "-2"],
                "--checkpoint-every must be >= 1",
            ),
            (
                [
                    "serve", "--listen", "127.0.0.1:0",
                    "--checkpoint", "ck.npz", "--checkpoint-every", "0",
                ],
                "--checkpoint-every must be >= 1",
            ),
            (
                [
                    "serve", "--listen", "127.0.0.1:0",
                    "--checkpoint", "ck.npz", "--checkpoint-every", "-1",
                ],
                "--checkpoint-every must be >= 1",
            ),
            (
                ["detect", "--from-store", "st", "--t0", "50", "--t1", "10"],
                "--t0 50 is past --t1 10",
            ),
            (["detect", "--from-store", "st", "--t0", "-1"], "--t0 must be >= 0"),
            (["detect", "--from-store", "st", "--t1", "-1"], "--t1 must be >= 0"),
            (
                ["loadgen", "--connect", "127.0.0.1:1", "--interval", "-1"],
                "--interval must be >= 0",
            ),
            (
                ["loadgen", "--connect", "127.0.0.1:1", "--max-ticks", "-3"],
                "--max-ticks must be >= 0",
            ),
            (
                ["loadgen", "--connect", "127.0.0.1:1", "--connect-timeout", "-5"],
                "--connect-timeout must be >= 0",
            ),
            (
                ["loadgen", "--connect", "127.0.0.1:1", "--ack-timeout", "-1"],
                "--ack-timeout must be >= 0",
            ),
            (
                ["loadgen", "--connect", "127.0.0.1:1", "--total-timeout", "-1"],
                "--total-timeout must be >= 0",
            ),
            (
                ["serve", "--listen", "127.0.0.1:0", "--tick-timeout", "-0.5"],
                "--tick-timeout must be >= 0",
            ),
        ],
        ids=[
            "resume-no-checkpoint",
            "t0-no-store",
            "t1-no-store",
            "stop-after-store",
            "detect-every-0",
            "detect-every-negative",
            "serve-every-0",
            "serve-every-negative",
            "t0-past-t1",
            "t0-negative",
            "t1-negative",
            "loadgen-interval-negative",
            "loadgen-max-ticks-negative",
            "loadgen-connect-timeout-negative",
            "loadgen-ack-timeout-negative",
            "loadgen-total-timeout-negative",
            "serve-tick-timeout-negative",
        ],
    )
    def test_rejected_before_training(self, argv, message, monkeypatch, capsys):
        from repro import cli
        from repro.service import api

        monkeypatch.setattr(api, "build_setup", _unreachable)
        monkeypatch.setattr(api, "replay", _unreachable)
        assert cli.main([*argv, "--smoke"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err


class TestNetChaosFlagErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--latency-ms", "-1"], "latency_ms must be >= 0"),
            (["--partition-ms", "-5"], "partition_ms must be >= 0"),
            (["--upstream-port-file", "p"], "exactly one of --upstream/"),
            (["--listen", "nohost"], "host:port"),
            (["--upstream", "127.0.0.1:http"], "host:port"),
        ],
        ids=["latency", "partition-ms", "two-upstreams", "listen", "upstream"],
    )
    def test_rejected_values_exit_2(self, argv, message, monkeypatch, capsys):
        """A bad fault rate or address is a usage error (exit 2), not a
        traceback, and no proxy starts."""
        from repro import cli
        from repro.service import netchaos

        monkeypatch.setattr(netchaos, "ChaosProxy", _unreachable)
        base = {"--listen": "127.0.0.1:0", "--upstream": "127.0.0.1:1"}
        for flag, value in zip(argv[::2], argv[1::2]):
            base[flag] = value
        try:
            rc = cli.main(["netchaos", *(t for kv in base.items() for t in kv)])
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err


class TestSupervisorArgv:
    def test_abbreviated_flags_are_rejected(self, monkeypatch):
        """``--sup`` must not parse as ``--supervise``: the supervisor
        strips only exact spellings from the child argv, so a prefix
        match would make the child a supervisor too."""
        from repro import cli
        from repro.service import net

        monkeypatch.setattr(net, "supervise", _unreachable)
        for k in range(3, len("--supervise")):
            with pytest.raises(SystemExit) as exc_info:
                cli.main(["serve", "--listen", "127.0.0.1:0", "--supervise"[:k]])
            assert exc_info.value.code == 2
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["serve", "--listen", "127.0.0.1:0", "--max-re", "1"])
        assert exc_info.value.code == 2

    def test_every_parser_disables_prefix_matching(self):
        import argparse

        from repro import cli

        pending = [cli.build_parser()]
        seen = 0
        while pending:
            parser = pending.pop()
            assert parser.allow_abbrev is False, parser.prog
            seen += 1
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    pending.extend(action.choices.values())
        assert seen > 10

    @pytest.mark.parametrize(
        "flags",
        [
            ["--supervise"],
            ["--supervise", "--max-restarts", "3", "--min-uptime=2"],
            ["--restart-backoff", "0.1", "--supervise", "--min-uptime", "1"],
        ],
    )
    def test_child_argv_never_supervises(self, flags):
        from repro import cli
        from repro.service.net import SuperviseOptions, child_argv

        argv = ["serve", "--smoke", "--listen", "127.0.0.1:0", *flags]
        parser = cli.build_parser()
        assert parser.parse_args(argv).supervise is True
        child = parser.parse_args(child_argv(argv))
        assert cli._config_from_args(child, SuperviseOptions) == SuperviseOptions()
        assert child.listen == "127.0.0.1:0" and child.smoke


class TestDrainAndTimeout:
    def test_chatty_live_node_cannot_postpone_timeout(self, setup):
        """The barrier deadline is absolute from when queued data first
        waited, not restarted per frame: a live node sending faster
        than tick_timeout must not let a dead node stall ticks."""
        import time

        server, thread = _serve(setup, tick_timeout=0.4)
        paths = sorted(setup.eval_data)
        live = paths[0]
        m = setup.eval_data[live]
        with socket.create_connection(
            ("127.0.0.1", server.port)
        ) as sock:
            deadline = time.monotonic() + 15
            tick = 0
            while server.stats.ticks < 2 and time.monotonic() < deadline:
                sock.sendall(encode_binary(live, tick, m[:, : CFG.chunk]))
                tick += 1
                time.sleep(0.05)
            assert server.stats.ticks >= 2
            sock.sendall(encode_eof())
        thread.join(60)
        assert not thread.is_alive()

    def test_partial_fleet_processed_after_tick_timeout(self, setup):
        """A dead agent must not stall the world: with one node silent
        and the connection held open, the barrier breaks after
        tick_timeout and the live node's frames are processed."""
        import time

        server, thread = _serve(setup, tick_timeout=0.2)
        paths = sorted(setup.eval_data)
        live = paths[0]
        m = setup.eval_data[live]
        with socket.create_connection(
            ("127.0.0.1", server.port)
        ) as sock:
            for tick in range(2):
                sock.sendall(
                    encode_binary(
                        live, tick, m[:, tick * CFG.chunk :][:, : CFG.chunk]
                    )
                )
            # No eof, connection stays open: only the timeout can fire.
            deadline = time.monotonic() + 15
            while server.stats.ticks < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert server.stats.ticks >= 1
            sock.sendall(encode_eof())
        thread.join(60)
        assert not thread.is_alive()

    def test_late_frames_dropped(self, setup):
        server, thread = _serve(setup)
        paths = sorted(setup.eval_data)
        with socket.create_connection(
            ("127.0.0.1", server.port)
        ) as sock:
            for p in paths:  # tick 5 everywhere: cursor jumps to 5+1
                sock.sendall(
                    encode_binary(p, 5, setup.eval_data[p][:, :CFG.chunk])
                )
            # Wait until the barrier fired before sending the stale tick.
            import time

            deadline = time.monotonic() + 10
            while server.stats.ticks < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            sock.sendall(
                encode_binary(
                    paths[0], 2, setup.eval_data[paths[0]][:, :CFG.chunk]
                )
            )
            sock.sendall(encode_eof())
        thread.join(60)
        assert not thread.is_alive()
        assert server.stats.late_dropped >= 1


class TestOpsAPI:
    def _get(self, port, path):
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=10
            ) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def _post(self, port, path):
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}", method="POST"
        )
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_ops_endpoints_against_live_server(self, setup):
        # exit_on_idle stays off: the server must survive the loadgen
        # connection closing so the ops queries below hit live state.
        server = FleetServer(
            build_detector(CFG, setup),
            ServeOptions(ops="127.0.0.1:0", tick_timeout=0.5),
        )
        thread = server.start_background()
        assert server.ready.wait(10)
        port = server.ops_bound_port

        status, health = self._get(port, "/health")
        assert status == 200
        assert health["status"] == "ok"
        assert health["nodes"] == len(setup.eval_data)

        status, fleet = self._get(port, "/fleet")
        assert status == 200
        assert set(fleet["fleet"]["nodes"]) == set(setup.eval_data)

        # Drive the full feed so alerts exist, then inspect them.
        loadgen(
            setup,
            LoadgenOptions(connect=f"127.0.0.1:{server.port}", eof=False),
            chunk=CFG.chunk,
        )
        import time

        horizon = max(m.shape[1] for m in setup.eval_data.values())
        expected = -(-horizon // CFG.chunk)
        deadline = time.monotonic() + 30
        while (
            server.stats.ticks < expected and time.monotonic() < deadline
        ):
            time.sleep(0.05)

        status, alerts = self._get(port, "/alerts")
        assert status == 200
        assert alerts["schema"] == "repro-alerts/v1"
        assert alerts["alerts"], "smoke fleet must raise alerts"
        first = alerts["alerts"][0]
        assert first["open_event"]["event"] == "open"
        assert "attribution" in first["open_event"]

        aid = first["id"]
        status, body = self._post(port, f"/alerts/{aid}/ack")
        assert status == 200 and body["ack"] is True
        status, body = self._post(port, f"/alerts/{aid}/suppress")
        assert status == 200
        _, visible = self._get(port, "/alerts")
        assert aid not in [a["id"] for a in visible["alerts"]]
        _, everything = self._get(port, "/alerts?all=1")
        assert aid in [a["id"] for a in everything["alerts"]]

        status, _ = self._post(port, "/alerts/a999999/ack")
        assert status == 404
        status, _ = self._get(port, "/nope")
        assert status == 404

        status, stats = self._get(port, "/stats")
        assert status == 200
        assert stats["ticks"] == expected
        assert stats["samples_per_s"] > 0
        assert "backpressure" in stats

        server.request_stop()
        thread.join(30)
        assert not thread.is_alive()
