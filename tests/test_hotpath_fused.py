"""Fused tick hot path: bit-exactness, raggedness, modes, allocations.

The :class:`~repro.engine.hotpath.TickArena` contract: in ``exact`` mode
every signature is **bit-identical** to the per-node
:class:`~repro.monitoring.streaming.OnlineSignatureStream` oracle and
every alert event equals :func:`~repro.service.detector.detect_naive`'s
(per-sample push, single-row forest predict), under uniform bursts,
ragged bursts, missing nodes and sub-chunk splitting alike; and a
steady-state tick retains zero new numpy memory.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from _guarded_oracle import without_health

from repro.engine import hotpath
from repro.engine.hotpath import SIGNATURE_MODES, TickArena
from repro.service.api import ServiceConfig, replay, replicate_setup
from repro.service.detector import FleetFaultDetector, detect_naive
from repro.service.replay import fleet_recipes, prepare_fleet


@pytest.fixture(scope="module")
def small_setup():
    return prepare_fleet(
        fleet_recipes(3, t=2000),
        ServiceConfig(blocks=8, trees=5, train_frac=0.5, seed=0),
    )


def _oracle_signatures(setup, path, upto):
    stream = setup.trained.engine.stream(path)
    return stream.push_block(setup.eval_data[path][:, :upto])


def _arena_signatures(arena, feeds):
    """Run ``feeds`` (one dict per tick) and collect signatures per node."""
    got = {}
    for data in feeds:
        for path, labels, conf, row0 in arena.tick(data):
            bucket = got.setdefault(path, [])
            for j in range(labels.shape[0]):
                bucket.append(arena.signature(row0 + j))
    return got


def _by_node(events):
    """Events regrouped per node (stable, so window order is kept):
    :func:`detect_naive` walks node by node, the arena tick by tick."""
    return sorted(events, key=lambda e: (e["node"], e["window"]))


class TestExactBitEquality:
    def test_uniform_bursts_match_streaming_oracle(self, small_setup):
        setup = small_setup
        t = min(m.shape[1] for m in setup.eval_data.values())
        arena = TickArena(
            setup.trained.engine,
            setup.trained.classifier.forest,
            mode="exact",
            max_chunk=64,
        )
        feeds = [
            {p: m[:, lo : lo + 64] for p, m in setup.eval_data.items()}
            for lo in range(0, t, 64)
        ]
        got = _arena_signatures(arena, feeds)
        for path in setup.eval_data:
            want = _oracle_signatures(setup, path, t)
            assert len(got[path]) == len(want) > 0
            for a, b in zip(got[path], want):
                assert a.tobytes() == b.tobytes()
            assert arena.counts(path) == t
            assert arena.emitted(path) == len(want)

    def test_ragged_bursts_and_missing_nodes_match(self, small_setup):
        """Random burst lengths + node dropout (node-by-node feeds) and
        sub-chunk splitting; output must not change by a bit."""
        setup = small_setup
        rng = np.random.default_rng(7)
        t = min(m.shape[1] for m in setup.eval_data.values())
        arena = TickArena(
            setup.trained.engine,
            setup.trained.classifier.forest,
            mode="exact",
            max_chunk=17,  # also forces sub-chunk splitting
        )
        pos = {p: 0 for p in setup.eval_data}
        feeds = []
        while min(pos.values()) < t:
            data = {}
            for p, m in setup.eval_data.items():
                if pos[p] >= t or rng.random() < 0.25:
                    continue
                c = min(int(rng.integers(1, 40)), t - pos[p])
                data[p] = m[:, pos[p] : pos[p] + c]
                pos[p] += c
            if data:
                feeds.append(data)
        got = _arena_signatures(arena, feeds)
        n_nodes = len(setup.eval_data)
        assert any(
            len(d) < n_nodes or len({b.shape[1] for b in d.values()}) > 1
            for d in feeds
        )
        for path in setup.eval_data:
            want = _oracle_signatures(setup, path, pos[path])
            assert len(got[path]) == len(want) > 0
            for a, b in zip(got[path], want):
                assert a.tobytes() == b.tobytes()

    def test_realigned_group_batches_again(self, small_setup, monkeypatch):
        """Ragged and missing-node ticks feed node by node; once counts
        line up again the whole group takes one batched call, and the
        output stays bit-identical to the streaming oracle."""
        setup = small_setup
        arena = TickArena(
            setup.trained.engine,
            setup.trained.classifier.forest,
            mode="exact",
            max_chunk=64,
        )
        widths = []
        feed = arena._feed

        def spy(g, sl, node_blocks, feat3):
            widths.append(sl.stop - sl.start)
            return feed(g, sl, node_blocks, feat3)

        monkeypatch.setattr(arena, "_feed", spy)
        paths = sorted(setup.eval_data)
        plan = [(10, 20, 30), (30, 20, None), (None, None, 10)]
        plan += [(25, 25, 25)] * 8
        pos = dict.fromkeys(paths, 0)
        got = {}
        for lengths in plan:
            data = {}
            for p, c in zip(paths, lengths):
                if c is not None:
                    data[p] = setup.eval_data[p][:, pos[p] : pos[p] + c]
                    pos[p] += c
            widths.clear()
            for path, labels, _, row0 in arena.tick(data):
                got.setdefault(path, []).extend(
                    arena.signature(row0 + j) for j in range(len(labels))
                )
            batched = widths == [len(paths)]
            assert batched == (len(set(lengths)) == 1)
        assert set(pos.values()) == {240}
        for path in paths:
            want = _oracle_signatures(setup, path, 240)
            assert len(got[path]) == len(want) > 0
            for a, b in zip(got[path], want):
                assert a.tobytes() == b.tobytes()

    def test_replay_events_identical_to_naive(self, small_setup):
        arena = replay(ServiceConfig(chunk=200), small_setup)
        naive = detect_naive(small_setup.trained, small_setup.eval_data)
        assert _by_node(without_health(arena.events)) == _by_node(naive)
        assert arena.n_windows == sum(
            t.shape[0] for t in small_setup.truth.values()
        )
        assert len(naive) > 0

    def test_serving_chunk_events_identical(self, small_setup):
        """Small serving bursts split windows across many ticks."""
        arena = replay(ServiceConfig(chunk=10), small_setup)
        naive = detect_naive(small_setup.trained, small_setup.eval_data)
        assert _by_node(without_health(arena.events)) == _by_node(naive)


class TestReducedPrecisionModes:
    @pytest.mark.parametrize(
        "mode", [m for m in SIGNATURE_MODES if m != "exact"]
    )
    def test_mode_runs_and_mostly_agrees(self, small_setup, mode):
        exact = replay(ServiceConfig(chunk=200), small_setup)
        reduced = replay(ServiceConfig(chunk=200, mode=mode), small_setup)
        assert reduced.n_windows == exact.n_windows
        det_e = FleetFaultDetector(small_setup.trained)
        det_r = FleetFaultDetector(small_setup.trained, mode=mode)
        for det in (det_e, det_r):
            for lo in range(0, 600, 60):
                det.process_block(
                    {
                        p: m[:, lo : lo + 60]
                        for p, m in small_setup.eval_data.items()
                    }
                )
        agree = total = 0
        for p in det_e.paths:
            le, lr = det_e.history[p][0], det_r.history[p][0]
            assert len(le) == len(lr) > 0
            agree += sum(a == b for a, b in zip(le, lr))
            total += len(le)
        assert agree / total >= 0.95

    @pytest.mark.parametrize("mode", SIGNATURE_MODES)
    def test_outputs_do_not_depend_on_burst_lengths(self, small_setup, mode):
        """float32 has no oracle, so pin it (and exact) to itself: the
        per-node labels, confidences and signature bytes are the same
        whatever burst lengths feed the arena — bursts within the
        ``wl + 1 = 61``-column ring and beyond it, whole or split into
        ``max_chunk`` sub-bursts.  The feed stays under 4096 samples,
        float32's re-anchor interval, so every feed re-anchors alike."""
        setup = small_setup
        t = min(m.shape[1] for m in setup.eval_data.values())
        assert t < 4096

        def outputs(chunk, max_chunk):
            arena = TickArena(
                setup.trained.engine,
                setup.trained.classifier.forest,
                mode=mode,
                max_chunk=max_chunk,
            )
            got = {}
            for lo in range(0, t, chunk):
                data = {p: m[:, lo : lo + chunk] for p, m in setup.eval_data.items()}
                for path, labels, conf, sigs in _tick_record(arena, arena.tick(data)):
                    rec = got.setdefault(path, ([], [], []))
                    for acc, new in zip(rec, (labels, conf, sigs)):
                        acc.extend(new)
            return got

        want = outputs(10, 256)
        assert all(len(rec[0]) > 0 for rec in want.values())
        for chunk, max_chunk in [
            (61, 256), (62, 256), (200, 256), (700, 1024), (333, 100)
        ]:
            assert outputs(chunk, max_chunk) == want, (chunk, max_chunk)

    def test_unknown_backend_and_mode_raise(self, small_setup):
        with pytest.raises(TypeError, match="backend"):
            FleetFaultDetector(small_setup.trained, backend="staged")
        with pytest.raises(ValueError, match="unknown signature mode"):
            FleetFaultDetector(small_setup.trained, mode="float16")
        assert SIGNATURE_MODES == ("exact", "float32")


class TestMemory:
    def test_memory_report_shape_and_mode_ordering(self, small_setup):
        reports = {}
        for mode in SIGNATURE_MODES:
            det = FleetFaultDetector(small_setup.trained, mode=mode)
            rep = det.memory_report()
            assert rep["mode"] == mode
            assert rep["nodes"] == len(det.paths)
            assert (
                rep["per_node_state_bytes"] > 0
                and rep["per_node_total_bytes"] >= rep["per_node_state_bytes"]
            )
            assert rep["total_bytes"] == (
                rep["state_bytes"]
                + rep["scratch_bytes"]
                + rep["classifier_bytes"]
            )
            reports[mode] = rep
        # float32 halves the floating-point state.
        assert (
            reports["float32"]["state_bytes"]
            < reports["exact"]["state_bytes"]
        )

    def test_exact_staging_does_not_grow_with_max_chunk(
        self, small_setup, monkeypatch
    ):
        """Tick scratch is sized per node tile, not per group: in both
        modes its bytes do not grow with the node count, grow with
        ``max_chunk`` only up to the longest sub-burst one node's
        staging fits in the tile budget, and stay within a few budgets.
        A 64 KiB budget caps the largest tile — 1-sample bursts — at 32
        exact / 64 float32 nodes, so 64- and 160-node fleets both
        outgrow it, and caps a sub-burst at 63 exact / 127 float32
        samples: 16 and 60 lie below both caps, 256 and 1024 above."""
        monkeypatch.setattr(hotpath, "_TILE_BYTES", 1 << 16)

        def scratch(mode, nodes, max_chunk):
            setup = replicate_setup(small_setup, nodes)
            arena = TickArena(
                setup.trained.engine,
                setup.trained.classifier.forest,
                mode=mode,
                max_chunk=max_chunk,
            )
            return arena.memory_report()["scratch_bytes"]

        for mode in SIGNATURE_MODES:
            by_chunk = {}
            for max_chunk in (16, 60, 256, 1024):
                got = {scratch(mode, nodes, max_chunk) for nodes in (64, 160)}
                assert len(got) == 1, (mode, max_chunk, got)
                by_chunk[max_chunk] = got.pop()
            assert by_chunk[16] < by_chunk[60] < by_chunk[256], (mode, by_chunk)
            assert by_chunk[256] == by_chunk[1024], (mode, by_chunk)
            assert by_chunk[1024] <= 8 << 16, (mode, by_chunk)

    @staticmethod
    def _retained_bytes(setup, mode, chunk):
        """Traced bytes a run of steady-state ``chunk``-sample ticks
        retains after a 4-tick warm-up (buffers sized, pending
        snapshots filled)."""
        detector = FleetFaultDetector(
            setup.trained,
            record_history=False,
            mode=mode,
            max_chunk=chunk,
        )
        t = min(m.shape[1] for m in setup.eval_data.values())

        def run(lo_start, n_ticks):
            for i in range(n_ticks):
                lo = lo_start + i * chunk
                detector.process_block(
                    {p: m[:, lo : lo + chunk] for p, m in setup.eval_data.items()}
                )

        run(0, 4)
        gc.collect()
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        run(4 * chunk, min(10, (t - 4 * chunk) // chunk))
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return after - before

    def test_steady_state_tick_retains_no_memory(self, small_setup):
        """The tracemalloc regression gate on the zero-allocation claim:
        after warm-up, a run of ticks must not grow traced memory (a
        single leaked column buffer would be tens of kilobytes here)."""
        retained = self._retained_bytes(small_setup, "exact", 50)
        assert retained < 8192, f"steady-state ticks retained {retained} bytes"

    @pytest.mark.parametrize(
        "mode, chunk",
        # Bursts within and beyond the wl + 1 = 61-sample ring, in both
        # precisions.
        [("float32", 50), ("exact", 100), ("float32", 100)],
    )
    def test_every_kernel_retains_no_memory(self, small_setup, mode, chunk):
        retained = self._retained_bytes(small_setup, mode, chunk)
        assert retained < 8192, f"steady-state ticks retained {retained} bytes"

    @pytest.mark.parametrize("mode", SIGNATURE_MODES)
    def test_one_node_tiles_retain_no_memory(
        self, small_setup, mode, monkeypatch
    ):
        """Tiles of one node take the other prefix-sum branch (a cumsum
        down the time axis instead of one add per sample row)."""
        itemsize = 8 if mode == "exact" else 4
        monkeypatch.setattr(hotpath, "_TILE_BYTES", 51 * 128 * itemsize)
        retained = self._retained_bytes(small_setup, mode, 50)
        assert retained < 8192, f"steady-state ticks retained {retained} bytes"


class TestArenaValidation:
    def test_unknown_node_and_bad_shape_raise(self, small_setup):
        arena = TickArena(
            small_setup.trained.engine,
            small_setup.trained.classifier.forest,
        )
        with pytest.raises(KeyError, match="unknown node"):
            arena.tick({"rack9/node99": np.zeros((4, 10))})
        path = next(iter(small_setup.eval_data))
        with pytest.raises(ValueError, match="does not match"):
            arena.tick({path: np.zeros((3, 10))})

    def test_bad_mode_and_chunk_raise(self, small_setup):
        engine = small_setup.trained.engine
        forest = small_setup.trained.classifier.forest
        with pytest.raises(ValueError, match="unknown signature mode"):
            TickArena(engine, forest, mode="double")
        with pytest.raises(ValueError, match="max_chunk"):
            TickArena(engine, forest, max_chunk=0)
        with pytest.raises(KeyError, match="no model"):
            TickArena(engine, forest, paths=["rack9/node99"])

    def test_empty_tick_is_a_noop(self, small_setup):
        arena = TickArena(
            small_setup.trained.engine,
            small_setup.trained.classifier.forest,
        )
        assert arena.tick({}) == []
        path = next(iter(small_setup.eval_data))
        out = arena.tick({path: np.zeros((128, 0))})
        assert [(p, list(l), list(c)) for p, l, c, _ in out] == [
            (path, [], [])
        ]


def _tick_record(arena, out):
    """A tick's output as comparable bytes (labels, confidences and the
    emitted signatures of every node)."""
    return [
        (
            path,
            labels.tolist(),
            conf.tolist(),
            [arena.signature(r0 + j).tobytes() for j in range(len(labels))],
        )
        for path, labels, conf, r0 in out
    ]


def _node_state(arena, path):
    """Copies of one node's rows of every exported group array."""
    g, i = arena._node[path]
    prefix = f"g{arena.groups.index(g)}_"
    return {
        key: value[i].copy()
        for key, value in arena.export_state().items()
        if key.startswith(prefix)
    }


class TestRestore:
    @staticmethod
    def _arena(setup):
        arena = TickArena(
            setup.trained.engine,
            setup.trained.classifier.forest,
            mode="exact",
            max_chunk=64,
        )
        arena._reanchor_every = 50  # several re-anchors in-run
        return arena

    def test_equal_counts_unequal_anchors_restore_exactly(self, small_setup):
        """Counts 80/80/80 with re-anchor points 60/80/60: the restored
        arena must not batch the group on one node's anchor.  Restored
        == uninterrupted == a per-node streaming reference re-anchoring
        on the same interval, tick for tick."""
        setup = small_setup
        paths = sorted(setup.eval_data)
        streams = {}
        for p in paths:
            streams[p] = setup.trained.engine.stream(p)
            streams[p]._core._REANCHOR_INTERVAL = 50
        pos = dict.fromkeys(paths, 0)

        def feed(lengths):
            data = {}
            for p, c in zip(paths, lengths):
                if c is not None:
                    data[p] = setup.eval_data[p][:, pos[p] : pos[p] + c]
                    pos[p] += c
            return data

        live = self._arena(setup)
        for lengths in [(30, 30, 30), (30, 50, 30), (20, None, 20)]:
            data = feed(lengths)
            live.tick(data)
            for p, B in data.items():
                streams[p].push_block(B)
        state = live.export_state()
        assert state["g0_counts"].tolist() == [80, 80, 80]
        assert state["g0_anchors"].tolist() == [60, 80, 60]
        restored = self._arena(setup)
        restored.load_state(state)
        for _ in range(20):
            data = feed((20, 20, 20))
            want = _tick_record(live, live.tick(data))
            assert _tick_record(restored, restored.tick(data)) == want
            for path, _, _, sigs in want:
                ref = streams[path].push_block(data[path])
                assert sigs == [r.tobytes() for r in ref]

    def test_state_no_run_produces_is_refused(self, small_setup):
        """A state that does not fit the groups, or counts, re-anchor
        points and emit counts no run can produce, raise before any
        array is written."""
        setup = small_setup
        arena = self._arena(setup)
        arena.tick({p: m[:, :75] for p, m in setup.eval_data.items()})
        state = {k: v.copy() for k, v in arena.export_state().items()}
        assert state["g0_emitted"].tolist() == [2, 2, 2]
        fresh = self._arena(setup)
        fresh.load_state(state)  # the genuine state restores
        for key, value in state.items():
            assert np.array_equal(fresh.export_state()[key], value), key
        blank = {k: v.copy() for k, v in self._arena(setup).export_state().items()}
        emitted = state["g0_emitted"].copy()
        emitted[1] += 1
        anchors = state["g0_anchors"].copy()
        anchors[2] = 76
        for bad, match in [
            ({"g0_emitted": emitted}, "emit counts"),
            ({"g0_anchors": anchors}, "re-anchor"),
            ({"g0_ring": state["g0_ring"][:, 1:]}, "ring shape"),
        ]:
            target = self._arena(setup)
            with pytest.raises(ValueError, match=match):
                target.load_state({**state, **bad})
            for key, value in blank.items():
                assert np.array_equal(target.export_state()[key], value), key
        missing = dict(state)
        del missing["g0_pending"]
        with pytest.raises(KeyError, match="g0_pending"):
            self._arena(setup).load_state(missing)


class TestNonFiniteScreen:
    @pytest.mark.parametrize(
        "mode, m",
        # exact bursts that fit one kernel call are screened on the
        # gathered samples; longer (100 > max_chunk) and float32
        # bursts on the input.
        [("exact", 10), ("exact", 100), ("float32", 10)],
    )
    def test_corrupt_burst_is_skipped_and_leaves_its_node_untouched(
        self, small_setup, mode, m
    ):
        setup = small_setup
        paths = sorted(setup.eval_data)
        victim = paths[1]

        def arena():
            a = TickArena(
                setup.trained.engine,
                setup.trained.classifier.forest,
                mode=mode,
                max_chunk=64,
            )
            a.reject_nonfinite = True
            return a

        screened, reference = arena(), arena()
        for t in range(8):
            data = {
                p: setup.eval_data[p][:, t * m : (t + 1) * m] for p in paths
            }
            want = dict(data)
            if t in (2, 5):
                before = _node_state(screened, victim)
                poisoned = data[victim].copy()
                poisoned[3, m // 2] = np.nan if t == 2 else -np.inf
                data[victim] = poisoned
                del want[victim]
            got = _tick_record(screened, screened.tick(data))
            assert [r for r in got if r[0] in want] == _tick_record(
                reference, reference.tick(want)
            )
            if t in (2, 5):
                assert (victim, [], [], []) in got
                assert screened.nonfinite == [victim]
                after = _node_state(screened, victim)
                for key, value in before.items():
                    assert np.array_equal(after[key], value), key
            else:
                assert screened.nonfinite == []

    def test_finite_values_whose_sum_overflows_are_absorbed(
        self, small_setup
    ):
        arena = TickArena(
            small_setup.trained.engine,
            small_setup.trained.classifier.forest,
        )
        arena.reject_nonfinite = True
        huge = {p: np.full((128, 10), 1e306) for p in small_setup.eval_data}
        with np.errstate(over="ignore"):
            arena.tick(huge)
        assert arena.nonfinite == []
        assert all(arena.counts(p) == 10 for p in huge)

    def test_screen_is_off_by_default(self, small_setup):
        arena = TickArena(
            small_setup.trained.engine,
            small_setup.trained.classifier.forest,
        )
        path = next(iter(small_setup.eval_data))
        arena.tick({path: np.full((128, 10), np.nan)})
        assert arena.nonfinite == []
        assert arena.counts(path) == 10


class TestTiles:
    """The kernel's node tiles: forced down to ``T = 4`` nodes at
    10-sample bursts (one node's staging is 11 x 128 samples), so
    groups of 1, T - 1, T, T + 1 and 2T + 3 replicated nodes cover a
    partial, a single, an exact and a ragged last tile."""

    T = 4
    CHUNK = 10

    @classmethod
    def _small_tiles(cls, monkeypatch, mode):
        itemsize = 8 if mode == "exact" else 4
        budget = cls.T * (cls.CHUNK + 1) * 128 * itemsize
        monkeypatch.setattr(hotpath, "_TILE_BYTES", budget)

    @staticmethod
    def _arena(setup, mode, screen=False):
        arena = TickArena(
            setup.trained.engine,
            setup.trained.classifier.forest,
            mode=mode,
            max_chunk=64,
        )
        arena.reject_nonfinite = screen
        return arena

    @classmethod
    def _run(cls, arena, setup, ticks):
        paths = sorted(setup.eval_data)
        records = []
        for t in range(ticks):
            lo = t * cls.CHUNK
            data = {p: setup.eval_data[p][:, lo : lo + cls.CHUNK] for p in paths}
            records.append(_tick_record(arena, arena.tick(data)))
        return records

    @pytest.mark.parametrize("mode", SIGNATURE_MODES)
    @pytest.mark.parametrize("nodes", [1, T - 1, T, T + 1, 2 * T + 3])
    def test_tiles_are_route_invariant(self, small_setup, monkeypatch, mode, nodes):
        """Small tiles give the bytes one whole-group tile gives; exact
        ones also the streaming oracle's."""
        setup = replicate_setup(small_setup, nodes)
        whole = self._run(self._arena(setup, mode), setup, 30)
        self._small_tiles(monkeypatch, mode)
        arena = self._arena(setup, mode)
        g = arena.groups[0]
        assert g.tile(self.CHUNK) == min(self.T, nodes)
        tiled = self._run(arena, setup, 30)
        assert tiled == whole
        if mode != "exact":
            return
        for path in setup.eval_data:
            want = _oracle_signatures(setup, path, 30 * self.CHUNK)
            got = [
                sig for tick in tiled for p, _, _, sigs in tick if p == path
                for sig in sigs
            ]
            assert got == [w.tobytes() for w in want] and got

    @pytest.mark.parametrize("victim", [0, 5, 10], ids=["first", "middle", "last"])
    def test_nonfinite_victim_in_any_tile(self, small_setup, monkeypatch, victim):
        """A NaN/Inf burst in the first, a middle or the last tile of an
        11-node group leaves its own node untouched and every other
        node bit-identical to a run without it."""
        setup = replicate_setup(small_setup, 2 * self.T + 3)
        self._small_tiles(monkeypatch, "exact")
        paths = sorted(setup.eval_data)
        bad = paths[victim]
        screened = self._arena(setup, "exact", screen=True)
        reference = self._arena(setup, "exact", screen=True)
        for t in range(8):
            lo = t * self.CHUNK
            data = {p: setup.eval_data[p][:, lo : lo + self.CHUNK] for p in paths}
            want = dict(data)
            if t in (2, 5):
                before = _node_state(screened, bad)
                poisoned = data[bad].copy()
                poisoned[7, 3] = np.nan if t == 2 else np.inf
                data[bad] = poisoned
                del want[bad]
            got = _tick_record(screened, screened.tick(data))
            assert [r for r in got if r[0] in want] == _tick_record(
                reference, reference.tick(want)
            )
            if t in (2, 5):
                assert screened.nonfinite == [bad]
                assert (bad, [], [], []) in got
                after = _node_state(screened, bad)
                for key, value in before.items():
                    assert np.array_equal(after[key], value), key

    def test_state_round_trip_across_tiles(self, small_setup, monkeypatch):
        """Each node's rows of the exported group arrays hold the
        streaming core's ``state_dict`` bit for bit (the ring transposed,
        the open windows' snapshots in their slots), and a fresh arena
        loaded from them continues bit-identically."""
        setup = replicate_setup(small_setup, 2 * self.T + 3)
        self._small_tiles(monkeypatch, "exact")
        paths = sorted(setup.eval_data)
        live = self._arena(setup, "exact")
        upto = 7 * self.CHUNK + 3
        live.tick({p: setup.eval_data[p][:, :upto] for p in paths})
        for p in paths[:4]:
            stream = setup.trained.engine.stream(p)
            stream.push_block(setup.eval_data[p][:, :upto])
            core = stream._core.state_dict()
            g, i = live._node[p]
            starts = np.asarray(core["pending_starts"])
            got = {
                "ring": g.ring[i].T,
                "csum": g.csum[i],
                "count": g.counts[i],
                "emitted": g.emitted[i],
                "anchor": g.anchors[i],
                "pending_starts": starts,
                "pending_snaps": g.pending(i, starts),
            }
            assert sorted(core) == sorted(got)
            assert starts.tolist() == list(hotpath._open_starts(upto, g.wl, g.ws))
            for key, value in core.items():
                value = np.asarray(value)
                assert got[key].shape == value.shape, key
                assert got[key].tobytes() == value.astype(got[key].dtype).tobytes(), key
        restored = self._arena(setup, "exact")
        restored.load_state(live.export_state())
        for t in range(12):
            lo = upto + t * self.CHUNK
            data = {p: setup.eval_data[p][:, lo : lo + self.CHUNK] for p in paths}
            want = _tick_record(live, live.tick(data))
            assert _tick_record(restored, restored.tick(data)) == want
