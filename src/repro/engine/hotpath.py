"""Fused single-pass tick hot path: one preallocated arena per fleet.

A straightforward service tick (per-node
:class:`~repro.engine.streaming.OnlineSignatureStream` ``push_block`` →
``signature_features`` → ``predict_with_proba``) allocates at every
stage: each node's burst materializes an extended column buffer, fresh
prefix sums, a complex signature block, a stacked feature matrix and a
new forest frontier per tree level.  Per tick that is dozens of numpy
allocations *per node* — pure overhead once fleets reach hundreds of
nodes and bursts shrink to serving size.

:class:`TickArena` is the service's only tick path: every buffer the
tick touches is preallocated once at construction (sized by the fleet's
geometry and the maximum burst length), and a steady-state tick runs the
whole pass — gather/sort, min-max normalize, running prefix sums,
windowed value/derivative means, block reduction, feature layout and the
lockstep forest walk — through ``out=`` kernels into those arenas.  A
steady-state tick retains **zero** new numpy memory (asserted by a
tracemalloc regression test) and its transient peak is bounded by a few
index temporaries instead of per-stage matrices.

One kernel absorbs a burst (``TickArena._absorb``).  It is
cache-blocked and time-major: a geometry group's nodes are taken in
tiles of ``T`` nodes whose staging — the running sums followed by the
burst's normalized samples, ``(m + 1, T, n)``, so each time step is
one contiguous row of the tile's sensors — fits ``_TILE_BYTES``, and
each tile runs every step (gather, normalize, derivative rows, ring
refresh, prefix sums, value rows, block reduction, snapshots) while it
is cache-resident, instead of one RAM sweep of the whole group per
step.  ``T`` follows from the burst length, sensor count and dtype: 33
nodes at 30-sample exact bursts of 128 sensors, one node for the store
replayer's 1024-sample partitions (which run as two 512-sample
halves, so one node's staging fits).  All tick scratch is sized per
tile, so it is bounded by the tile budget: it does not grow with the
fleet, nor with ``max_chunk`` beyond the longest sub-burst the budget
admits.

Exactness contract: in the default ``exact`` mode every floating-point
operation replays :class:`~repro.engine.streaming.IncrementalSignatureCore`
(same association order, same tie-breaks), the feature layout replays
:func:`~repro.core.pipeline.signature_features` and the classifier
replays ``_ForestStack.accumulate`` (sequential per-tree adds), so
signatures, labels, confidences and therefore alert streams are
**bit-identical** to the per-node streaming oracle
(:func:`repro.service.detector.detect_naive`).  ``float32`` mode runs
the same pass in single precision (half the state, wider SIMD); its
accuracy cost is measured per scenario in
``benchmarks/test_tick_hotpath.py`` and reported in ``EXPERIMENTS.md``.

The forest walk cannot use ``_ForestStack.apply``'s shrinking frontier
(its compaction allocates per level).  Instead leaves are given
*self-loop* children once at construction and every (sample, tree) pair
walks exactly ``max_depth`` levels in lockstep through preallocated
buffers: pairs that reach their leaf early spin in place, and the final
node array equals ``apply``'s bit for bit.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.engine.streaming import REANCHOR_INTERVAL
from repro.engine.windows import partition_bounds

__all__ = ["SIGNATURE_MODES", "TickArena"]

#: Supported signature computation modes of the arena.
SIGNATURE_MODES = ("exact", "float32")

#: The retained state arrays of one geometry group, in
#: :meth:`TickArena.export_state` order (``load_state`` reads the last
#: three as counts, anchors, emit counts).
_STATE_PARTS = ("ring", "csum", "pending", "counts", "anchors", "emitted")
_STATE_ATTRS = {**{p: p for p in _STATE_PARTS}, "pending": "pending_buf"}

_LEAF = -1

#: Re-anchor interval of float32 mode: single-precision running
#: sums lose absolute accuracy ~2^29 times faster than float64, so the
#: arena re-anchors every 4096 samples (one subtraction per node every
#: ~4k ticks — free) instead of every 2^22.
_F32_REANCHOR_INTERVAL = 1 << 12

#: Byte budget of one node tile's ``(m + 1, T, n)`` staging.  Picked by
#: measurement: a tile this size and its row scratch stay L2-resident
#: through the whole absorb, and 1000-node serving ticks ran fastest
#: here among 256 KiB-4 MiB (see ``EXPERIMENTS.md``).
_TILE_BYTES = 1 << 20

#: Prefix sums run as sequential row adds down the time axis once a
#: tile row holds this many lanes (one ufunc call per sample amortizes
#: over the whole tile); narrower tiles use ``cumsum`` along time.  Both
#: add left to right, so they are bit-identical.  Neither path serves
#: both shapes: at 33 x 128 lanes a cumsum runs 7-15x slower than row
#: adds, while on the store replayer's one-node 512-sample tiles row
#: adds alone cut its throughput by 16% (see ``EXPERIMENTS.md``).
_ROW_ADD_LANES = 256


def _emits_between(t0: int, total: int, wl: int, ws: int) -> range:
    """Starts of the windows that complete while the sample count grows
    from ``t0`` to ``total`` — the closed form of ``WindowPlan.emits_at``
    over ``count = wl + k*ws`` with ``t0 < count <= total``."""
    k_lo = max(0, -(-(t0 + 1 - wl) // ws))
    k_hi = (total - wl) // ws
    return range(k_lo * ws, max(k_lo, k_hi + 1) * ws, ws)


def _open_starts(count: int, wl: int, ws: int) -> range:
    """Starts of the windows open at sample ``count``: begun
    (``start < count``) but not yet complete (``start + wl > count``).
    At most ``ceil(wl / ws)`` of them, in ascending order."""
    return range(max(0, ((count - wl) // ws + 1) * ws), count, ws)


def _ring_runs(t0: int, total: int, size: int) -> list:
    """Where a burst's staged tail lands in the ring: the last ``size``
    samples (all of them for shorter bursts), each at its ``t % size``
    slot, as at most two ``(ring slice, burst slice)`` runs around the
    wrap point.  Later bursts then see exactly the state a chain of
    single-sample pushes would have left."""
    rstart = max(t0, total - size)
    kcols = total - rstart
    p0 = rstart % size
    first = min(size - p0, kcols)
    lo = rstart - t0
    runs = [(slice(p0, p0 + first), slice(lo, lo + first))]
    if kcols > first:
        runs.append((slice(0, kcols - first), slice(lo + first, None)))
    return runs


class _BurstPlan:
    """What one ``m``-sample burst from sample count ``t0`` reads and
    writes — computed once per kernel call and shared by its tiles.

    Staging rows: ``cols[j]`` is sample ``t0 + j`` and ``seq[j]`` the
    running sum after ``t0 + j`` samples.  Emitted windows start
    ``ws`` apart, so the reads of those lying inside the burst are one
    strided slice each (``*_rest``); the few reaching back before it —
    into the ring or the pending snapshots — are read one by one
    (``*_each``).
    """

    __slots__ = (
        "m", "total", "k", "d_each", "d_rest", "v_each", "v_rest",
        "ring_runs", "opens",
    )

    def __init__(self, t0: int, m: int, wl: int, ws: int, size: int):
        total = t0 + m
        emits = _emits_between(t0, total, wl, ws)
        self.m, self.total, self.k = m, total, len(emits)

        def stride(idx: int, first: int):
            return slice(first, first + (self.k - idx - 1) * ws + 1, ws)

        # Derivative rows: the window's last sample minus the sample
        # before its start (the start itself for window 0), ``ref``
        # relative to the burst (negative: still in ring row ``slot``).
        self.d_each = []
        self.d_rest = None
        for idx, s in enumerate(emits):
            if s > t0:
                self.d_rest = (
                    idx, stride(idx, s + wl - 1 - t0), stride(idx, s - 1 - t0)
                )
                break
            ref = s - 1 if s > 0 else s
            self.d_each.append((idx, s + wl - 1 - t0, ref - t0, ref % size))
        # Value rows: the running sum at the window's end minus the one
        # at its start (a pending snapshot for windows begun earlier).
        self.v_each = []
        self.v_rest = None
        for idx, s in enumerate(emits):
            if s >= t0:
                self.v_rest = (idx, stride(idx, s + wl - t0), stride(idx, s - t0))
                break
            self.v_each.append((idx, s + wl - t0, s))
        self.ring_runs = _ring_runs(t0, total, size)
        self.opens = [
            (s, s - t0) for s in _open_starts(total, wl, ws) if s >= t0
        ]


def _all_finite(x: np.ndarray) -> bool:
    """True when ``x`` holds no NaN/Inf value.

    NaN and Inf propagate through a sum, so one reduction clears the
    common case; only a non-finite sum (a bad value, or finite values
    whose sum overflows) pays the elementwise check.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        if np.isfinite(np.add.reduce(x, axis=None)):
            return True
    return bool(np.isfinite(x).all())


def _true_runs(ok: np.ndarray) -> list:
    """``(lo, hi)`` bounds of the runs of True in the boolean ``ok``."""
    edges = np.flatnonzero(np.diff(ok, prepend=False, append=False))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def _view(buf: np.ndarray, *shape: int) -> np.ndarray:
    """A C-contiguous ``shape`` view over the front of the flat ``buf``."""
    return buf[: math.prod(shape)].reshape(shape)


class _ForestWorkspace:
    """Preallocated lockstep forest evaluation over a fitted stack.

    Leaf nodes get self-loop children (and feature index 0) so the walk
    needs no frontier compaction: every (sample, tree) pair advances
    ``depth`` levels through fixed buffers and lands on the same leaf
    ``_ForestStack.apply`` finds.  Accumulation then replays the
    sequential per-tree adds of ``accumulate`` bit for bit.
    """

    def __init__(self, forest, n_features: int):
        stack = forest._stack
        if stack is None:
            raise ValueError("forest is not fitted")
        self.n_trees = stack.n_trees
        self.base = stack.base
        self.values = stack.values
        self.classes = np.asarray(forest.classes_)
        self.threshold = stack.threshold
        self.n_features = int(n_features)
        leaf = stack.feature == _LEAF
        nodes = np.arange(stack.feature.shape[0], dtype=np.intp)
        self.leaf_mask = leaf
        self.feat_safe = np.where(leaf, 0, stack.feature)
        self.left_loop = np.where(leaf, nodes, stack.left)
        self.right_loop = np.where(leaf, nodes, stack.right)
        # Levels needed so every root-to-leaf walk completes (a pure
        # leaf forest needs zero).
        depth = 0
        frontier = self.base[stack.feature[self.base] != _LEAF]
        while frontier.size:
            depth += 1
            children = np.concatenate(
                [self.left_loop[frontier], self.right_loop[frontier]]
            )
            frontier = children[stack.feature[children] != _LEAF]
        self.depth = depth
        self._capacity = 0

    def resize(self, capacity: int, dtype) -> None:
        """(Re)allocate walk buffers for up to ``capacity`` samples."""
        if capacity <= self._capacity:
            return
        n = capacity * self.n_trees
        self._capacity = capacity
        self._cur = np.empty(n, dtype=np.intp)
        self._nl = np.empty(n, dtype=np.intp)
        self._nr = np.empty(n, dtype=np.intp)
        self._f = np.empty(n, dtype=np.intp)
        self._xv = np.empty(n, dtype=dtype)
        self._thr = np.empty(n, dtype=np.float64)
        self._gl = np.empty(n, dtype=bool)
        self._row_off = np.repeat(
            np.arange(capacity, dtype=np.intp) * self.n_features,
            self.n_trees,
        )
        self._acc = np.empty((capacity, self.values.shape[1]))
        self._scr = np.empty((capacity, self.values.shape[1]))
        self._raw = np.empty(capacity, dtype=np.intp)

    def nbytes(self) -> int:
        if self._capacity == 0:
            return 0
        return sum(
            b.nbytes
            for b in (
                self._cur, self._nl, self._nr, self._f, self._xv,
                self._thr, self._gl, self._row_off, self._acc, self._scr,
                self._raw,
            )
        )

    def classify_into(
        self,
        X: np.ndarray,
        labels: np.ndarray,
        conf: np.ndarray,
    ) -> None:
        """Fill ``labels[:k]``/``conf[:k]`` for the ``k`` rows of ``X``.

        Bit-identical to ``classes_[argmax(p, 1)]`` / ``p.max(1)`` with
        ``p = _ForestStack.accumulate(X) / n_trees``.
        """
        k = X.shape[0]
        if k == 0:
            return
        N = k * self.n_trees
        cur, nl, nr = self._cur, self._nl, self._nr
        c = cur[:N].reshape(k, self.n_trees)
        c[:] = self.base
        f, xv = self._f[:N], self._xv[:N]
        thr, gl = self._thr[:N], self._gl[:N]
        xb = self._row_off[:N]
        x_flat = X.reshape(-1)
        cv = cur[:N]
        act = cur_a = xb_a = None
        for _ in range(self.depth):
            if act is None:
                # Full-width levels: every lane steps in place.  Leaves
                # self-loop, so finished lanes are no-ops — but past the
                # forest's typical depth most lanes ARE finished, and
                # full-width passes pay for all of them.
                self.leaf_mask.take(cv, out=gl)
                n_act = N - np.count_nonzero(gl)
                if n_act == 0:
                    break
                if n_act * 2 > N:
                    self.feat_safe.take(cv, out=f)
                    np.add(f, xb, out=f)
                    x_flat.take(f, out=xv)
                    self.threshold.take(cv, out=thr)
                    np.less_equal(xv, thr, out=gl)
                    self.left_loop.take(cv, out=nl[:N])
                    self.right_loop.take(cv, out=nr[:N])
                    np.copyto(nr[:N], nl[:N], where=gl)
                    cur, nr = nr, cur
                    cv = cur[:N]
                    continue
                # Under half the lanes still walking: switch to a
                # compacted active set — the deep tail of the walk
                # costs per *active* lane, not per lane.  The walk
                # itself is unchanged (same nodes, same comparisons),
                # so the leaves — and everything downstream — are
                # identical.
                act = np.flatnonzero(~gl)
                cur_a = cv[act]
                xb_a = xb[act]
            f_a = self.feat_safe[cur_a]
            np.add(f_a, xb_a, out=f_a)
            gle = x_flat[f_a] <= self.threshold[cur_a]
            step = self.right_loop[cur_a]
            np.copyto(step, self.left_loop[cur_a], where=gle)
            cur_a = step
            done = self.leaf_mask[cur_a]
            if done.any():
                cv[act[done]] = cur_a[done]
                keep = ~done
                act = act[keep]
                cur_a = cur_a[keep]
                xb_a = xb_a[keep]
                if act.size == 0:
                    break
        self._cur, self._nl, self._nr = cur, nl, nr
        leaves = cur[:N].reshape(k, self.n_trees)
        acc, scr = self._acc[:k], self._scr[:k]
        acc[...] = 0.0
        for t in range(self.n_trees):
            self.values.take(leaves[:, t], axis=0, out=scr)
            np.add(acc, scr, out=acc)
        np.divide(acc, self.n_trees, out=acc)
        raw = self._raw[:k]
        np.argmax(acc, axis=1, out=raw)
        self.classes.take(raw, out=labels[:k])
        np.max(acc, axis=1, out=conf[:k])


class _GroupState:
    """Arena of one geometry group: all nodes sharing a sensor count.

    State is stacked node-major and sensor-innermost — ``(c, ..., n)``:
    the ring is ``(c, wl + 1, n)``, so every time step of a node is one
    contiguous row of ``n`` sensors, and each kernel step below is the
    batched twin of one line of ``IncrementalSignatureCore._absorb``
    running over whole rows.  Each node keeps its own sample count and
    re-anchor point.  Pending window snapshots are addressed by window
    start (:meth:`pending`), so a node's pending set follows from its
    count alone: nodes with equal counts and anchors share one batched
    kernel call, whatever ragged ticks came before.

    Tick scratch is flat and sized for one node *tile* (:meth:`tile`),
    not for the group: a kernel call views the front of each buffer in
    the shape its tile needs, so the scratch bytes are bounded by the
    tile budget, whatever the group size and ``max_m``.
    """

    def __init__(self, paths, models, l, wl, ws, max_m, dtype):
        self.paths = list(paths)
        c = len(self.paths)
        n = models[0].n_sensors
        self.c, self.n, self.l = c, n, int(l)
        self.wl, self.ws = int(wl), int(ws)
        self.size = self.wl + 1
        self.exact = dtype == np.float64
        self.dtype = dtype
        self.itemsize = np.dtype(dtype).itemsize
        self.tile_bytes = _TILE_BYTES
        #: Longest sub-burst one kernel call takes: ``max_m``, capped so
        #: one node's ``(m + 1, n)`` staging fits the tile budget.
        self.max_m = max(
            1, min(int(max_m), self.tile_bytes // (n * self.itemsize) - 1)
        )
        self.bstarts, self.bends = partition_bounds(n, self.l)
        self.widths = (self.bends - self.bstarts).astype(np.float64)
        if dtype != np.float64:
            self.widths = self.widths.astype(dtype)
        # Per-node model parameters, permuted row order (cf.
        # IncrementalSignatureCore.__init__).
        self.perm = np.empty((c, n), dtype=np.intp)
        self.lower = np.empty((c, n), dtype=dtype)
        span = np.empty((c, n), dtype=np.float64)
        for j, model in enumerate(models):
            perm = model.permutation
            self.perm[j] = perm
            lo = model.lower[perm]
            self.lower[j] = lo
            span[j] = model.upper[perm] - lo
        degenerate = span <= 0.0
        self.deg_mask = degenerate
        self.deg_any = bool(degenerate.any())
        self.span = np.where(degenerate, 1.0, span).astype(dtype)
        # Retained per-node streaming state.  The ring stores the last
        # ``wl + 1`` normalized samples at row ``t % size`` (the
        # streaming core's ring, transposed): a tick writes only its new
        # rows and derivative references read single rows — no
        # chronological tail is ever materialized.
        self.ring = np.zeros((c, self.size, n), dtype=dtype)
        self.csum = np.zeros((c, n), dtype=dtype)
        self.counts = np.zeros(c, dtype=np.int64)
        self.anchors = np.zeros(c, dtype=np.int64)
        self.emitted = np.zeros(c, dtype=np.int64)
        #: Pending running-sum snapshots, one per open window: the
        #: window starting at ``s`` keeps its snapshot in slot
        #: ``(s // ws) % P``.  The open starts are consecutive multiples
        #: of ``ws`` in ``(count - wl, count)`` — at most ``ceil(wl/ws)``
        #: of them, so with ``P`` slots they never share one, and a slot
        #: is always rewritten before it is read again.
        self.P = -(-self.wl // self.ws) + 2
        self.pending_buf = np.empty((c, self.P, n), dtype=dtype)
        # Tick scratch (content never survives a tick), flat, sized for
        # the largest tile any burst up to ``max_m`` samples takes:
        # ``seq`` stages the running sum and the normalized samples,
        # ``rows``/``drows`` the value and derivative row means (the
        # latter are read off the staged samples *before* the in-place
        # prefix sums overwrite them, so they need their own landing
        # area), ``psum``/``sig``/``sig2`` the block reduction.
        cap = dict.fromkeys(("seq", "rows", "psum", "sig", "tile"), 0)
        for m in range(1, self.max_m + 1):
            t, k = self.tile(m), m // self.ws + 1
            cap["seq"] = max(cap["seq"], t * (m + 1) * n)
            cap["rows"] = max(cap["rows"], t * k * n)
            cap["psum"] = max(cap["psum"], t * k * (n + 1))
            cap["sig"] = max(cap["sig"], t * k * self.l)
            cap["tile"] = max(cap["tile"], t)
        self.seq = np.empty(cap["seq"], dtype=dtype)
        self.rows = np.empty(cap["rows"], dtype=dtype)
        self.drows = np.empty(cap["rows"], dtype=dtype)
        self.psum = np.empty(cap["psum"], dtype=dtype)
        self.sig = np.empty(cap["sig"], dtype=dtype)
        self.sig2 = np.empty(cap["sig"], dtype=dtype)
        self.base_scratch = np.empty(cap["tile"] * n, dtype=dtype)
        #: One node's gathered float64 burst, for the sources the
        #: gather cannot land in ``seq`` directly: row-major blocks
        #: (transposed on the copy in), float32 gathers (rounded once
        #: on the copy in) and store planes bound for a strided tile row.
        self.stage = np.empty(self.max_m * n)
        # Pre-fault the scratches once at build time, not inside the
        # first tick.
        self.pending_buf.fill(0)
        for scratch in self.scratches():
            scratch.fill(0)

    def tile(self, m: int) -> int:
        """Nodes per tile for ``m``-sample bursts: as many as fit one
        ``(m + 1, n)`` staging each in the tile budget (at least one,
        at most the group)."""
        per_node = (m + 1) * self.n * self.itemsize
        return max(1, min(self.c, self.tile_bytes // per_node))

    def scratches(self) -> list:
        """Every tick scratch buffer (content never survives a tick)."""
        return [
            self.seq, self.rows, self.drows, self.psum, self.sig,
            self.sig2, self.base_scratch, self.stage,
        ]

    def pending(self, nodes, start) -> np.ndarray:
        """Snapshot slot of window ``start`` for ``nodes`` (a node index
        or a slice of them): a view, or a copy when ``start`` is an
        array of starts."""
        return self.pending_buf[nodes, (start // self.ws) % self.P, :]

    def state_nbytes(self) -> int:
        """Retained (non-scratch) bytes of the whole group."""
        return (
            self.ring.nbytes + self.csum.nbytes + self.pending_buf.nbytes
            + self.perm.nbytes + self.lower.nbytes + self.span.nbytes
            + self.deg_mask.nbytes + self.counts.nbytes
            + self.anchors.nbytes + self.emitted.nbytes
        )

    def scratch_nbytes(self) -> int:
        return sum(b.nbytes for b in self.scratches())


class TickArena:
    """Preallocated fused tick path for a trained fleet.

    Parameters
    ----------
    engine:
        The trained :class:`~repro.engine.fleet.FleetSignatureEngine`
        (one CS model per node).  Every node must resolve to the same
        signature length ``l`` — the service classifier requires equal
        feature lengths anyway.
    forest:
        The fitted shared :class:`~repro.ml.forest.RandomForestClassifier`.
    mode:
        ``"exact"`` (float64, bit-identical to the streaming core) or
        ``"float32"``.
    max_chunk:
        Largest burst length the arenas are sized for; longer bursts are
        split into ``max_chunk`` sub-bursts, which is output-identical
        (``push_block`` composes exactly).  Serving loops keep the
        default, the store replayer passes its partition/block size so
        whole recorded partitions absorb in as few passes as the tile
        budget allows: a sub-burst is also capped so one node's
        ``(m + 1, n)`` staging fits it (1023 exact samples of 128
        sensors; a 1024-sample partition runs as two halves).  Tick
        scratch is sized per node tile, so it is bounded by the tile
        budget: it does not grow with the fleet, nor with
        ``max_chunk`` beyond that sub-burst cap.
    paths:
        Optional subset of the engine's nodes; defaults to all of them.

    A tick feeds each geometry group in one batched kernel call when
    every node brings one burst length from one sample count and one
    re-anchor point, and node by node otherwise — bit-identical either
    way, so a group that re-aligns after ragged ticks batches again.

    Setting :attr:`reject_nonfinite` makes :meth:`tick` skip every
    node whose burst holds a NaN/Inf value — that node's state stays
    untouched — and list it in :attr:`nonfinite`.  Exact bursts up to
    ``max_chunk`` are checked on the gathered samples, one reduction
    per node tile; longer or float32 bursts are checked on the input.
    """

    #: Skip (instead of absorbing) bursts that hold NaN/Inf values.
    reject_nonfinite = False

    def __init__(
        self,
        engine,
        forest,
        *,
        mode: str = "exact",
        max_chunk: int = 256,
        paths=None,
    ):
        if mode not in SIGNATURE_MODES:
            raise ValueError(
                f"unknown signature mode {mode!r}; pick one of "
                f"{SIGNATURE_MODES}"
            )
        if max_chunk < 1:
            raise ValueError("max_chunk must be >= 1")
        self.mode = mode
        self.dtype = np.float64 if mode == "exact" else np.float32
        self.max_chunk = int(max_chunk)
        self.wl, self.ws = int(engine.wl), int(engine.ws)
        self._reanchor_every = (
            REANCHOR_INTERVAL if mode == "exact" else _F32_REANCHOR_INTERVAL
        )
        wanted = sorted(paths) if paths is not None else engine.paths
        missing = [p for p in wanted if p not in engine]
        if missing:
            raise KeyError(f"no model fitted for node(s) {missing!r}")
        if not wanted:
            raise ValueError("the arena needs at least one node")
        lengths = {engine.signature_length(p) for p in wanted}
        if len(lengths) != 1:
            raise ValueError(
                "the tick arena needs one signature length across "
                f"the fleet, got {sorted(lengths)}"
            )
        self.blocks = lengths.pop()
        self.n_features = 2 * self.blocks
        # Group nodes by sensor count (same l everywhere already).
        by_n: dict[int, list[str]] = {}
        for p in wanted:
            by_n.setdefault(engine.model(p).n_sensors, []).append(p)
        self.groups = [
            _GroupState(
                ps,
                [engine.model(p) for p in ps],
                self.blocks,
                self.wl,
                self.ws,
                self.max_chunk,
                self.dtype,
            )
            for _, ps in sorted(by_n.items())
        ]
        #: path -> (group, index inside the group)
        self._node: dict[str, tuple[_GroupState, int]] = {}
        for g in self.groups:
            for i, p in enumerate(g.paths):
                self._node[p] = (g, i)
        self.paths = list(wanted)
        self._forest_ws = _ForestWorkspace(forest, self.n_features)
        per_tick = self.max_chunk // self.ws + 1
        self._capacity = 0
        self._ensure_capacity(max(1, len(wanted) * per_tick))
        self._assigned: dict[str, tuple[int, int]] = {}
        #: Nodes the last tick skipped for NaN/Inf values (only with
        #: :attr:`reject_nonfinite` set), in sorted order.
        self.nonfinite: list[str] = []

    # ------------------------------------------------------------------
    def _ensure_capacity(self, k: int) -> None:
        """Size the emit-row buffers for ``k`` signatures per tick.

        Only grows (amortized doubling); a steady-state tick never
        enters the allocation branch.
        """
        if k <= self._capacity:
            return
        k = max(k, 2 * self._capacity)
        self._capacity = k
        self._feat = np.empty((k, self.n_features), dtype=self.dtype)
        self._labels = np.empty(k, dtype=np.intp)
        self._conf = np.empty(k, dtype=np.float64)
        self._forest_ws.resize(k, self.dtype)

    # ------------------------------------------------------------------
    def counts(self, path: str) -> int:
        """Samples absorbed so far for one node."""
        g, i = self._node[path]
        return int(g.counts[i])

    def emitted(self, path: str) -> int:
        """Signatures emitted so far for one node."""
        g, i = self._node[path]
        return int(g.emitted[i])

    def signature(self, row: int) -> np.ndarray:
        """Complex signature of one emit row of the *last* tick.

        Exact mode reconstructs the streaming core's signature bit for
        bit (the feature layout is lossless ``[real | imag]``); float32
        mode returns what the classifier actually saw.
        """
        f = self._feat[row]
        sig = np.empty(self.blocks, dtype=np.complex128)
        sig.real = f[: self.blocks]
        sig.imag = f[self.blocks :]
        return sig

    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, np.ndarray]:
        """Every group's retained streaming state, array by array.

        Member ``g{j}_{part}`` is group ``j``'s whole ``part`` array
        (``_STATE_PARTS``): ring, running sums, pending snapshot
        slots, and per-node counts, re-anchor points and emit counts.
        The arrays are the arena's own (no copy): write them out before
        the next tick changes them.
        """
        return {
            f"g{j}_{part}": getattr(g, _STATE_ATTRS[part])
            for j, g in enumerate(self.groups)
            for part in _STATE_PARTS
        }

    def load_state(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Restore an :meth:`export_state` snapshot into every group.

        Everything is checked before anything is written: a missing
        member raises ``KeyError``; a shape that does not fit, or
        counts, re-anchor points and emit counts no run can produce,
        raise ``ValueError``.  Nothing about batching is restored: the
        next tick batches whichever nodes share a count and anchor.
        """
        staged = []
        for j, g in enumerate(self.groups):
            for part in _STATE_PARTS:
                target = getattr(g, _STATE_ATTRS[part])
                value = np.asarray(arrays[f"g{j}_{part}"], dtype=target.dtype)
                if value.shape != target.shape:
                    raise ValueError(
                        f"group {j} {part} shape {value.shape} does not "
                        f"match {target.shape}"
                    )
                staged.append((target, value))
            counts, anchors, emitted = (v for _, v in staged[-3:])
            if ((anchors < 0) | (anchors > counts)).any():
                raise ValueError(f"group {j}: re-anchor points outside [0, count]")
            # A node has emitted exactly the windows complete at its count.
            if not np.array_equal(
                emitted, np.maximum(0, (counts - g.wl) // g.ws + 1)
            ):
                raise ValueError(
                    f"group {j}: emit counts are not the windows complete "
                    "at the sample counts"
                )
        for target, value in staged:
            target[...] = value

    # ------------------------------------------------------------------
    def tick(self, data: Mapping[str, np.ndarray]):
        """Absorb one burst per node; classify everything the fleet emits.

        Returns ``[(path, labels, confidences, row0), ...]`` in sorted
        path order, where ``labels``/``confidences`` are views of the
        arena's per-tick buffers (consume before the next tick) and
        ``row0`` keys :meth:`signature` for alert attribution.
        """
        order = sorted(data)
        missing = [p for p in order if p not in self._node]
        if missing:
            raise KeyError(f"unknown node path(s) {missing!r}")
        nonfinite = self.nonfinite
        nonfinite.clear()
        blocks: dict[str, np.ndarray] = {}
        for p in order:
            B = np.asarray(data[p], dtype=np.float64)
            g, _ = self._node[p]
            if B.ndim != 2 or B.shape[0] != g.n:
                raise ValueError(
                    f"block shape {B.shape} does not match ({g.n}, m) "
                    f"layout for node {p!r}"
                )
            if not B.shape[1]:
                continue
            # Exact bursts the kernel absorbs in one call are checked
            # there, tile by tile on the gathered samples; the rest,
            # float32 bursts included, here on the input.
            if (
                self.reject_nonfinite
                and (not g.exact or B.shape[1] > g.max_m)
                and not _all_finite(B)
            ):
                nonfinite.append(p)
                continue
            blocks[p] = B
        # Plan this tick's emit rows before touching any state: one
        # count per batched group (its nodes share it), one per node
        # otherwise.
        plans = []
        for g in self.groups:
            present = [
                (i, p) for i, p in enumerate(g.paths) if p in blocks
            ]
            if not present:
                continue
            m = blocks[present[0][1]].shape[1]
            # One batched call when every node brings one burst length
            # from one count and one anchor; otherwise node by node.
            batched = (
                len(present) == g.c
                and all(blocks[p].shape[1] == m for _, p in present)
                and g.counts.min() == g.counts.max()
                and g.anchors.min() == g.anchors.max()
            )
            if batched:
                t0 = int(g.counts[0])
                ks = [len(_emits_between(t0, t0 + m, self.wl, self.ws))] * g.c
            else:
                ks = [
                    len(_emits_between(
                        int(g.counts[i]), int(g.counts[i]) + blocks[p].shape[1],
                        self.wl, self.ws,
                    ))
                    for i, p in present
                ]
            plans.append((g, present, batched, ks))
        self._ensure_capacity(sum(sum(ks) for *_, ks in plans))
        assigned = self._assigned
        assigned.clear()
        feat2 = self._feat
        row = 0
        for g, present, batched, ks in plans:
            if batched:
                k_tick = ks[0]
                hi = row + g.c * k_tick
                bad = self._feed(
                    g,
                    slice(0, g.c),
                    [blocks[p] for _, p in present],
                    feat2[row:hi].reshape(g.c, k_tick, self.n_features),
                )
                # A refused node's rows are classified with the rest
                # but never handed out.
                nonfinite.extend(bad)
                for i, p in present:
                    if p not in bad:
                        assigned[p] = (row + i * k_tick, k_tick)
                row = hi
                continue
            for (i, p), k_i in zip(present, ks):
                hi = row + k_i
                if self._feed(
                    g,
                    slice(i, i + 1),
                    [blocks[p]],
                    feat2[row:hi].reshape(1, k_i, self.n_features),
                ):
                    nonfinite.append(p)
                    continue
                assigned[p] = (row, k_i)
                row = hi
        nonfinite.sort()
        if row:
            self._forest_ws.classify_into(
                feat2[:row], self._labels, self._conf
            )
        out = []
        for p in order:
            r0, k = assigned.get(p, (0, 0))
            out.append(
                (p, self._labels[r0 : r0 + k], self._conf[r0 : r0 + k], r0)
            )
        return out

    # ------------------------------------------------------------------
    def _feed(self, g, sl, node_blocks, feat3) -> list:
        """Absorb one burst per node of ``sl`` into the emit rows
        ``feat3`` (every node at one count and one anchor); return the
        paths refused for NaN/Inf values, in node order.

        Bursts longer than ``g.max_m`` run as consecutive sub-bursts
        (``push_block`` composes exactly).  With :attr:`reject_nonfinite`
        set, exact bursts that fit one kernel call are screened there,
        tile by tile; the rest were screened on input by :meth:`tick`.
        """
        m = node_blocks[0].shape[1]
        screen = self.reject_nonfinite and g.exact and m <= g.max_m
        bad: list | None = [] if screen else None
        # Equal sub-bursts: a 1024-sample burst over a 1023-sample cap
        # runs as 512 + 512, not 1023 + 1.
        parts = -(-m // g.max_m)
        step = -(-m // parts)
        off = 0
        for lo in range(0, m, step):
            sub = [B[:, lo : lo + step] for B in node_blocks]
            off += self._absorb(g, sl, sub, feat3, off, bad)
        return bad or []

    def _advance(self, g, sl, total: int) -> None:
        """Step the nodes ``sl`` to ``total`` samples and periodically
        re-anchor: subtract the running sum from itself and from every
        snapshot slot (the streaming core's ``_reanchor``; stale slots
        shift harmlessly, they are rewritten before they are read)."""
        g.counts[sl] = total
        if total - int(g.anchors[sl.start]) >= self._reanchor_every:
            base = _view(g.base_scratch, sl.stop - sl.start, g.n)
            base[...] = g.csum[sl]
            np.subtract(g.csum[sl], base, out=g.csum[sl])
            snaps = g.pending_buf[sl]
            np.subtract(snaps, base[:, None, :], out=snaps)
            g.anchors[sl] = total

    def _absorb(self, g, sl, node_blocks, feat3, off, bad) -> int:
        """One fused sub-burst (up to ``g.max_m`` samples) for the nodes
        ``sl`` of group ``g``, one cache-resident node tile at a time.

        Each tile of ``g.tile(m)`` nodes is gathered behind its running
        sums into the ``seq`` scratch, then runs every remaining step
        (:meth:`_sweep`) before the next tile is gathered.  With ``bad``
        a list, each tile is screened right after its gather, before
        anything retained changes: nodes holding a NaN/Inf value are
        appended to ``bad`` and left untouched, and the tile's clean
        runs are swept as sub-slices — every step is per node, so that
        is bit-identical to sweeping them in any other grouping.
        Returns the number of signatures emitted per node.
        """
        m = node_blocks[0].shape[1]
        plan = _BurstPlan(int(g.counts[sl.start]), m, g.wl, g.ws, g.size)
        tile = g.tile(m)
        for lo in range(sl.start, sl.stop, tile):
            hi = min(lo + tile, sl.stop)
            rel = lo - sl.start
            # 1. Gather into sorted row order behind the running sums:
            #    ``seq[t]`` holds sample row ``t - 1`` of every node of
            #    the tile, sensors innermost.
            seq = _view(g.seq, m + 1, hi - lo, g.n)
            seq[0] = g.csum[lo:hi]
            for j in range(hi - lo):
                self._gather(g, node_blocks[rel + j], g.perm[lo + j], seq[1:, j])
            runs = [(0, hi - lo)]
            if bad is not None and not _all_finite(seq):
                ok = np.isfinite(seq[1:]).all(axis=(0, 2))
                bad.extend(p for p, good in zip(g.paths[lo:hi], ok) if not good)
                runs = _true_runs(ok)
            for a, b in runs:
                self._sweep(
                    g, slice(lo + a, lo + b), seq[:, a:b],
                    feat3[rel + a : rel + b, off : off + plan.k], plan,
                )
        return plan.k

    @staticmethod
    def _gather(g, B, perm, dst) -> None:
        """Land one node's ``(n, m)`` burst in ``dst`` (``(m, n)``),
        sensor rows in ``perm`` order."""
        m = B.shape[1]
        if B.flags.f_contiguous:
            # Store planes are column-major, so their transpose is
            # C-contiguous time-major: the take reads whole sample rows.
            if g.exact and dst.flags.c_contiguous:
                B.T.take(perm, axis=1, out=dst, mode="clip")
                return
            src = _view(g.stage, m, g.n)
            B.T.take(perm, axis=1, out=src, mode="clip")
        else:
            src = _view(g.stage, g.n, m)
            B.take(perm, axis=0, out=src, mode="clip")
            src = src.T
        dst[...] = src

    def _sweep(self, g, rs, seq, feat, plan) -> None:
        """Steps 2-8 of one sub-burst for the nodes ``rs``: their staged
        running sums and samples ``seq`` (``(m + 1, nodes, n)``) and
        their emit rows ``feat`` (``(nodes, k, 2 l)``).

        The batched twin of ``IncrementalSignatureCore._absorb``: every
        numbered step mirrors one of its operations in the same
        floating-point association order, into preallocated buffers,
        over whole sample rows of the tile.
        """
        nt = rs.stop - rs.start
        cols = seq[1:]
        k = plan.k
        # 2. Min-max normalize in place (the batched _normalize):
        #    subtract, divide, degenerate rows to 0.5, clip.
        np.subtract(cols, g.lower[rs], out=cols)
        np.divide(cols, g.span[rs], out=cols)
        if g.deg_any:
            np.copyto(cols, 0.5, where=g.deg_mask[rs])
        cols.clip(0.0, 1.0, out=cols)
        # 3. Derivative rows need the raw normalized samples, which the
        #    in-place prefix sums of step 5 overwrite; references
        #    predating this burst still sit untouched in the ring
        #    (refreshed only in step 4).
        if k:
            drows = _view(g.drows, k, nt, g.n)
            for idx, last, ref, slot in plan.d_each:
                ref_row = cols[ref] if ref >= 0 else g.ring[rs, slot]
                np.subtract(cols[last], ref_row, out=drows[idx])
            if plan.d_rest is not None:
                i0, lasts, refs = plan.d_rest
                np.subtract(cols[lasts], cols[refs], out=drows[i0:])
            np.divide(drows, g.wl, out=drows)
        # 4. Ring refresh from the staged tail.
        for ring_run, burst_run in plan.ring_runs:
            g.ring[rs, ring_run] = cols[burst_run].transpose(1, 0, 2)
        # 5. Sequential prefix sums continuing the running sum, in place
        #    (same left-to-right association as repeated push()): one
        #    add per sample row across the tile, or a cumsum down the
        #    time axis when the rows are too narrow to amortize a call
        #    each.
        if nt * g.n >= _ROW_ADD_LANES:
            prev = seq[0]
            for cur in seq[1:]:
                np.add(prev, cur, out=cur)
                prev = cur
        else:
            np.cumsum(seq, axis=0, out=seq)
        # 6. Emits due inside this sub-burst: value means from the
        #    prefix sums (windows opened before the burst read their
        #    snapshot slot), then both row sets reduce into the features.
        if k:
            rows = _view(g.rows, k, nt, g.n)
            for idx, end, s in plan.v_each:
                np.subtract(seq[end], g.pending(rs, s), out=rows[idx])
            if plan.v_rest is not None:
                i0, ends, starts = plan.v_rest
                np.subtract(seq[ends], seq[starts], out=rows[i0:])
            np.divide(rows, g.wl, out=rows)
            feat_k = feat.transpose(1, 0, 2)
            self._reduce(g, rows, feat_k[:, :, : g.l])
            self._reduce(g, drows, feat_k[:, :, g.l :])
            g.emitted[rs] += k
        # 7. Snapshot the windows this burst opened and leaves open
        #    (every pending read of step 6 is done).
        for s, idx in plan.opens:
            g.pending(rs, s)[...] = seq[idx]
        # 8. Advance retained state: running sum, counts, periodic
        #    re-anchor (the ring is already current after step 4).
        g.csum[rs] = seq[plan.m]
        self._advance(g, rs, plan.total)

    @staticmethod
    def _reduce(g, rows, out) -> None:
        """Block reduction (the batched ``segment_means``) of ``rows``
        (``(k, nodes, n)``) into ``out`` (``(k, nodes, l)``)."""
        k, nt = rows.shape[:2]
        ps = _view(g.psum, k, nt, g.n + 1)
        ps[:, :, 0] = 0.0
        np.cumsum(rows, axis=2, out=ps[:, :, 1:])
        hi = _view(g.sig, k, nt, g.l)
        lo = _view(g.sig2, k, nt, g.l)
        ps.take(g.bends, axis=2, out=hi, mode="clip")
        ps.take(g.bstarts, axis=2, out=lo, mode="clip")
        np.subtract(hi, lo, out=out)
        np.divide(out, g.widths, out=out)

    # ------------------------------------------------------------------
    def memory_report(self) -> dict:
        """Bytes the arena retains and scratches, per node and total.

        ``per_node_state_bytes`` is the retained streaming state one
        node costs (ring tail, running sum, pending snapshots, model
        rows); ``per_node_total_bytes`` divides *everything* — state,
        tick scratch, feature/classifier workspaces — across the fleet,
        i.e. the honest "how many nodes fit in this container" number.
        """
        n_nodes = len(self.paths)
        state = sum(g.state_nbytes() for g in self.groups)
        scratch = sum(g.scratch_nbytes() for g in self.groups)
        classify = (
            self._feat.nbytes
            + self._labels.nbytes
            + self._conf.nbytes
            + self._forest_ws.nbytes()
        )
        total = state + scratch + classify
        return {
            "mode": self.mode,
            "nodes": n_nodes,
            "state_bytes": int(state),
            "scratch_bytes": int(scratch),
            "classifier_bytes": int(classify),
            "total_bytes": int(total),
            "per_node_state_bytes": int(round(state / n_nodes)),
            "per_node_total_bytes": int(round(total / n_nodes)),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TickArena(nodes={len(self.paths)}, mode={self.mode!r}, "
            f"blocks={self.blocks}, wl={self.wl}, ws={self.ws}, "
            f"max_chunk={self.max_chunk})"
        )
