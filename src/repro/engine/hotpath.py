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

Two kernels absorb a burst.  The group kernel (``TickArena._absorb``)
stages a whole geometry group's normalized columns behind its running
sums and sweeps them together; it takes every float32 burst and every
exact burst up to the ``wl + 1``-column ring.  Longer exact bursts —
the store replayer's whole partitions — take a time-major kernel that
walks one node at a time while its burst is cache-resident
(``TickArena._absorb_block``).

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

from typing import Mapping

import numpy as np

from repro.engine.streaming import REANCHOR_INTERVAL
from repro.engine.windows import partition_bounds

__all__ = ["SIGNATURE_MODES", "TickArena"]

#: Supported signature computation modes of the arena.
SIGNATURE_MODES = ("exact", "float32")

_LEAF = -1

#: Re-anchor interval of float32 mode: single-precision running
#: sums lose absolute accuracy ~2^29 times faster than float64, so the
#: arena re-anchors every 4096 samples (one subtraction per node every
#: ~4k ticks — free) instead of every 2^22.
_F32_REANCHOR_INTERVAL = 1 << 12


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
    columns (all of them for shorter bursts), each at its ``t % size``
    slot, as at most two ``(ring slice, burst slice)`` runs around the
    wrap point.  Later bursts then see exactly the state a chain of
    single-column pushes would have left."""
    rstart = max(t0, total - size)
    kcols = total - rstart
    p0 = rstart % size
    first = min(size - p0, kcols)
    lo = rstart - t0
    runs = [(slice(p0, p0 + first), slice(lo, lo + first))]
    if kcols > first:
        runs.append((slice(0, kcols - first), slice(lo + first, None)))
    return runs


class _NonFinite(Exception):
    """A fused sub-burst held NaN/Inf values; nothing retained changed."""

    def __init__(self, paths):
        super().__init__(paths)
        self.paths = list(paths)


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


def _check_finite(seq: np.ndarray, cols: np.ndarray, paths) -> None:
    """Raise :class:`_NonFinite` naming the nodes whose gathered columns
    ``cols`` (a view into the contiguous ``seq``, whose first column is
    the finite running sum) hold a NaN/Inf value."""
    if _all_finite(seq):
        return
    bad = ~np.isfinite(cols).all(axis=(1, 2))
    if bad.any():
        raise _NonFinite(p for p, b in zip(paths, bad) if b)


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

    State is stacked column-major ``(c, n, ...)`` — node, sensor row,
    time — the same shape ``IncrementalSignatureCore._absorb`` works
    in, so every kernel below is the batched twin of one of its lines.
    Each node keeps its own sample count and re-anchor point.  Pending
    window snapshots are addressed by window start (:meth:`pending`),
    so a node's pending set follows from its count alone: nodes with
    equal counts and anchors share one batched kernel call, whatever
    ragged ticks came before.
    """

    def __init__(self, paths, models, l, wl, ws, max_m, dtype):
        self.paths = list(paths)
        c = len(self.paths)
        n = models[0].n_sensors
        self.c, self.n, self.l = c, n, int(l)
        self.wl, self.ws = int(wl), int(ws)
        self.size = self.wl + 1
        self.max_m = int(max_m)
        #: Exact arenas absorb bursts longer than the ring in the
        #: time-major :meth:`TickArena._absorb_block` kernel; float32
        #: arenas run every burst through the group kernel.
        self.exact = dtype == np.float64
        #: Longest burst the group kernel absorbs in exact mode — the
        #: bursts :meth:`TickArena.tick` can check after the gather.
        self.check_max = min(self.size, self.max_m)
        self.dtype = dtype
        self.bstarts, self.bends = partition_bounds(n, self.l)
        self.widths = (self.bends - self.bstarts).astype(np.float64)
        if dtype != np.float64:
            self.widths = self.widths.astype(dtype)
        # Per-node model parameters, permuted row order (cf.
        # IncrementalSignatureCore.__init__).
        self.perm = np.empty((c, n), dtype=np.intp)
        self.lower = np.empty((c, n, 1), dtype=dtype)
        span = np.empty((c, n), dtype=np.float64)
        for j, model in enumerate(models):
            perm = model.permutation
            self.perm[j] = perm
            lo = model.lower[perm]
            self.lower[j, :, 0] = lo
            span[j] = model.upper[perm] - lo
        degenerate = span <= 0.0
        self.deg_mask = degenerate[:, :, None]
        self.deg_any = bool(degenerate.any())
        self.span = np.where(degenerate, 1.0, span).astype(dtype)[:, :, None]
        # Retained per-node streaming state.  The ring stores the last
        # ``wl + 1`` normalized columns at position ``t % size`` (the
        # streaming core's layout): a tick writes only its new columns and
        # derivative references read single columns — no chronological
        # tail is ever materialized.
        self.ring = np.zeros((c, n, self.size), dtype=dtype)
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
        # Tick scratch (content never survives a tick).  ``seq`` stages
        # the group kernel's normalized columns behind the running sum,
        # so it spans the longest burst that kernel takes.
        self.kmax = self.max_m // self.ws + 1
        seq_m = self.check_max if self.exact else self.max_m
        self.seq = np.empty((c, n, seq_m + 1), dtype=dtype)
        self.rows = np.empty((c, self.kmax, n), dtype=dtype)
        #: Derivative rows: computed from the staged normalized columns
        #: *before* the in-place cumsum overwrites them, so they need
        #: their own landing area.
        self.drows = np.empty((c, self.kmax, n), dtype=dtype)
        self.psum = np.empty((c, self.kmax, n + 1), dtype=dtype)
        self.sig = np.empty((c, self.kmax, self.l), dtype=dtype)
        self.sig2 = np.empty((c, self.kmax, self.l), dtype=dtype)
        self.base_scratch = np.empty((c, n), dtype=dtype)
        #: float32 gathers land in float64 first, then round once.
        self.stage = None if self.exact else np.empty((n, self.max_m))
        #: Time-major staging of the exact long-burst kernel: one node's
        #: gathered burst ``(m, n)``, its prefix sums ``(m+1, n)`` and
        #: its window-start rows ``(kmax, n)``.  Store planes are
        #: column-major ``(n, ticks)``, so their transpose is
        #: C-contiguous time-major — gathers read contiguous
        #: tick-columns, the cumsum runs down axis 0 with SIMD across
        #: sensors, and the whole burst stays cache-resident through
        #: normalize/derivative/window sweeps instead of five full-group
        #: RAM passes.  ``block_rows`` is the row-major landing pad for
        #: C-ordered (non-store) block sources.
        if self.exact:
            self.block_stage = np.empty((self.max_m, n))
            self.block_psum = np.empty((self.max_m + 1, n))
            self.block_rows = np.empty((n, self.max_m))
            self.block_ref = np.empty((self.kmax, n))
        else:
            self.block_stage = self.block_psum = None
            self.block_rows = self.block_ref = None
        # Pre-fault the tick scratches: at partition-sized ``max_m`` the
        # staging areas span tens of MB, and first-touch page faults
        # inside the first fused burst cost an order of magnitude more
        # than this one-time streaming fill at build time.
        self.pending_buf.fill(0)
        for scratch in self.scratches():
            scratch.fill(0)

    def scratches(self) -> list:
        """Every tick scratch buffer (content never survives a tick)."""
        return [
            b
            for b in (
                self.seq, self.rows, self.drows, self.psum, self.sig,
                self.sig2, self.base_scratch, self.stage, self.block_stage,
                self.block_psum, self.block_rows, self.block_ref,
            )
            if b is not None
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
        (``push_block`` composes exactly).  Scratch memory scales with
        it: serving loops keep the default, the store replayer passes
        its partition/block size so whole recorded partitions absorb in
        one fused pass.  Exact arenas run sub-bursts beyond the
        ``wl + 1`` ring capacity through a time-major kernel and size
        the group kernel's staging area to the ring alone; float32
        arenas stage every sub-burst group-wide — bit-identical either
        way.
    paths:
        Optional subset of the engine's nodes; defaults to all of them.

    A tick feeds each geometry group in one batched kernel call when
    every node brings one burst length from one sample count and one
    re-anchor point, and node by node otherwise — bit-identical either
    way, so a group that re-aligns after ragged ticks batches again.

    Setting :attr:`reject_nonfinite` makes :meth:`tick` skip every
    node whose burst holds a NaN/Inf value — that node's state stays
    untouched — and list it in :attr:`nonfinite`.  Serving-size exact
    bursts are checked on the gathered columns, one reduction per
    geometry group; longer or float32 bursts are checked on the input.
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
        # Scratch is sized for full ``max_chunk`` sub-bursts; both
        # kernels are bit-identical, so callers pick ``max_chunk``
        # purely as a burst-capacity/memory trade-off.
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
    def node_state(self, path: str) -> dict:
        """Snapshot one node's retained streaming state.

        Same layout as
        :meth:`repro.engine.streaming.IncrementalSignatureCore.state_dict`
        (the arena's per-node ring row *is* the streaming core's ring),
        so checkpoints store the streaming core's format unchanged.
        """
        g, i = self._node[path]
        count = int(g.counts[i])
        starts = np.array(_open_starts(count, g.wl, g.ws), dtype=np.int64)
        snaps = g.pending(i, starts)  # fancy index: a (k, n) copy
        return {
            "ring": g.ring[i].copy(),
            "csum": g.csum[i].copy(),
            "count": count,
            "emitted": int(g.emitted[i]),
            "anchor": int(g.anchors[i]),
            "pending_starts": starts,
            "pending_snaps": snaps,
        }

    def restore_states(self, states: Mapping[str, dict]) -> None:
        """Restore a :meth:`node_state` snapshot for **every** node.

        Each node's ``pending_starts`` must be exactly the windows open
        at its ``count`` (what :meth:`node_state` and the streaming
        core write); anything else is a corrupt state and raises
        ``ValueError``.  Nothing about batching is restored: the next
        tick batches whichever nodes share a count and anchor.
        """
        missing = [p for p in self.paths if p not in states]
        if missing:
            raise KeyError(f"missing restore state for node(s) {missing!r}")
        for g in self.groups:
            for i, p in enumerate(g.paths):
                st = states[p]
                ring = np.asarray(st["ring"], dtype=g.dtype)
                csum = np.asarray(st["csum"], dtype=g.dtype)
                starts = np.asarray(st["pending_starts"], dtype=np.int64)
                snaps = np.asarray(st["pending_snaps"], dtype=g.dtype)
                count = int(st["count"])
                if ring.shape != (g.n, g.size):
                    raise ValueError(
                        f"node {p!r}: ring shape {ring.shape} does not "
                        f"match ({g.n}, {g.size})"
                    )
                if csum.shape != (g.n,):
                    raise ValueError(
                        f"node {p!r}: csum shape {csum.shape} does not "
                        f"match ({g.n},)"
                    )
                if snaps.shape != (starts.shape[0], g.n):
                    raise ValueError(
                        f"node {p!r}: pending snapshot shape "
                        f"{snaps.shape} does not match "
                        f"({starts.shape[0]}, {g.n})"
                    )
                open_starts = list(_open_starts(count, g.wl, g.ws))
                if starts.tolist() != open_starts:
                    raise ValueError(
                        f"node {p!r}: pending starts {starts.tolist()} "
                        f"are not the windows open at count {count} "
                        f"({open_starts})"
                    )
                g.ring[i] = ring
                g.csum[i] = csum
                g.counts[i] = count
                g.emitted[i] = int(st["emitted"])
                g.anchors[i] = int(st["anchor"])
                for s, snap in zip(open_starts, snaps):
                    g.pending(i, s)[...] = snap

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
            # Exact bursts the group kernel absorbs in one call are
            # checked there, on the gathered columns; the rest, float32
            # bursts included, here on the input.
            if (
                self.reject_nonfinite
                and (not g.exact or B.shape[1] > g.check_max)
                and not _all_finite(B)
            ):
                nonfinite.append(p)
                continue
            blocks[p] = B
        # Plan this tick's emit rows before touching any state.
        total_k = 0
        for p, B in blocks.items():
            g, i = self._node[p]
            t0 = int(g.counts[i])
            total_k += len(_emits_between(t0, t0 + B.shape[1], self.wl, self.ws))
        self._ensure_capacity(total_k)
        assigned = self._assigned
        assigned.clear()
        feat2 = self._feat
        row = 0
        for g in self.groups:
            present = [
                (i, p) for i, p in enumerate(g.paths) if p in blocks
            ]
            if not present:
                continue
            m = blocks[present[0][1]].shape[1]
            # One batched call when every node brings one burst length
            # from one count and one anchor; otherwise node by node.
            if (
                len(present) == g.c
                and all(blocks[p].shape[1] == m for _, p in present)
                and g.counts.min() == g.counts.max()
                and g.anchors.min() == g.anchors.max()
            ):
                t0 = int(g.counts[0])
                k_tick = len(_emits_between(t0, t0 + m, self.wl, self.ws))
                hi = row + g.c * k_tick
                try:
                    self._feed(
                        g,
                        slice(0, g.c),
                        [blocks[p] for _, p in present],
                        feat2[row:hi].reshape(g.c, k_tick, self.n_features),
                    )
                except _NonFinite as bad:
                    # Raised before the group changed (bursts needing
                    # several calls were screened on input, so only the
                    # first call can raise): feed the clean nodes one by
                    # one below.
                    nonfinite.extend(bad.paths)
                    present = [
                        (i, p) for i, p in present if p not in bad.paths
                    ]
                else:
                    for i, p in present:
                        assigned[p] = (row + i * k_tick, k_tick)
                    row = hi
                    continue
            for i, p in present:
                B = blocks[p]
                t0 = int(g.counts[i])
                k_i = len(_emits_between(t0, t0 + B.shape[1], self.wl, self.ws))
                hi = row + k_i
                try:
                    self._feed(
                        g,
                        slice(i, i + 1),
                        [B],
                        feat2[row:hi].reshape(1, k_i, self.n_features),
                    )
                except _NonFinite:
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
    def _feed(self, g, sl, node_blocks, feat3) -> None:
        """Absorb one burst per node of ``sl`` into the emit rows
        ``feat3`` (every node at one count and one anchor).

        Bursts longer than ``g.max_m`` run as consecutive sub-bursts
        (``push_block`` composes exactly).  Each sub-burst runs the
        group-wide kernel (:meth:`_absorb`), except exact sub-bursts
        longer than the ``wl + 1`` ring — the store replayer's whole
        partitions — which run the time-major kernel
        (:meth:`_absorb_block`), whose node-at-a-time sweep keeps the
        burst cache-resident: a 256-node x 1024-column exact feed took
        17-33% longer through the group kernel.  Both kernels execute
        the same floating-point operations in the same association
        order, so the routing never changes a single output bit.
        """
        off = 0
        for lo in range(0, node_blocks[0].shape[1], g.max_m):
            sub = [B[:, lo : lo + g.max_m] for B in node_blocks]
            if g.exact and sub[0].shape[1] > g.size:
                off += self._absorb_block(g, sl, sub, feat3, off)
            else:
                off += self._absorb(g, sl, sub, feat3, off)

    def _advance(self, g, sl, total: int) -> None:
        """Step the nodes ``sl`` to ``total`` samples and periodically
        re-anchor: subtract the running sum from itself and from every
        snapshot slot (the streaming core's ``_reanchor``; stale slots
        shift harmlessly, they are rewritten before they are read)."""
        g.counts[sl] = total
        if total - int(g.anchors[sl.start]) >= self._reanchor_every:
            base = g.base_scratch[sl]
            base[...] = g.csum[sl]
            np.subtract(g.csum[sl], base, out=g.csum[sl])
            snaps = g.pending_buf[sl]
            np.subtract(snaps, base[:, None, :], out=snaps)
            g.anchors[sl] = total

    def _absorb(self, g, sl, node_blocks, feat3, off) -> int:
        """One fused sub-burst (up to ``g.max_m`` columns) for the nodes
        ``sl`` of group ``g``, group-wide.

        The batched twin of ``IncrementalSignatureCore._absorb``: every
        numbered step mirrors one of its operations in the same
        floating-point association order, into preallocated buffers.
        Normalized columns are staged in the ``seq`` scratch, not the
        ring, so the burst length is not capped by the ring's
        ``wl + 1`` slots.  Returns the number of signatures emitted per
        node.
        """
        m = node_blocks[0].shape[1]
        t0 = int(g.counts[sl.start])
        total = t0 + m
        size = g.size
        starts = _emits_between(t0, total, g.wl, g.ws)
        k = len(starts)
        # 1. Gather into sorted row order behind the running sum in a
        #    contiguous ``(nodes, n, m + 1)`` view of the ``seq``
        #    scratch.  Nothing retained has changed yet, so a
        #    non-finite burst can still be refused here.
        nodes = sl.stop - sl.start
        seq = g.seq.reshape(-1)[: nodes * g.n * (m + 1)]
        seq = seq.reshape(nodes, g.n, m + 1)
        cols = seq[:, :, 1:]
        perm = g.perm
        i = sl.start
        if g.exact:
            for j, B in enumerate(node_blocks):
                B.take(perm[i + j], axis=0, out=cols[j])
        else:
            st = g.stage[:, :m]
            for j, B in enumerate(node_blocks):
                B.take(perm[i + j], axis=0, out=st)
                cols[j] = st
        seq[:, :, 0] = g.csum[sl]
        if self.reject_nonfinite and g.exact:
            _check_finite(seq, cols, g.paths[sl])
        # 2. Min-max normalize in place (the batched _normalize):
        #    subtract, divide, degenerate rows to 0.5, clip.
        np.subtract(cols, g.lower[sl], out=cols)
        np.divide(cols, g.span[sl], out=cols)
        if g.deg_any:
            np.copyto(cols, 0.5, where=g.deg_mask[sl])
        np.clip(cols, 0.0, 1.0, out=cols)
        # 3. Derivative rows need the raw normalized columns, which the
        #    in-place cumsum of step 5 overwrites; references predating
        #    this burst still sit untouched in the ring (``ref >= t0 -
        #    wl``, refreshed only in step 4).
        if k:
            drows = g.drows[sl, :k, :]
            for idx, s in enumerate(starts):
                ref = s - 1 if s > 0 else s
                ref_col = (
                    cols[:, :, ref - t0]
                    if ref >= t0
                    else g.ring[sl, :, ref % size]
                )
                np.subtract(
                    cols[:, :, s + g.wl - 1 - t0], ref_col,
                    out=drows[:, idx, :],
                )
            np.divide(drows, g.wl, out=drows)
        # 4. Ring refresh from the staged tail.
        for ring_run, burst_run in _ring_runs(t0, total, size):
            g.ring[sl, :, ring_run] = cols[:, :, burst_run]
        # 5. Sequential prefix sums continuing the running sum, in place
        #    (same left-to-right association as repeated push()).
        seq.cumsum(axis=2, out=seq)
        # 6. Emits due inside this sub-burst: value means from the
        #    prefix sums (windows opened before the burst read their
        #    snapshot slot), then the derivative rows of step 3.
        if k:
            rows = g.rows[sl, :k, :]
            for idx, s in enumerate(starts):
                start_cs = seq[:, :, s - t0] if s >= t0 else g.pending(sl, s)
                np.subtract(
                    seq[:, :, s + g.wl - t0], start_cs, out=rows[:, idx, :]
                )
            np.divide(rows, g.wl, out=rows)
            self._reduce(g, sl, rows, k)
            feat3[:, off : off + k, : g.l] = g.sig[sl, :k, :]
            self._reduce(g, sl, g.drows[sl, :k, :], k)
            feat3[:, off : off + k, g.l :] = g.sig[sl, :k, :]
            g.emitted[sl] += k
        # 7. Snapshot the windows this burst opened and leaves open
        #    (every pending read of step 6 is done).
        for s in _open_starts(total, g.wl, g.ws):
            if s >= t0:
                g.pending(sl, s)[...] = seq[:, :, s - t0]
        # 8. Advance retained state: running sum, counts, periodic
        #    re-anchor (the ring is already current after step 4).
        g.csum[sl] = seq[:, :, m]
        self._advance(g, sl, total)
        return k

    def _absorb_block(self, g, sl, node_blocks, feat3, off) -> int:
        """One fused exact sub-burst longer than the ring, node by node.

        The same steps as :meth:`_absorb`, fused into one *time-major*
        pass per node: gather, normalize, derivative rows, ring refresh,
        prefix sums, value rows and pending snapshots all touch one
        node's burst while it is cache-resident, instead of full-group
        RAM sweeps (only single prefix-sum rows leave the cache).  Store
        planes are column-major, so their transpose is C-contiguous
        time-major: gathers read contiguous tick-columns and the cumsum
        runs down axis 0 with SIMD across sensors.  Every operation is
        elementwise (or a sensor-independent cumsum) with per-node
        operands identical to the group-wide form — IEEE addition is
        commutative, so seeding the first tick with the running sum
        reproduces the chained cumsum bit for bit.  Snapshot slot views
        are resolved once, outside the node loop; each node reads its
        pending rows before writing the windows it opens, so a slot
        both read and rewritten is safe.
        """
        m = node_blocks[0].shape[1]
        t0 = int(g.counts[sl.start])
        total = t0 + m
        size = g.size
        emits = _emits_between(t0, total, g.wl, g.ws)
        k = len(emits)
        perm = g.perm
        i = sl.start
        runs = _ring_runs(t0, total, size)
        if k:
            starts = np.arange(emits.start, emits.stop, g.ws)
            end_idx = starts + (g.wl - t0)
            dv_idx = end_idx - 1
            refs = np.where(starts > 0, starts - 1, starts)
            from_st = refs >= t0
            st_ref = (refs - t0)[from_st]
            ring_ref = (refs % size)[~from_st]
            from_seq = starts >= t0
            seq_start = (starts - t0)[from_seq]
            pend = [
                (idx, g.pending(sl, s))
                for idx, s in enumerate(emits)
                if s < t0
            ]
        pushes = [
            (s - t0, g.pending(sl, s))
            for s in _open_starts(total, g.wl, g.ws)
            if s >= t0
        ]
        tT = g.block_stage[:m]
        sT = g.block_psum[: m + 1]
        ref_rows = g.block_ref[:k]
        for j, B in enumerate(node_blocks):
            a = i + j
            # 1. Gather into sorted row order, time-major.
            if B.flags.f_contiguous:
                np.take(B.T, perm[a], axis=1, out=tT)
            else:
                rows = g.block_rows[:, :m]
                np.take(B, perm[a], axis=0, out=rows)
                tT[...] = rows.T
            # 2. Min-max normalize (the batched _normalize).
            np.subtract(tT, g.lower[a].T, out=tT)
            np.divide(tT, g.span[a].T, out=tT)
            if g.deg_any:
                np.copyto(tT, 0.5, where=g.deg_mask[a].T)
            np.clip(tT, 0.0, 1.0, out=tT)
            if k:
                # 3. Derivative rows; references predating the burst
                #    still sit untouched in the ring (refreshed in 4).
                ref_rows[from_st] = tT[st_ref]
                ref_rows[~from_st] = g.ring[a].T[ring_ref]
                drows = g.drows[a, :k, :]
                np.subtract(tT[dv_idx], ref_rows, out=drows)
                np.divide(drows, g.wl, out=drows)
            # 4. Ring refresh from the staged tail.
            for ring_run, burst_run in runs:
                g.ring[a, :, ring_run] = tT[burst_run].T
            # 5. Sequential prefix sums continuing the running sum (same
            #    left-to-right association as repeated push(): the first
            #    tick absorbs the running sum, then cumsum walks down
            #    the time axis).
            np.add(tT[0], g.csum[a], out=tT[0])
            sT[0] = g.csum[a]
            np.cumsum(tT, axis=0, out=sT[1:])
            if k:
                # 6. Value rows from the still-warm prefix sums.
                ref_rows[from_seq] = sT[seq_start]
                for idx, slab in pend:
                    ref_rows[idx] = slab[j]
                rows = g.rows[a, :k, :]
                np.subtract(sT[end_idx], ref_rows, out=rows)
                np.divide(rows, g.wl, out=rows)
            # 7. Pending snapshots + running sum for the next burst.
            for s_rel, slab in pushes:
                slab[j] = sT[s_rel]
            g.csum[a] = sT[m]
        if k:
            # 8. Reduce + store: value rows, then derivative rows.
            self._reduce(g, sl, g.rows[sl, :k, :], k)
            feat3[:, off : off + k, : g.l] = g.sig[sl, :k, :]
            self._reduce(g, sl, g.drows[sl, :k, :], k)
            feat3[:, off : off + k, g.l :] = g.sig[sl, :k, :]
            g.emitted[sl] += k
        self._advance(g, sl, total)
        return k

    def _reduce(self, g, sl, rows, k) -> None:
        """Block reduction (the batched ``segment_means``) into ``g.sig``."""
        ps = g.psum[sl, :k, :]
        ps[:, :, 0] = 0.0
        rows.cumsum(axis=2, out=ps[:, :, 1:])
        sig = g.sig[sl, :k, :]
        lo = g.sig2[sl, :k, :]
        # Fancy-index gathers: ``take`` into these non-contiguous
        # (sl, :k) views runs through numpy's buffered fallback.
        sig[...] = ps[:, :, g.bends]
        lo[...] = ps[:, :, g.bstarts]
        np.subtract(sig, lo, out=sig)
        np.divide(sig, g.widths, out=sig)

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
