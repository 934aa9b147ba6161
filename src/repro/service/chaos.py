"""Deterministic seeded fault injection for the in-process replay.

The guard (:mod:`repro.service.guard`), the serving core's queues and
barrier (:mod:`repro.service.servecore`) and checkpoints
(:mod:`repro.service.checkpoint`) claim the service survives a hostile
transport.  :class:`ChaosInjector` makes that claim testable — and
*reproducible*: :func:`repro.service.api.replay` passes each tick's
burst through it and feeds the perturbed deliveries to the core as
frames, each fault drawn from an RNG keyed on ``(seed, tick,
crc32(node path))`` alone.  No injector state carries across ticks, so
a killed-and-resumed replay regenerates the exact same fault schedule —
which is what lets the chaos tests assert byte-identical alert streams
across kill/restore cycles.

Fault classes and where they land:

* **drop** — the node's frame never arrives: the tick barrier breaks
  after its deadline and the detector sees a ragged tick (no guard
  event);
* **duplicate** — the frame is delivered twice with the same tick id:
  the second replaces the queued first (no guard event);
* **reorder** — the frame arrives stamped with an old tick id, i.e. a
  late delivery: it is below the core's cursor and dropped as late
  (``late_dropped``), so the node misses that tick (no guard event);
* **corrupt** — a fraction of the block's entries are overwritten with
  NaN/±Inf (guard: ``corrupt-values`` → reject, quarantine on streaks).

:func:`run_with_kills` composes the injector with checkpointing into
the full crash drill: replay, kill at given ticks, restore from the
latest checkpoint, repeat — returning the final (complete) outcome.

Its network twin, :mod:`repro.service.netchaos`, applies the same
stateless-RNG discipline one layer down — to the raw TCP byte stream
between a load generator and ``repro serve --listen`` — keyed on
``(seed, connection, byte offset)`` instead of ``(seed, tick, node)``.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

__all__ = ["ChaosConfig", "ChaosInjector", "run_with_kills"]

#: The per-(tick, node) fault rates, in schedule draw order.
_RATES = ("drop", "duplicate", "reorder", "corrupt")


@dataclass(frozen=True)
class ChaosConfig:
    """Fault mix of a chaos run.

    ``drop``/``duplicate``/``reorder``/``corrupt`` are mutually
    exclusive per (tick, node) — one uniform draw selects at most one of
    them — so their sum must stay ≤ 1; the remainder is delivered clean.
    ``corrupt_fraction`` is the fraction of a corrupted block's entries
    overwritten with non-finite values.  ``start_tick`` delays injection
    (e.g. to let the fleet emit its first windows unmolested).
    """

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    corrupt: float = 0.0
    corrupt_fraction: float = 0.02
    start_tick: int = 0

    def __post_init__(self):
        for name in _RATES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        total = self.drop + self.duplicate + self.reorder + self.corrupt
        if total > 1.0:
            raise ValueError(
                f"fault fractions sum to {total} > 1 (they are "
                "mutually exclusive per tick and node)"
            )
        if not 0.0 < self.corrupt_fraction <= 1.0:
            raise ValueError("corrupt_fraction must be in (0, 1]")
        if self.start_tick < 0:
            raise ValueError("start_tick must be >= 0")

    @classmethod
    def from_evaluation(cls, ev: Mapping[str, Any]) -> "ChaosConfig | None":
        """The fault schedule a scenario's ``evaluation`` dict names.

        ``None`` when the dict names none of the ``drop`` /
        ``duplicate`` / ``reorder`` / ``corrupt`` rates.  ``chaos_seed``
        is the schedule's seed; the other keys name fields (the
        counterpart of ``ServiceConfig.from_evaluation``).
        """
        if not any(k in ev for k in _RATES):
            return None
        names = {f.name for f in dataclasses.fields(cls)} - {"seed"}
        kwargs = {k: v for k, v in ev.items() if k in names}
        return cls(seed=int(ev.get("chaos_seed", 0)), **kwargs)


class ChaosInjector:
    """Stateless per-tick fault injection (deterministic, resumable).

    :meth:`deliveries` turns one tick's burst into the list of
    ``(tick_id, burst)`` deliveries the transport would actually make
    (the replay feeds each as one frame per node):
    the main (possibly thinned/corrupted) delivery first, then any
    duplicate / late re-deliveries.  Statistics accumulate on
    :attr:`stats` for reporting; they never influence the schedule.
    """

    #: Non-finite values a corrupted block is salted with.
    _POISON = (np.nan, np.inf, -np.inf)

    def __init__(self, config: ChaosConfig):
        self.config = config
        self.stats = {
            "ticks": 0,
            "clean": 0,
            "drop": 0,
            "duplicate": 0,
            "reorder": 0,
            "corrupt": 0,
        }

    def _rng(self, tick: int, path: str) -> np.random.Generator:
        return np.random.default_rng(
            [self.config.seed, tick, zlib.crc32(path.encode("utf-8"))]
        )

    def _corrupt(self, rng: np.random.Generator, block: np.ndarray) -> np.ndarray:
        B = np.array(block, dtype=np.float64)  # owned C-contiguous copy
        k = max(1, int(B.size * self.config.corrupt_fraction))
        idx = rng.integers(0, B.size, size=k)
        kind = rng.integers(0, len(self._POISON), size=k)
        B.reshape(-1)[idx] = np.asarray(self._POISON)[kind]
        return B

    def deliveries(
        self, tick: int, burst: Mapping[str, np.ndarray]
    ) -> list[tuple[int, dict[str, np.ndarray]]]:
        """Perturb one tick's burst into its delivery sequence."""
        self.stats["ticks"] += 1
        cfg = self.config
        if tick < cfg.start_tick:
            self.stats["clean"] += len(burst)
            return [(tick, dict(burst))]
        main: dict[str, np.ndarray] = {}
        extras: list[tuple[int, dict[str, np.ndarray]]] = []
        for path in sorted(burst):
            block = burst[path]
            rng = self._rng(tick, path)
            u = float(rng.random())
            if u < cfg.drop:
                self.stats["drop"] += 1
                continue
            if u < cfg.drop + cfg.duplicate:
                self.stats["duplicate"] += 1
                main[path] = block
                extras.append((tick, {path: block}))
                continue
            if u < cfg.drop + cfg.duplicate + cfg.reorder:
                # Late/out-of-order: the block arrives stamped with a
                # tick id older than the node's last applied one.  The
                # first two ticks have no "older" to be; deliver clean.
                if tick >= 2:
                    self.stats["reorder"] += 1
                    extras.append((tick - 2, {path: block}))
                else:
                    self.stats["clean"] += 1
                    main[path] = block
                continue
            if u < cfg.drop + cfg.duplicate + cfg.reorder + cfg.corrupt:
                self.stats["corrupt"] += 1
                main[path] = self._corrupt(rng, block)
                continue
            self.stats["clean"] += 1
            main[path] = block
        return [(tick, main)] + extras


def run_with_kills(
    config,
    setup,
    *,
    checkpoint_path: str | Path,
    kills: Sequence[int],
    checkpoint_every: int = 1,
    sink_factory: Callable[[], Sequence] | None = None,
    chaos: ChaosConfig | None = None,
):
    """The full crash drill: replay, kill at each tick, restore, finish.

    Runs :func:`repro.service.api.replay` of ``config`` over ``setup``
    in segments — each segment stops (simulated ``SIGKILL``) just before
    processing tick ``k`` for every ``k`` in ``kills``, then the next
    segment resumes from the latest checkpoint; the final segment runs
    to completion and its :class:`~repro.service.replay.ReplayOutcome`
    is returned.  With deterministic ``chaos`` the final alert stream is
    byte-identical to an uninterrupted run — the crash-recovery
    contract.

    ``sink_factory`` (optional) builds fresh sinks per segment — sinks
    are single-use, and a truncating JSONL sink rebuilt per segment ends
    up holding the complete stream because every resume re-emits the
    checkpointed prefix.
    """
    from repro.service.api import replay

    checkpoint_path = Path(checkpoint_path)
    kill_points = sorted(int(k) for k in kills)
    if any(k < 1 for k in kill_points):
        raise ValueError("kill ticks must be >= 1 (tick 0 must complete)")
    outcome = None
    for stop_after in [*kill_points, None]:
        outcome = replay(
            config,
            setup,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume=checkpoint_path.exists(),
            stop_after=stop_after,
            sinks=tuple(sink_factory()) if sink_factory is not None else (),
            chaos=chaos,
        )
    return outcome
