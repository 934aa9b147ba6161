"""A reference for the serving core's alert stream that shares none of
its tick loop.

``api.replay`` and the network server both drive
:class:`~repro.service.servecore.ServeCore`, so comparing the two checks
routing, not the loop itself.  This is that loop written out plainly:
one ``GuardedDetector.process_block`` call per tick over every node's
``chunk``-sample burst, with no queues, barrier, journal or checkpoint.
(:func:`repro.service.detector.detect_naive` stays the oracle of the
detector underneath.)
"""

from repro.service.alerts import event_line
from repro.service.api import build_detector


def guarded_lines(config, setup, n_ticks=None) -> list[str]:
    """Canonical alert lines of the first ``n_ticks`` ticks (all of
    them by default) of ``setup``'s held-out feed."""
    guarded = build_detector(config, setup)
    horizon = max(m.shape[1] for m in setup.eval_data.values())
    ticks = -(-horizon // config.chunk)
    lines = []
    for ti in range(ticks if n_ticks is None else min(n_ticks, ticks)):
        lo = ti * config.chunk
        burst = {
            p: m[:, lo : lo + config.chunk]
            for p, m in setup.eval_data.items()
            if lo < m.shape[1]
        }
        lines += map(event_line, guarded.process_block(burst, tick=ti))
    return lines


def without_health(events: list[dict]) -> list[dict]:
    """A clean guarded run's events as the bare detector emits them:
    every event is ``healthy`` and the guard's ``health`` key goes."""
    assert all(e.get("health") == "healthy" for e in events)
    return [{k: v for k, v in e.items() if k != "health"} for e in events]
