"""Service-side process of the fleet-service benchmark.

Runs one ``repro`` CLI command in this process — ``serve --listen ...``
for the serving workloads, ``detect --from-store ...`` for store replay —
after three optional steps:

* ``--cpu N`` pins the process to CPU ``N`` (the load generator runs on
  another one);
* ``--marks FILE`` records when ``replay_from_store`` is entered and
  left, with the process CPU clock at both edges, and the process's
  peak RSS at exit;
* ``--trace FILE`` wraps every layer's public calls (see
  ``tracing.py``) before the service is built, and writes the spans out
  at exit.

Usage::

    python3 perfbench/launch.py [--cpu N] [--marks FILE] [--trace FILE] \\
        -- serve --listen 127.0.0.1:0 ...
"""

from __future__ import annotations

import time

LAUNCHED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--marks", default=None)
    parser.add_argument("--trace", default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        t0 = time.perf_counter()
        import repro.service.api  # noqa: F401  (the timed import)

        tracer.record("setup.import", t0, time.perf_counter())
        install(tracer)

    marks: dict = {"launched": LAUNCHED}
    if args.marks:
        import repro.service.fastreplay as fastreplay

        inner = fastreplay.replay_from_store

        def replay_from_store(*a, **kw):
            marks["call"] = [time.perf_counter(), time.process_time()]
            try:
                return inner(*a, **kw)
            finally:
                marks["return"] = [time.perf_counter(), time.process_time()]

        fastreplay.replay_from_store = replay_from_store

    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(args.trace)
        if args.marks:
            marks["maxrss_kib"] = resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss
            Path(args.marks).write_text(json.dumps(marks), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
