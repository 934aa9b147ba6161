"""Unified experiment CLI: ``python -m repro`` / the ``repro`` script.

Subcommands
-----------
``repro list``
    Show every registered scenario (name, kind, paper artifact, grid
    size, description).
``repro run <name>``
    Execute one scenario through the generic runner, with the shared
    ``--seed/--repeats/--scale/--smoke/--cache-dir`` flags plus output
    sinks (``--csv/--jsonl/--markdown``) and ``--out`` for binary
    artifacts.
``repro run-all``
    Execute every registered scenario (optionally filtered by ``--tag``),
    writing per-scenario CSV/markdown into ``--results-dir``.
``repro detect``
    Deterministic replay of a (cached) fault-fleet through the online
    detection service (``repro.service``): alert JSONL to ``--alerts``
    or stdout, scored summary to stderr.  Byte-identical output across
    processes for the same flags.  Ctrl-C finishes the in-flight tick,
    flushes open alerts, writes a final ``--checkpoint`` and exits 130.
``repro serve``
    The same fleet served *live* over TCP: ``--listen HOST:PORT``
    accepts ``repro-ticks/v1`` frames (plus an optional ``--ops`` HTTP
    API) and alert events stream to ``--alerts`` or stdout the moment
    they fire.  Adding ``--wal DIR --checkpoint F.npz`` makes serving
    crash-durable (kill -9, restart, byte-identical alert JSONL) and
    ``--supervise`` wraps it in a crash-restart loop.
``repro loadgen``
    Drive a ``repro serve --listen`` server over the network with the
    exact deterministic feed ``repro detect`` would replay in-process —
    the two alert streams are byte-identical.  ``--resume`` makes the
    client crash-tolerant too: it follows per-tick acks and resends
    everything after the last acked tick across reconnects.
``repro netchaos``
    A seeded TCP chaos proxy to put between the two: latency, resets,
    partitions, corruption and truncation drawn deterministically from
    ``(seed, connection, byte offset)``.
``repro store``
    The columnar telemetry store (``repro-telestore/v1``): ``record`` a
    fleet's held-out feed into a time-partitioned on-disk store, then
    ``stat``/``verify``/``compact``/``prune`` it.  ``repro detect
    --from-store DIR`` replays a recorded window through the detector at
    max speed with byte-identical alert JSONL to live ingestion.

Most flags are not written here: :mod:`repro.service.knobs` generates
them, help text included, from the fields of one dataclass per concern,
so a new field is a new flag and its default has one copy —
``ServiceConfig`` (``detect``/``serve``/``loadgen``/``store record``,
one shared preset), ``ServeOptions`` and ``SuperviseOptions``
(``serve``), ``LoadgenOptions`` (``loadgen``), :class:`DetectOptions`
(``detect``) and ``NetChaosConfig`` (``netchaos``).  Each validates
itself, so a rejected or contradictory flag exits 2 before the fleet
trains, and each reaches its callee whole.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.service.knobs import at_least, knob

__all__ = ["main", "console_main"]


def _status(message: str) -> None:
    """Progress/log output; stderr so stdout stays machine-consumable."""
    print(message, file=sys.stderr)


class _UsageError(Exception):
    """A rejected command line, raised before any work; :func:`main`
    reports it and exits 2, as argparse does."""


def _at_least(flag: str, value: int | None, low: int) -> None:
    if value is not None and value < low:
        raise _UsageError(f"{flag} must be >= {low}, got {value}")


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import print_table
    from repro.scenarios.registry import list_scenarios

    specs = list_scenarios(tag=args.tag)
    rows = [
        (
            s.name,
            s.kind,
            s.paper or "—",
            len(s.datasets),
            len(s.methods),
            s.description,
        )
        for s in specs
    ]
    print_table(
        ("Name", "Kind", "Paper artifact", "Datasets", "Methods", "Description"),
        rows,
        title="Registered scenarios",
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.scenarios.options import options_from_args, sinks_from_args
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runner import execute

    try:
        spec = get_scenario(args.name)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None
    options = options_from_args(args)
    result = execute(spec, options=options, sinks=sinks_from_args(args))
    stats = result.cache_stats
    cache_note = ""
    if options.cache_dir:
        cache_note = (
            f"  cache: {stats['segment_hits'] + stats['dataset_hits']} hits, "
            f"{stats['segment_misses'] + stats['dataset_misses']} misses"
        )
    _status(
        f"[{spec.name}] done in {result.wall_time_s:.2f}s "
        f"({len(result.rows)} rows){cache_note}"
    )
    for path in result.artifact_paths:
        _status(f"[{spec.name}] wrote {path}")
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import CSVSink, MarkdownSink
    from repro.scenarios.options import options_from_args, sinks_from_args
    from repro.scenarios.registry import list_scenarios
    from repro.scenarios.runner import execute

    specs = list_scenarios(tag=args.tag)
    results_dir = Path(args.results_dir) if args.results_dir else None
    failures = []
    for spec in specs:
        _status(f"[{spec.name}] running ...")
        sinks = sinks_from_args(args, table=not args.quiet)
        if results_dir is not None:
            sinks.append(CSVSink(results_dir / f"{spec.name}.csv"))
            sinks.append(MarkdownSink(results_dir / f"{spec.name}.md"))
        try:
            result = execute(
                spec, options=options_from_args(args), sinks=sinks
            )
        except Exception as exc:  # surface every failure, run the rest
            failures.append((spec.name, exc))
            _status(f"[{spec.name}] FAILED: {exc}")
            continue
        _status(
            f"[{spec.name}] done in {result.wall_time_s:.2f}s "
            f"({len(result.rows)} rows)"
        )
    if failures:
        _status(f"{len(failures)}/{len(specs)} scenarios failed")
        return 1
    return 0


# ----------------------------------------------------------------------
# Online detection service (repro serve / repro detect / repro loadgen)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DetectOptions:
    """``repro detect``'s outputs, checkpoint and store window, validated
    once: a flag the chosen mode would ignore, or could only fail on
    after the fleet has trained, is rejected here."""

    alerts: str | None = knob(
        None,
        "write the alert event stream as JSON lines here (default: "
        "stdout); byte-identical across processes",
    )
    csv: str | None = knob(None, "also write the scored summary row as CSV")
    markdown: str | None = knob(None, "also write a markdown alert summary table")
    checkpoint: str | None = knob(
        None,
        "checkpoint the full detector state to this .npz while replaying; "
        "with --resume, restore it and replay only the remaining ticks "
        "(byte-identical alert stream to an uninterrupted run)",
    )
    checkpoint_every: int = knob(1, "ticks between checkpoints (needs --checkpoint)")
    resume: bool = knob(
        False,
        "restore --checkpoint before replaying (typed error on "
        "lineage/geometry/knob mismatch, never silent drift)",
    )
    stop_after: int | None = knob(
        None,
        "stop before processing this tick index (simulated crash for "
        "checkpoint drills)",
    )
    from_store: str | None = knob(
        None,
        "replay a recorded telemetry store (see `repro store record`) "
        "instead of the live feed: partition-sized blocks stream into the "
        "detector at max speed, alert JSONL byte-identical to live "
        "ingestion of the same window",
        metavar="DIR",
    )
    t0: int | None = knob(
        None,
        "first store tick to replay (default: store start; scored windows "
        "need --t0 aligned to the window stride)",
    )
    t1: int | None = knob(
        None, "replay up to this store tick, exclusive (default: store end)"
    )

    def __post_init__(self):
        if self.from_store:
            if self.checkpoint or self.resume:
                raise ValueError(
                    "--from-store and --checkpoint/--resume are exclusive"
                )
            if self.stop_after is not None:
                raise ValueError(
                    "--stop-after applies to live replay, not --from-store"
                )
        elif self.t0 is not None or self.t1 is not None:
            raise ValueError(
                "--t0/--t1 select a store window and require --from-store"
            )
        at_least(0, self, "t0", "t1")
        if None not in (self.t0, self.t1) and self.t0 > self.t1:
            raise ValueError(f"--t0 {self.t0} is past --t1 {self.t1}")
        if self.resume and not self.checkpoint:
            raise ValueError("--resume requires --checkpoint")
        at_least(1, self, "checkpoint_every")


def _service_command(sub, name: str, func, *tables, **kwargs):
    """A ``name`` subcommand running ``func``, with one generated flag
    per field of ``ServiceConfig`` and of each of ``tables``, plus
    ``--smoke``."""
    from repro.service.api import ServiceConfig
    from repro.service.knobs import add_flags

    parser = sub.add_parser(name, **kwargs)
    for table in (ServiceConfig, *tables):
        add_flags(parser, table)
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale preset (2 nodes, t=2500, 6 trees) used by CI",
    )
    parser.set_defaults(func=func)
    return parser


def _config_from_args(args: argparse.Namespace, base):
    """``base`` (a config, or a config class) with the command line's
    generated flags applied; a value it rejects is a usage error
    (exit 2), not a traceback."""
    from repro.service.knobs import from_args

    try:
        return from_args(args, base)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _service_config(args: argparse.Namespace):
    """The :class:`repro.service.api.ServiceConfig` these flags describe.

    Explicit flags beat the preset (``ServiceConfig.smoke()`` with
    ``--smoke``, else the full-size defaults).
    """
    from repro.service.api import ServiceConfig

    base = ServiceConfig.smoke() if args.smoke else ServiceConfig()
    return _config_from_args(args, base)


def _build_service_setup(args: argparse.Namespace):
    from repro.service.api import build_context, build_setup

    config = _service_config(args)
    context = build_context(config)
    setup = build_setup(config, context=context)
    return setup, config, context


def _alert_sinks(path: str | None) -> list:
    """JSON lines to ``path``, or the event stream on stdout."""
    from repro.service.alerts import JSONLAlertSink, StreamAlertSink

    if path:
        return [JSONLAlertSink(path)]
    return [StreamAlertSink(sys.stdout)]


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_table, save_csv
    from repro.scenarios.evaluations import FLEET_DETECT_HEADERS
    from repro.service.alerts import MarkdownAlertSink
    from repro.service.api import replay

    options = _config_from_args(args, DetectOptions)
    setup, config, context = _build_service_setup(args)
    sinks = _alert_sinks(options.alerts)
    if options.markdown:
        sinks.append(MarkdownAlertSink(options.markdown))
    if options.from_store:
        from repro.service.fastreplay import replay_from_store

        outcome = replay_from_store(
            config, setup, options.from_store, t0=options.t0, t1=options.t1,
            sinks=sinks,
        )
    else:
        every = options.checkpoint_every if options.checkpoint else 0
        outcome = replay(
            config, setup, sinks=sinks, checkpoint_path=options.checkpoint,
            checkpoint_every=every, resume=options.resume,
            stop_after=options.stop_after,
        )
    if outcome.interrupted:
        # The replay loop already finished the in-flight tick, flushed
        # every open alert into the sinks and wrote a final checkpoint;
        # exit with the conventional Ctrl-C status via console_main.
        if options.checkpoint:
            _status(f"[detect] interrupted; checkpoint at {options.checkpoint}")
        raise KeyboardInterrupt
    row = outcome.row(f"{config.segment}-fleet-{setup.n_nodes}")
    _status(
        format_table(
            FLEET_DETECT_HEADERS, [row], title="Fleet detection replay"
        )
    )
    if options.csv:
        save_csv(options.csv, FLEET_DETECT_HEADERS, [row])
    if options.alerts:
        _status(f"[detect] wrote {outcome.n_alerts} alerts to {options.alerts}")
    if outcome.health is not None:
        states = outcome.health["states"]
        if (
            states.get("degraded")
            or states.get("quarantined")
            or outcome.health["unknown_nodes"]
        ):
            _status(f"[detect] fleet health: {states}")
    if options.checkpoint and options.stop_after is not None:
        _status(
            f"[detect] stopped before tick {options.stop_after}; resume "
            f"with --resume --checkpoint {options.checkpoint}"
        )
    if config.cache_dir:
        stats = context.stats
        _status(
            f"[detect] cache: {stats['segment_hits']} hits, "
            f"{stats['segment_misses']} misses"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.service.net import SuperviseOptions, supervise
    from repro.service.servecore import ServeOptions

    # Rejected here, not after the fleet trains: a supervisor would
    # otherwise restart a child that fails the same way every time.
    options = _config_from_args(args, ServeOptions)
    supervisor = _config_from_args(args, SuperviseOptions)
    _service_config(args)  # e.g. --no-guard
    if supervisor.supervise:
        return supervise(supervisor, args.argv)

    from repro.service.api import serve

    pid_file = Path(args.pid_file) if args.pid_file else None
    if pid_file is not None:
        pid_file.parent.mkdir(parents=True, exist_ok=True)
        pid_file.write_text(f"{os.getpid()}\n", encoding="utf-8")
    try:
        setup, config, _ = _build_service_setup(args)
        durability = ""
        if options.wal:
            durability = f", wal={options.wal} (fsync={options.wal_fsync})"
        if options.checkpoint:
            durability += f", checkpoint={options.checkpoint}"
        _status(
            f"[serve] {setup.n_nodes} nodes, burst={config.chunk} "
            f"samples, listening on {options.listen} "
            f"(backpressure: {options.backpressure}, queue "
            f"{options.queue_max}{durability})"
        )
        stats = serve(config, setup, options, sinks=_alert_sinks(args.alerts))
    finally:
        if pid_file is not None:
            try:
                pid_file.unlink(missing_ok=True)
            except OSError:
                pass
    bp = stats["backpressure"]
    wal_note = ""
    if options.wal:
        wal_note = (
            f"; wal {stats['wal_appended']} appended, "
            f"{stats['wal_replayed']} replayed, "
            f"{stats['checkpoints']} checkpoints"
        )
    _status(
        f"[serve] drained: {stats['ticks']} ticks, "
        f"{stats['frames']} frames, {stats['events']} alert events, "
        f"{stats['samples_per_s']:.0f} samples/s "
        f"(p50 {stats['tick_latency_p50_ms']:.2f} ms, "
        f"p99 {stats['tick_latency_p99_ms']:.2f} ms; "
        f"dropped {bp['dropped']}, coalesced {bp['coalesced']}, "
        f"late {bp['late_dropped']}{wal_note})"
    )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service.net import LoadgenOptions, loadgen

    options = _config_from_args(args, LoadgenOptions)
    setup, config, _ = _build_service_setup(args)
    _status(
        f"[loadgen] {setup.n_nodes} nodes -> {options.target[1]} "
        f"({options.format} frames, burst={config.chunk}"
        f"{', resume' if options.resume else ''})"
    )
    stats = loadgen(setup, options, chunk=config.chunk)
    rate = stats["bytes"] / stats["seconds"] / 1e6 if stats["seconds"] else 0.0
    resume_note = ""
    if options.resume:
        resume_note = (
            f"; {stats['acked_ticks']} ticks acked, "
            f"{stats['reconnects']} reconnects, "
            f"{stats['rewinds']} rewinds, "
            f"{stats['resent_frames']} frames resent"
        )
    _status(
        f"[loadgen] sent {stats['frames']} frames / {stats['ticks']} ticks "
        f"({stats['bytes'] / 1e6:.1f} MB) in {stats['seconds']:.2f}s "
        f"({rate:.0f} MB/s{resume_note})"
    )
    return 0


def _cmd_netchaos(args: argparse.Namespace) -> int:
    import time

    from repro.service.net import address_of, parse_address
    from repro.service.netchaos import ChaosProxy, NetChaosConfig

    try:
        upstream, origin = address_of(
            "--upstream/--upstream-port-file", args.upstream, args.upstream_port_file
        )
        host, port = parse_address(args.listen)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    config = _config_from_args(args, NetChaosConfig())
    proxy = ChaosProxy(
        upstream, config, host=host, port=port, port_file=args.port_file
    )
    proxy.start()
    _status(
        f"[netchaos] {host}:{proxy.port} -> {origin} "
        f"(seed {config.seed}; Ctrl-C to stop)"
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        stats = proxy.stop()
        _status(
            f"[netchaos] forwarded {stats['bytes_out']} of "
            f"{stats['bytes_in']} bytes over {stats['connections']} "
            f"connection(s): {stats['corrupted']} corrupted, "
            f"{stats['resets']} resets, {stats['truncated_bytes']} bytes "
            f"truncated, {stats['partitions']} partitions"
        )
        raise


# ----------------------------------------------------------------------
# Columnar telemetry store (repro store ...)
# ----------------------------------------------------------------------
def _cmd_store_record(args: argparse.Namespace) -> int:
    from repro.service.fastreplay import record_fleet

    _at_least("--partition-ticks", args.partition_ticks, 1)
    setup, config, _ = _build_service_setup(args)
    store = record_fleet(
        setup,
        args.root,
        partition_ticks=args.partition_ticks,
        chunk=config.chunk,
    )
    _status(
        f"[store] recorded {store.ticks} ticks x {len(store.paths)} nodes "
        f"into {len(store.partitions)} partition(s) at {store.root} "
        f"({store.nbytes / 1e6:.1f} MB)"
    )
    return 0


def _cmd_store_stat(args: argparse.Namespace) -> int:
    import json

    from repro.monitoring.telestore import TeleStore

    print(json.dumps(TeleStore(args.root).stat(), indent=2, sort_keys=True))
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    from repro.monitoring.telestore import TeleStore

    checked = TeleStore(args.root).verify()
    _status(f"[store] verified {checked} partition(s): all content hashes ok")
    return 0


def _cmd_store_compact(args: argparse.Namespace) -> int:
    from repro.monitoring.telestore import TeleStore

    _at_least("--target-ticks", args.target_ticks, 1)
    store = TeleStore(args.root)
    merged = store.compact(args.target_ticks)
    _status(
        f"[store] compacted {merged} partition(s) away; "
        f"{len(store.partitions)} remain"
    )
    return 0


def _cmd_store_prune(args: argparse.Namespace) -> int:
    from repro.monitoring.telestore import TeleStore

    _at_least("--keep-last", args.keep_last, 0)
    store = TeleStore(args.root)
    dropped = store.prune(
        keep_last=args.keep_last, checkpoints=args.checkpoint or ()
    )
    _status(
        f"[store] pruned {dropped} partition(s); "
        f"[{store.t0}, {store.t1}) retained"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    # The service, server, client, replay and chaos flags are generated
    # from their dataclasses (see ``repro.service.knobs``).
    from repro.scenarios.options import add_shared_options
    from repro.service.knobs import add_flags
    from repro.service.net import LoadgenOptions, SuperviseOptions
    from repro.service.netchaos import NetChaosConfig
    from repro.service.servecore import ServeOptions

    # No prefix matching anywhere: an abbreviated flag would slip past
    # the supervisor's exact-spelling filter (``child_argv``).
    strict = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(
        prog="repro",
        description="Declarative scenario runner for the CS reproduction "
        "(paper figures/tables plus extended coverage).",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=strict
    )

    p_list = sub.add_parser("list", help="show registered scenarios")
    p_list.add_argument("--tag", default=None, help="filter by tag")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("name", help="registered scenario name")
    add_shared_options(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_all = sub.add_parser("run-all", help="run every registered scenario")
    p_all.add_argument("--tag", default=None, help="filter by tag")
    p_all.add_argument(
        "--results-dir",
        default=None,
        help="write per-scenario CSV + markdown summaries here",
    )
    p_all.add_argument(
        "--quiet", action="store_true", help="suppress stdout tables"
    )
    add_shared_options(
        p_all, "--seed", "--repeats", "--scale", "--trees", "--smoke",
        "--cache-dir", "--out",
    )
    p_all.set_defaults(func=_cmd_run_all)

    _service_command(
        sub, "detect", _cmd_detect, DetectOptions,
        help="replay a (cached) fault fleet through the online "
        "detection service",
    )
    p_serve = _service_command(
        sub, "serve", _cmd_serve, ServeOptions, SuperviseOptions,
        help="serve the fleet live: a TCP ingestion server (+ HTTP ops "
        "API) fed by `repro loadgen` or real agents",
    )
    p_serve.add_argument(
        "--alerts", default=None,
        help="write alert events as JSON lines here instead of stdout "
        "(byte-identical to `repro detect` of the same flags)",
    )
    p_serve.add_argument(
        "--pid-file", default=None, metavar="PATH",
        help="write this process's pid here (rewritten by each "
        "supervised restart; removed on clean exit) so drills and "
        "scripts can target kill signals",
    )
    _service_command(
        sub, "loadgen", _cmd_loadgen, LoadgenOptions,
        help="drive a `repro serve --listen` server with the exact "
        "deterministic feed `repro detect` would replay",
    )

    p_chaos = sub.add_parser(
        "netchaos",
        help="seeded TCP chaos proxy between loadgen and a serve "
        "--listen server (latency, resets, partitions, corruption, "
        "truncation — deterministic per seed)",
    )
    p_chaos.add_argument(
        "--listen", required=True, metavar="HOST:PORT",
        help="address clients connect to (port 0 = ephemeral; see "
        "--port-file)",
    )
    p_chaos.add_argument(
        "--upstream", default=None, metavar="HOST:PORT",
        help="the real server's ingestion address",
    )
    p_chaos.add_argument(
        "--upstream-port-file", default=None, metavar="PATH",
        help="read the upstream port from this file per connection "
        "(follows supervised server restarts; or use --upstream)",
    )
    p_chaos.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the proxy's bound port here once listening",
    )
    add_flags(p_chaos, NetChaosConfig)
    p_chaos.set_defaults(func=_cmd_netchaos)

    p_store = sub.add_parser(
        "store",
        help="record and manage the columnar telemetry store "
        "(repro-telestore/v1)",
    )
    store_sub = p_store.add_subparsers(
        dest="store_command", required=True, parser_class=strict
    )

    p_record = _service_command(
        store_sub, "record", _cmd_store_record,
        help="record a fleet's held-out feed into a new store directory",
    )
    p_record.add_argument("root", help="store directory to create")
    p_record.add_argument(
        "--partition-ticks", type=int, default=1024,
        help="ticks per immutable partition file (default 1024)",
    )
    store = {}
    for name, command, help in (
        ("stat", _cmd_store_stat,
         "print the store manifest + partition index as JSON"),
        ("verify", _cmd_store_verify,
         "recompute every partition's SHA-256 content hash against the "
         "index (catches bit rot and truncation)"),
        ("compact", _cmd_store_compact,
         "merge adjacent small partitions (crash-safe: new files first, "
         "index flip second, unlink last)"),
        ("prune", _cmd_store_prune,
         "drop the oldest partitions; refuses (typed error) to drop data "
         "a detector checkpoint still references"),
    ):
        store[name] = store_sub.add_parser(name, help=help)
        store[name].add_argument("root", help="store directory")
        store[name].set_defaults(func=command)
    store["compact"].add_argument(
        "--target-ticks", type=int, default=None,
        help="merged partition size (default: the store's partition_ticks)",
    )
    store["prune"].add_argument(
        "--keep-last", type=int, required=True,
        help="number of newest partitions to retain",
    )
    store["prune"].add_argument(
        "--checkpoint", action="append", default=None,
        help="detector checkpoint .npz whose resume point must stay "
        "replayable (repeatable; <root>/checkpoints/*.npz are always "
        "respected)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.monitoring.telestore import TeleStoreError

    raw = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(raw)
    # The supervisor respawns this exact invocation minus its own flags.
    args.argv = raw
    try:
        return args.func(args)
    except _UsageError as exc:
        _status(f"error: {exc}")
        return 2
    except TeleStoreError as exc:  # not a store, a failed check, a refused prune
        _status(f"error: {exc}")
        return 1


def console_main() -> None:  # pragma: no cover - setuptools entry point
    import os

    try:
        sys.exit(main())
    except KeyboardInterrupt:
        # Ctrl-C (e.g. stopping `repro serve`) is a normal way to leave;
        # exit with the conventional 128 + SIGINT status instead of a
        # traceback.
        sys.exit(130)
    except BrokenPipeError:
        # Piping into `head` etc. closes stdout early; exit quietly with
        # the conventional 128 + SIGPIPE status instead of a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
