"""End-to-end benchmark of the online fleet-detection service.

    python3 perfbench/run.py --workload serve-1000 --seed 1 --seconds 20 --trace 0

This process is the load generator: single-threaded, one TCP
connection, frames built with ``repro.service.protocol``.  It builds the
fleet from ``--seed``, computes the reference alert stream in process
(not timed), caches every frame payload, and only then starts the
service process (``launch.py``) on another CPU.  It checks that the
service's alert JSONL is byte-identical to the reference, that no frame
was dropped, late or garbage and that every tick was acked, and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` serves once
untraced and once with every layer's calls wrapped, and reports the
per-layer metrics.  Workloads, metrics and the layer map are documented
in ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child: idle OpenBLAS
# threads add CPU to each cold start.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONHASHSEED"] = "0"

import argparse  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
#: Scratch space for stores, journals, alert files and traces; inside
#: the checkout and removed after every run.
RUN_ROOT = ROOT / ".perfbench-run"

#: The serving backend, named once.
BACKEND = "fused"
#: The shared trained fleet: 4 base nodes, replicated by reference.
BASE_NODES = 4
BLOCKS = 20
TREES = 20
CHUNK = 30
#: Tick rate the closed loop sustains at 1000 nodes on the reference
#: host; sizes serve-1000 so its measurement lasts about --seconds.
CLOSED_LOOP_TICKS_PER_S = 3.5
#: Wall seconds of one store-replay process (set-up, replay, exit) on
#: the reference host; sizes store-replay-256 to about --seconds.
REPLAY_PROCESS_S = 6.5
#: Service cold starts per run; set-up is reported as their median.
SETUPS = 3
#: Wall-clock budget of one run, which must end within 180 s.
RUN_BUDGET_S = 170.0


@dataclass(frozen=True)
class Serve:
    """A network serving workload (``repro serve --listen``)."""

    nodes: int
    #: Open-loop tick rate; ``None`` = closed loop, as fast as TCP takes.
    rate: float | None = None
    durable: bool = False


@dataclass(frozen=True)
class StoreReplay:
    """``replay_from_store`` over a recorded telemetry store."""

    nodes: int
    horizon: int = 3000
    partition_ticks: int = 1024


WORKLOADS = {
    "serve-1000": Serve(nodes=1000),
    "serve-durable-250": Serve(nodes=250, rate=5.0, durable=True),
    "store-replay-256": StoreReplay(nodes=256),
}

#: Metric name -> unit, as ``BENCHMARK.json`` lists them.
_BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}

#: Spans a traced run must record.  A layer the workload runs that
#: records none was patched where its caller does not look it up.
TRACED_SPANS = (
    "setup.import",
    "setup.build",
    "detector.process_block",
    "hotpath.tick",
    "rootcause.explain",
    "rootcause.block_sensors",
)
#: ``replay_from_store`` builds its detector itself, so only the
#: serve workloads call ``build_detector``.
SERVE_SPANS = (
    "setup.detector",
    "protocol.decode",
    "guard.process_block",
    "net.loop",
    "idle",
)
DURABLE_SPANS = ("wal.append", "wal.sync", "checkpoint.save")
STORE_SPANS = ("fastreplay.replay", "telestore.scan", "detector.process_blocks")
#: Largest share of the serving window the layers' self times plus
#: idle may miss or exceed in a traced serve run.
ACCOUNTING_TOLERANCE = 0.05


class BenchError(RuntimeError):
    """The run could not be measured (no result is printed)."""


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[8]


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (all its threads).

    ``/proc/<pid>/stat`` counts in clock ticks (10 ms); the scheduler's
    per-thread nanosecond run time is used when it covers the same
    time, which it does unless a thread has already exited.
    """
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is field 3 (state); utime/stime are fields 14/15.
    ticks_s = (int(fields[11]) + int(fields[12])) / _CLK_TCK
    try:
        ns = 0
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/schedstat", encoding="ascii") as fh:
                ns += int(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return ticks_s
    precise = ns / 1e9
    return precise if abs(precise - ticks_s) < 0.05 else ticks_s


def proc_hwm_mib(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def cpu_plan() -> tuple[int | None, int | None]:
    """(generator CPU, service CPU): one core each when there are two."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[1]


class Children:
    """Every process this run starts; all are stopped and reaped."""

    def __init__(self):
        self.procs: list[subprocess.Popen] = []

    def spawn(self, argv: list[str], log_path: Path) -> subprocess.Popen:
        with open(log_path, "wb") as out:
            proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=subprocess.STDOUT,
            )
        self.procs.append(proc)
        return proc

    def stop_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def tail(path: Path, lines: int = 20) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


# ----------------------------------------------------------------------
# Fleet, reference and payloads (generator side, never timed)
# ----------------------------------------------------------------------
def fleet_config(seed: int, nodes: int, horizon: int):
    from repro.service.api import ServiceConfig

    # train_frac 0.5: the first half trains, the second is the feed.
    return ServiceConfig(
        nodes=BASE_NODES,
        t=2 * horizon,
        blocks=BLOCKS,
        trees=TREES,
        chunk=CHUNK,
        # Node i is generated from seed + i; keep every node seed a
        # valid 32-bit RNG seed.
        seed=seed % (1 << 31),
        backend=BACKEND,
        replicate=nodes,
    )


def service_flags(config) -> list[str]:
    """The CLI flags that rebuild ``config`` in the service process."""
    return [
        "--nodes", str(config.nodes),
        "--t", str(config.t),
        "--blocks", str(config.blocks),
        "--trees", str(config.trees),
        "--chunk", str(config.chunk),
        "--seed", str(config.seed),
        "--backend", config.backend,
        "--replicate", str(config.replicate),
    ]


def reference_alerts(config, setup) -> bytes:
    """In-process ``repro.service.api.replay`` of the same fleet."""
    from repro.service.api import replay
    from repro.service.net import ListAlertSink

    sink = ListAlertSink()
    replay(config, setup, sinks=(sink,))
    if not sink.lines:
        log("this fleet raised no alerts; the check compares empty streams")
    return sink.text().encode("utf-8")


def tick_payloads(setup, n_ticks: int) -> list[list[bytes]]:
    """Per tick, the byte pieces of every node's binary frame.

    Every frame comes from ``protocol.encode_binary``.  A binary frame
    ends with its burst's values, which replicas share with their base
    node, so per node only the part before the values is kept and the
    values are stored once per distinct burst: whole frames of every
    serve-1000 tick would take about 2 GiB.
    """
    from repro.service.protocol import encode_binary

    shared: dict[tuple[int, int], bytes] = {}
    ticks: list[list[bytes]] = []
    paths = sorted(setup.eval_data)
    for ti in range(n_ticks):
        lo = ti * CHUNK
        parts: list[bytes] = []
        for path in paths:
            m = setup.eval_data[path]
            block = m[:, lo : lo + CHUNK]
            frame = encode_binary(path, ti, block)
            size = 8 * block.size
            values = shared.get((id(m), ti))
            if values is None:
                values = shared[(id(m), ti)] = frame[-size:]
            elif memoryview(frame)[-size:] != values:
                raise BenchError("a binary frame does not end with its values")
            parts += (frame[:-size], values)
        ticks.append(parts)
    return ticks


# ----------------------------------------------------------------------
# Service process
# ----------------------------------------------------------------------
@dataclass
class Service:
    proc: subprocess.Popen
    port: int
    ops_port: int
    spawned: float
    ready: float
    cpu_ready: float
    alerts: Path
    log: Path
    trace: Path | None


def serve_argv(config, workdir: Path, *, durable: bool, cpu, trace: Path | None):
    argv = [sys.executable, str(LAUNCH)]
    if cpu is not None:
        argv += ["--cpu", str(cpu)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    argv += [
        "--",
        "serve",
        "--listen", "127.0.0.1:0",
        "--ops", "127.0.0.1:0",
        "--port-file", str(workdir / "port"),
        "--alerts", str(workdir / "alerts.jsonl"),
        "--exit-on-idle",
        *service_flags(config),
    ]
    if durable:
        argv += [
            "--wal", str(workdir / "wal"),
            "--wal-fsync", "tick",
            "--checkpoint", str(workdir / "checkpoint.npz"),
            "--checkpoint-every", "10",
        ]
    return argv


def start_service(children, config, workdir: Path, *, durable, cpu, trace=False):
    """Start one ``repro serve --listen`` and wait until it is ready.

    Ready = its port file holds the bound port.  ``cpu_ready`` is the
    service's CPU time at that moment (polling happens on the other
    CPU, and the service is idle once bound).
    """
    workdir.mkdir(parents=True)
    trace_path = workdir / "trace.json" if trace else None
    argv = serve_argv(config, workdir, durable=durable, cpu=cpu, trace=trace_path)
    log_path = workdir / "service.log"
    spawned = time.perf_counter()
    proc = children.spawn(argv, log_path)
    deadline = spawned + 120.0
    ready = cpu_ready = None
    while True:
        if proc.poll() is not None:
            raise BenchError(
                f"service exited with {proc.returncode} during set-up:\n"
                + tail(log_path)
            )
        port = read_port(workdir / "port")
        if port is not None and ready is None:
            ready = time.perf_counter()
            cpu_ready = proc_cpu_s(proc.pid)
        # The ops port file is written right after the ingestion one.
        ops_port = read_port(workdir / "port.ops") if ready else None
        if ops_port is not None:
            return Service(
                proc=proc,
                port=port,
                ops_port=ops_port,
                spawned=spawned,
                ready=ready,
                cpu_ready=cpu_ready,
                alerts=workdir / "alerts.jsonl",
                log=log_path,
                trace=trace_path,
            )
        if time.perf_counter() > deadline:
            raise BenchError("service set-up timed out:\n" + tail(log_path))
        time.sleep(0.002)


def read_port(path: Path) -> int | None:
    """The port in a port file, once it is completely written."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    return int(text) if text.endswith("\n") else None


def ops_stats(port: int) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
@dataclass
class Drive:
    acked: int
    latencies_ms: list[float]
    first_send: float
    last_ack: float
    late_ms_max: float
    cpu_frac: float
    #: The still-open connection (the caller sends EOF on it).
    sock: socket.socket


def drive(
    port: int, ticks: list[list[bytes]], rate: float | None, deadline: float
) -> Drive:
    """Send every tick over one connection and collect the per-tick acks.

    Closed loop (``rate`` None): tick i+1 starts as soon as TCP accepted
    tick i; latency runs from the tick's first send.  Open loop: tick i
    is due at ``start + i / rate`` and latency runs from when it was due,
    so a stall also counts against the ticks queued behind it.
    """
    from repro.service.protocol import FrameDecoder, encode_acks_subscribe

    n = len(ticks)
    origin = [0.0] * n
    acked_at: list[float | None] = [None] * n
    n_acked = 0
    late = 0.0
    decoder = FrameDecoder()
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    try:
        sock.sendall(encode_acks_subscribe())
        sock.setblocking(False)
        cpu0 = time.process_time()
        start = time.perf_counter()
        cur = 0
        buf: memoryview | None = None
        off = 0
        while n_acked < n:
            now = time.perf_counter()
            if now > deadline:
                break
            timeout = 0.5
            if cur < n and buf is None:
                due = start + cur / rate if rate else None
                if due is None or now >= due:
                    buf = memoryview(b"".join(ticks[cur]))
                    off = 0
                    if due is None:
                        origin[cur] = time.perf_counter()
                    else:
                        origin[cur] = due
                        late = max(late, now - due)
                else:
                    timeout = min(timeout, due - now)
            writers = [sock] if buf is not None else []
            readable, writable, _ = select.select([sock], writers, [], timeout)
            if readable:
                data = sock.recv(1 << 16)
                if not data:
                    raise BenchError("service closed the connection")
                frames, _ = decoder.feed(data)
                t_ack = time.perf_counter()
                for frame in frames:
                    tick = frame.tick
                    if (
                        frame.control == "ack"
                        and 0 <= tick < n
                        and acked_at[tick] is None
                    ):
                        acked_at[tick] = t_ack
                        n_acked += 1
            if writable and buf is not None:
                try:
                    off += sock.send(buf[off:])
                except BlockingIOError:
                    pass
                if off == len(buf):
                    buf.release()
                    buf = None
                    cur += 1
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - start
    except BaseException:
        sock.close()
        raise
    return Drive(
        acked=n_acked,
        latencies_ms=[
            (a - o) * 1e3 for a, o in zip(acked_at, origin) if a is not None
        ],
        first_send=origin[0],
        last_ack=max((a for a in acked_at if a is not None), default=origin[0]),
        late_ms_max=late * 1e3,
        cpu_frac=cpu / wall if wall > 0 else 0.0,
        sock=sock,
    )


@dataclass
class ServeRun:
    setup_cpu_s: float
    setup_wall_s: float
    samples_per_s: float
    cpu_us_per_sample: float
    latencies_ms: list[float]
    peak_rss_mb: float
    attempted: int
    failed: int
    correct: bool
    loadgen_cpu_frac: float
    loadgen_late_ms_max: float
    trace: Path | None
    ready: float


def serve_once(
    children, config, workdir, ticks, samples, reference, *, spec, cpu, trace,
    deadline,
) -> ServeRun:
    """One measured server lifetime: set-up, the full feed, drain, check."""
    from repro.service.protocol import encode_eof

    svc = start_service(
        children, config, workdir, durable=spec.durable, cpu=cpu, trace=trace
    )
    setup_cpu = svc.cpu_ready
    result = drive(svc.port, ticks, spec.rate, deadline)
    sock = result.sock
    try:
        cpu_end = proc_cpu_s(svc.proc.pid)
        hwm = proc_hwm_mib(svc.proc.pid)
        stats = ops_stats(svc.ops_port)
        sock.setblocking(True)
        sock.sendall(encode_eof())
    finally:
        sock.close()
    try:
        rc = svc.proc.wait(timeout=max(5.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("service did not drain and exit:\n" + tail(svc.log))
    if rc != 0:
        raise BenchError(f"service exited with {rc}:\n" + tail(svc.log))
    n = len(ticks)
    bp = stats["backpressure"]
    lost = bp["dropped"] + bp["late_dropped"] + stats["protocol"]["garbage"]
    failed = (n - result.acked) + lost
    identical = svc.alerts.read_bytes() == reference
    if not identical:
        log(f"alert stream differs from the in-process reference ({svc.alerts})")
        failed = n
    if failed:
        log(
            f"failures: {n - result.acked} unacked ticks, "
            f"dropped {bp['dropped']}, late {bp['late_dropped']}, "
            f"garbage {stats['protocol']['garbage']}"
        )
    wall = result.last_ack - result.first_send
    return ServeRun(
        setup_cpu_s=setup_cpu,
        setup_wall_s=svc.ready - svc.spawned,
        samples_per_s=samples / wall,
        cpu_us_per_sample=(cpu_end - setup_cpu) / samples * 1e6,
        latencies_ms=result.latencies_ms,
        peak_rss_mb=hwm,
        attempted=n,
        failed=min(failed, n),
        correct=identical and failed == 0,
        loadgen_cpu_frac=result.cpu_frac,
        loadgen_late_ms_max=result.late_ms_max,
        trace=svc.trace,
        ready=svc.ready,
    )


def probe_setup(children, config, workdir, *, durable, cpu) -> tuple[float, float]:
    """Cold-start a service, read its set-up CPU and wall, then kill it."""
    svc = start_service(children, config, workdir, durable=durable, cpu=cpu)
    svc.proc.send_signal(signal.SIGKILL)
    svc.proc.wait()
    return svc.cpu_ready, svc.ready - svc.spawned


def run_serve(name, spec: Serve, seed, seconds, trace, rundir, children):
    from repro.service.api import build_setup

    gen_cpu, svc_cpu = cpu_plan()
    if gen_cpu is not None:
        os.sched_setaffinity(0, {gen_cpu})
    if spec.rate:
        n_ticks = max(10, round(seconds * spec.rate))
    else:
        n_ticks = max(8, round(seconds * CLOSED_LOOP_TICKS_PER_S))
    config = fleet_config(seed, spec.nodes, n_ticks * CHUNK)
    setup = build_setup(config)
    reference = reference_alerts(config, setup)
    ticks = tick_payloads(setup, n_ticks)
    samples = n_ticks * CHUNK * spec.nodes
    deadline = STARTED + RUN_BUDGET_S
    log(f"{name}: {spec.nodes} nodes, {n_ticks} ticks, reference ready")

    if trace:
        base = serve_once(
            children, config, rundir / "untraced", ticks, samples, reference,
            spec=spec, cpu=svc_cpu, trace=False, deadline=deadline,
        )
        traced = serve_once(
            children, config, rundir / "traced", ticks, samples, reference,
            spec=spec, cpu=svc_cpu, trace=True, deadline=deadline,
        )
        spans = TRACED_SPANS + SERVE_SPANS + (DURABLE_SPANS if spec.durable else ())
        metrics, info, valid = layer_metrics(
            traced.trace, traced.ready, traced.setup_wall_s,
            expected=spans + (("alerts.sink",) if reference else ()),
            serving=True,
        )
        metrics["loadgen.cpu_frac"] = traced.loadgen_cpu_frac
        metrics["loadgen.late_ms_max"] = traced.loadgen_late_ms_max
        # The tail comes from the untraced server.
        metrics["loadgen.latency_p90_ms"] = p90(base.latencies_ms)
        if spec.rate:
            # Open loop: throughput is fixed by the schedule, so the
            # overhead shows as server CPU per sample.
            overhead = traced.cpu_us_per_sample / base.cpu_us_per_sample - 1.0
        else:
            overhead = 1.0 - traced.samples_per_s / base.samples_per_s
        metrics["trace.overhead_frac"] = overhead
        return finish([base, traced], metrics, PER_LAYER, info, valid)

    setup_cpu: list[float] = []
    setup_wall: list[float] = []
    for i in range(SETUPS - 1):
        cpu_s, wall_s = probe_setup(
            children, config, rundir / f"probe{i}", durable=spec.durable, cpu=svc_cpu
        )
        setup_cpu.append(cpu_s)
        setup_wall.append(wall_s)
    run = serve_once(
        children, config, rundir / "measured", ticks, samples, reference,
        spec=spec, cpu=svc_cpu, trace=False, deadline=deadline,
    )
    setup_cpu.append(run.setup_cpu_s)
    setup_wall.append(run.setup_wall_s)
    metrics = {
        "setup_s": p50(setup_cpu),
        "samples_per_s": run.samples_per_s,
        "latency_p50_ms": p50(run.latencies_ms),
        "cpu_us_per_sample": run.cpu_us_per_sample,
        "peak_rss_mb": run.peak_rss_mb,
        "ok_frac": 1.0 - run.failed / run.attempted,
    }
    info = {
        "setup_wall_s": p50(setup_wall),
        "setup_cpu_all": setup_cpu,
        "setup_wall_all": setup_wall,
        "ticks": n_ticks,
        "latency_p90_ms": p90(run.latencies_ms),
        "latency_samples": len(run.latencies_ms),
        "loadgen_cpu_frac": run.loadgen_cpu_frac,
        "loadgen_late_ms_max": run.loadgen_late_ms_max,
    }
    return finish([run], metrics, END_TO_END, info)


# ----------------------------------------------------------------------
# Store replay
# ----------------------------------------------------------------------
@dataclass
class ReplayRun:
    setup_cpu_s: float
    setup_wall_s: float
    call_s: float
    call_cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    correct: bool
    trace: Path | None
    ready: float


def replay_once(
    children, config, store, workdir, reference, *, cpu, trace, deadline
) -> ReplayRun:
    """One replay process: set-up, ``replay_from_store``, exit, check."""
    workdir.mkdir(parents=True)
    marks = workdir / "marks.json"
    alerts = workdir / "alerts.jsonl"
    trace_path = workdir / "trace.json" if trace else None
    argv = [sys.executable, str(LAUNCH), "--marks", str(marks)]
    if cpu is not None:
        argv += ["--cpu", str(cpu)]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    argv += [
        "--", "detect", "--from-store", str(store), "--alerts", str(alerts),
        *service_flags(config),
    ]
    log_path = workdir / "replay.log"
    spawned = time.perf_counter()
    proc = children.spawn(argv, log_path)
    try:
        rc = proc.wait(timeout=max(5.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("store replay timed out:\n" + tail(log_path))
    if rc != 0:
        raise BenchError(f"store replay exited with {rc}:\n" + tail(log_path))
    m = json.loads(marks.read_text(encoding="utf-8"))
    (t_call, cpu_call), (t_ret, cpu_ret) = m["call"], m["return"]
    identical = alerts.read_bytes() == reference
    if not identical:
        log(f"store replay alerts differ from the live reference ({alerts})")
    return ReplayRun(
        setup_cpu_s=cpu_call,
        setup_wall_s=t_call - spawned,
        call_s=t_ret - t_call,
        call_cpu_s=cpu_ret - cpu_call,
        peak_rss_mb=m["maxrss_kib"] / 1024.0,
        attempted=1,
        failed=0 if identical else 1,
        correct=identical,
        trace=trace_path,
        ready=t_call,
    )


def run_store(name, spec: StoreReplay, seed, seconds, trace, rundir, children):
    from repro.service.api import build_setup
    from repro.service.fastreplay import record_fleet

    gen_cpu, svc_cpu = cpu_plan()
    if gen_cpu is not None:
        os.sched_setaffinity(0, {gen_cpu})
    config = fleet_config(seed, spec.nodes, spec.horizon)
    setup = build_setup(config)
    reference = reference_alerts(config, setup)
    store = rundir / "store"
    record_fleet(
        setup,
        store,
        partition_ticks=spec.partition_ticks,
        chunk=CHUNK,
        guarded=config.guard,
    )
    del setup
    samples = spec.nodes * spec.horizon
    deadline = STARTED + RUN_BUDGET_S
    log(f"{name}: {spec.nodes}-node store of {spec.horizon} samples recorded")

    if trace:
        base = replay_once(
            children, config, store, rundir / "untraced", reference,
            cpu=svc_cpu, trace=False, deadline=deadline,
        )
        traced = replay_once(
            children, config, store, rundir / "traced", reference,
            cpu=svc_cpu, trace=True, deadline=deadline,
        )
        spans = TRACED_SPANS + STORE_SPANS
        metrics, info, valid = layer_metrics(
            traced.trace, traced.ready, traced.setup_wall_s,
            expected=spans + (("alerts.sink",) if reference else ()),
            serving=False,
        )
        metrics["trace.overhead_frac"] = 1.0 - base.call_s / traced.call_s
        return finish([base, traced], metrics, PER_LAYER, info, valid)

    # Enough replays to fill --seconds, at least SETUPS for set-up.
    replays = max(SETUPS, round(seconds / REPLAY_PROCESS_S))
    runs = [
        replay_once(
            children, config, store, rundir / f"replay{i}", reference,
            cpu=svc_cpu, trace=False, deadline=deadline,
        )
        for i in range(replays)
    ]
    calls_ms = [r.call_s * 1e3 for r in runs]
    metrics = {
        "setup_s": p50([r.setup_cpu_s for r in runs]),
        "samples_per_s": p50([samples / r.call_s for r in runs]),
        "latency_p50_ms": p50(calls_ms),
        "cpu_us_per_sample": p50([r.call_cpu_s / samples * 1e6 for r in runs]),
        "peak_rss_mb": p50([r.peak_rss_mb for r in runs]),
        "ok_frac": 1.0 - sum(r.failed for r in runs) / len(runs),
    }
    info = {
        "setup_wall_s": p50([r.setup_wall_s for r in runs]),
        "setup_cpu_all": [r.setup_cpu_s for r in runs],
        "setup_wall_all": [r.setup_wall_s for r in runs],
        "replays": replays,
    }
    return finish(runs, metrics, END_TO_END, info)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def layer_metrics(
    trace_path: Path, ready: float, setup_wall_s: float, *, expected, serving: bool
) -> tuple[dict, dict, bool]:
    """(per-layer metrics, other trace figures, whether the trace is valid).

    The trace is invalid when a span name in ``expected`` was never
    recorded, or, for a network server (``serving``), when the layers'
    self times plus idle miss the serving window's wall time by more
    than ``ACCOUNTING_TOLERANCE``.  A layer that does not run reports 0;
    figures ``BENCHMARK.json`` does not list as metrics (the counts
    fixed by the workload, ``trace.accounted_frac``) go to ``info``.
    """
    sys.path.insert(0, str(HERE))
    from tracing import summarize

    doc = json.loads(trace_path.read_text(encoding="utf-8"))
    out = summarize(doc)
    setup_end = out.pop("setup_end")
    out["setup.bind_s"] = max(0.0, ready - setup_end) if setup_end else 0.0
    out["setup.wall_s"] = setup_wall_s
    valid = True
    recorded = Counter(doc["names"][span[0]] for span in doc["spans"])
    untimed = [name for name in expected if not recorded[name]]
    if untimed:
        log(f"the trace holds no span of {untimed}: those layers were not timed")
        valid = False
    acc = out["trace.accounted_frac"]
    if serving and abs(acc - 1.0) > ACCOUNTING_TOLERANCE:
        log(f"layer self times + idle cover {acc:.3f} of server wall time")
        valid = False
    metrics = {name: out.pop(name, 0.0) for name in PER_LAYER}
    return metrics, out, valid


def finish(
    runs, metrics: dict, units: dict, info: dict | None = None, valid: bool = True
) -> dict:
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": valid and all(r.correct for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {
            k: {"value": float(metrics[k]), "unit": unit}
            for k, unit in units.items()
        },
        "info": info or {},
    }


STARTED = time.perf_counter()


def main() -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the online fleet-detection service"
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "service" / "api.py").is_file():
        log(f"no repro sources under {SRC}; run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    spec = WORKLOADS[args.workload]
    rundir = RUN_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    children = Children()
    try:
        runner = run_store if isinstance(spec, StoreReplay) else run_serve
        result = runner(
            args.workload, spec, args.seed, args.seconds, bool(args.trace),
            rundir, children,
        )
    except (BenchError, OSError, ValueError, KeyError) as exc:
        log(f"error: {exc}")
        return 1
    finally:
        children.stop_all()
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            RUN_ROOT.rmdir()
        except OSError:
            pass
    info = result.pop("info")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
