"""Steadiness check: run the benchmark over several seeds, twice.

    python3 perfbench/steady.py

Each of two sets runs every workload of ``BENCHMARK.json`` once per
seed (seeds 1..10 in set 1, 11..20 in set 2), untraced.  For every
end-to-end metric it prints the median, the first and third quartiles
and the spread (interquartile range as a share of the median), per set,
next to the metric's bound from ``BENCHMARK.json``, plus how far the
second set's median moved from the first.  ``setup.wall_s`` (wall time
to ready, which the benchmark does not use for ``setup_s``) is reported
beside ``setup_s``, and the serve workloads' tick latency p90 (``p90``).
The table is also written to ``perfbench/STEADINESS.md``; the exit code
is 0 when every bounded spread and median shift is within its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPORT = HERE / "STEADINESS.md"
SEEDS = 10
SETS = 2


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_one(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = next(
        (json.loads(line[5:]) for line in lines if line.startswith("info ")), {}
    )
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # Not bounded metrics, listed for the record.
    for key, name in (("setup_wall_s", "setup.wall_s"), ("latency_p90_ms", "p90")):
        if key in info:
            values[name] = info[key]
    return values


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    # results[workload][set] = list of per-run metric dicts
    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            runs = []
            for i in range(SEEDS):
                seed = s * SEEDS + i + 1
                t0 = time.perf_counter()
                runs.append(run_one(w, seed, seconds))
                print(
                    f"set {s + 1} {w} seed {seed}: {time.perf_counter() - t0:.1f}s",
                    file=sys.stderr,
                    flush=True,
                )
            results[w].append(runs)

    rows = []
    header = (
        "| workload | metric | bound | "
        + " | ".join(f"set {s + 1} median [q1, q3] (spread)" for s in range(SETS))
        + " | median shift |"
    )
    rows.append(header)
    rows.append("|" + "---|" * (4 + SETS))
    ok = True
    for w in workloads:
        names = list(results[w][0][0])
        for name in names:
            bound = bounds.get(name)
            cells = []
            medians = []
            for runs in results[w]:
                q1, med, q3 = quartiles([r[name] for r in runs])
                spread = (q3 - q1) / med if med else 0.0
                medians.append(med)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({spread:.1%})")
                if bound is not None and spread > bound:
                    ok = False
            shift = max((abs(m / medians[0] - 1.0) for m in medians[1:]), default=0.0)
            if bound is not None and shift > bound:
                ok = False
            rows.append(
                f"| {w} | {name} | {bound if bound is not None else '-'} | "
                + " | ".join(cells)
                + f" | {shift:.1%} |"
            )
    table = "\n".join(rows)
    verdict = "steady: " + ("yes" if ok else "NO")
    print(table)
    print(verdict)
    REPORT.write_text(
        "# Steadiness report\n\n"
        f"`perfbench/steady.py`: {SETS} sets x {SEEDS} seeds per workload, "
        f"{seconds} s runs, tracing off.  Spread = (q3 - q1) / median over "
        "one set's runs; median shift = distance of the second set's median "
        "from the first set's.  Host and method: `perfbench/README.md`.\n\n"
        + table + "\n\n" + verdict + "\n",
        encoding="utf-8",
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
