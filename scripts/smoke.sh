#!/usr/bin/env bash
# The CLI smokes: every paper scenario, then the service commands
# EXPERIMENTS.md documents, at --smoke scale, each service command
# checking its alert stream byte for byte.  Needs only numpy (no CLI
# command imports scipy); run from anywhere.
# scripts/ci.sh runs it after the test suite.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "== paper smoke: Table I, Figures 2-7 and Section IV-F via run-all =="
# Every paper artifact through the one entry point: one CSV per paper
# scenario, and the heatmap PGMs of Figures 2, 6 and 7.
python -m repro run-all --tag paper --smoke --quiet \
    --results-dir "$SMOKE_DIR/paper" --out "$SMOKE_DIR/figures"
paper=(table1 fig2 fig3 fig4 fig5 fig6 fig7 crossarch)
for name in "${paper[@]}"; do
    [[ -s "$SMOKE_DIR/paper/$name.csv" ]] || { echo "no CSV for $name"; exit 1; }
done
csvs=("$SMOKE_DIR"/paper/*.csv)
[[ ${#csvs[@]} -eq ${#paper[@]} ]] || {
    echo "expected ${#paper[@]} paper CSVs, found ${#csvs[@]}"; exit 1; }
for fig in fig2 fig6 fig7; do
    compgen -G "$SMOKE_DIR/figures/${fig}_*.pgm" > /dev/null \
        || { echo "no $fig heatmap written"; exit 1; }
done

echo "== service smoke: detect must reproduce the golden alert stream =="
python -m repro detect --smoke --cache-dir "$SMOKE_DIR/cache" \
    --alerts "$SMOKE_DIR/detect.jsonl"
cmp tests/golden/detect_smoke_alerts.jsonl "$SMOKE_DIR/detect.jsonl"
# Again against the now-warm artifact cache: the same bytes.
python -m repro detect --smoke --cache-dir "$SMOKE_DIR/cache" \
    --alerts "$SMOKE_DIR/detect2.jsonl"
cmp "$SMOKE_DIR/detect.jsonl" "$SMOKE_DIR/detect2.jsonl"
python -m repro run fleet-detect --smoke --cache-dir "$SMOKE_DIR/cache"

echo "== crash-recovery smoke: kill, resume, byte-identical alerts =="
# Twice, so a flaky pass can't hide: interrupt the guarded replay at
# tick 3 with per-tick checkpoints, resume from the snapshot, and the
# stitched alert stream must equal the uninterrupted run to the byte.
for attempt in 1 2; do
    rm -f "$SMOKE_DIR/ck.npz" "$SMOKE_DIR/resumed.jsonl"
    python -m repro detect --smoke --cache-dir "$SMOKE_DIR/cache" \
        --checkpoint "$SMOKE_DIR/ck.npz" --stop-after 3 \
        --alerts "$SMOKE_DIR/resumed.jsonl"
    python -m repro detect --smoke --cache-dir "$SMOKE_DIR/cache" \
        --checkpoint "$SMOKE_DIR/ck.npz" --resume \
        --alerts "$SMOKE_DIR/resumed.jsonl"
    cmp "$SMOKE_DIR/detect.jsonl" "$SMOKE_DIR/resumed.jsonl"
done

echo "== chaos scenario smoke (seeded faults + kill-and-restore) =="
python -m repro run fleet-detect-chaos --smoke --cache-dir "$SMOKE_DIR/cache"

echo "== telemetry store smoke: replay-from-store must match live =="
# Record the smoke window into a repro-telestore/v1 store, replay it,
# and the alert JSONL must equal live guarded ingestion of the same
# feed — byte for byte.
python -m repro store record "$SMOKE_DIR/telestore" --smoke \
    --cache-dir "$SMOKE_DIR/cache"
python -m repro store verify "$SMOKE_DIR/telestore"
python -m repro detect --smoke --cache-dir "$SMOKE_DIR/cache" \
    --from-store "$SMOKE_DIR/telestore" \
    --alerts "$SMOKE_DIR/store.jsonl"
cmp "$SMOKE_DIR/detect.jsonl" "$SMOKE_DIR/store.jsonl"
# float32 has no oracle; its live stream (200-sample bursts) and its
# store replay (whole partitions) must still agree byte for byte.
python -m repro detect --smoke --mode float32 --cache-dir "$SMOKE_DIR/cache" \
    --alerts "$SMOKE_DIR/detect32.jsonl"
python -m repro detect --smoke --mode float32 --cache-dir "$SMOKE_DIR/cache" \
    --from-store "$SMOKE_DIR/telestore" \
    --alerts "$SMOKE_DIR/store32.jsonl"
cmp "$SMOKE_DIR/detect32.jsonl" "$SMOKE_DIR/store32.jsonl"
python -m repro run fleet-replay --smoke --cache-dir "$SMOKE_DIR/cache"

echo "== network serve smoke: loopback ingestion must match in-process =="
# A 50-node replicated smoke fleet served over a loopback socket: start
# the ingestion server on an ephemeral port, drive it with the CLI load
# generator, and the network-ingested alert JSONL must equal in-process
# replay of the same fleet — byte for byte.  All three commands run
# with default flags: the same flags mean the same bursts in each.
rm -f "$SMOKE_DIR/port" "$SMOKE_DIR/net.jsonl"
python -m repro serve --smoke --cache-dir "$SMOKE_DIR/cache" \
    --replicate 50 --listen 127.0.0.1:0 \
    --port-file "$SMOKE_DIR/port" --exit-on-idle \
    --alerts "$SMOKE_DIR/net.jsonl" &
SERVE_PID=$!
for _ in $(seq 1 150); do
    [[ -s "$SMOKE_DIR/port" ]] && break
    sleep 0.2
done
[[ -s "$SMOKE_DIR/port" ]] || { echo "serve never wrote its port file"; exit 1; }
python -m repro loadgen --smoke --cache-dir "$SMOKE_DIR/cache" \
    --replicate 50 --connect "127.0.0.1:$(cat "$SMOKE_DIR/port")"
wait "$SERVE_PID"
python -m repro detect --smoke --cache-dir "$SMOKE_DIR/cache" \
    --replicate 50 --alerts "$SMOKE_DIR/inproc.jsonl"
cmp "$SMOKE_DIR/net.jsonl" "$SMOKE_DIR/inproc.jsonl"
python -m repro run fleet-serve --smoke --cache-dir "$SMOKE_DIR/cache"

echo "== rejected serve and netchaos flags: exit 2 before any work =="
# A flag the server rejects must fail fast with a usage error (exit 2),
# never after the fleet trains and never as a supervised crash loop.
rc=0
timeout 30 python -m repro serve --smoke --listen 127.0.0.1:0 \
    --supervise --queue-max 0 2> "$SMOKE_DIR/reject.err" || rc=$?
[[ $rc -eq 2 ]] || { echo "rejected flags exited $rc, not 2"; exit 1; }
grep -q "error:" "$SMOKE_DIR/reject.err"
rc=0
timeout 30 python -m repro netchaos --listen 127.0.0.1:0 \
    --upstream 127.0.0.1:1 --latency-ms -1 2> "$SMOKE_DIR/reject.err" || rc=$?
[[ $rc -eq 2 ]] || { echo "rejected netchaos value exited $rc, not 2"; exit 1; }
grep -q "error:" "$SMOKE_DIR/reject.err"

echo "== durable serve smoke: supervised kill -9 under network chaos =="
# The crash-durability claim end to end, against the real CLI: a
# supervised `repro serve` with a write-ahead journal and per-tick
# networked checkpoints, fed by a resuming loadgen through the seeded
# chaos proxy.  Mid-stream the serving child is SIGKILLed via its pid
# file; the supervisor respawns it, recovery replays checkpoint + WAL,
# the proxy and client follow the port file onto the fresh ephemeral
# port — and the final alert JSONL must still equal the in-process
# replay, byte for byte.  Extra arguments go to `repro serve`.
durable_drill() {
    rm -rf "$SMOKE_DIR/wal"
    rm -f "$SMOKE_DIR/dport" "$SMOKE_DIR/cport" "$SMOKE_DIR/serve.pid" \
        "$SMOKE_DIR/durable.jsonl" "$SMOKE_DIR/durable.npz"
    python -m repro serve --smoke --cache-dir "$SMOKE_DIR/cache" \
        --listen 127.0.0.1:0 --port-file "$SMOKE_DIR/dport" \
        --exit-on-idle --supervise --pid-file "$SMOKE_DIR/serve.pid" \
        --wal "$SMOKE_DIR/wal" --wal-fsync tick \
        --checkpoint "$SMOKE_DIR/durable.npz" --checkpoint-every 1 \
        --model "$SMOKE_DIR/fleet.npz" \
        --alerts "$SMOKE_DIR/durable.jsonl" "$@" &
    SUP_PID=$!
    for _ in $(seq 1 150); do
        [[ -s "$SMOKE_DIR/dport" ]] && break
        sleep 0.2
    done
    [[ -s "$SMOKE_DIR/dport" ]] || { echo "supervised serve never bound"; exit 1; }
    python -m repro netchaos --listen 127.0.0.1:0 \
        --upstream-port-file "$SMOKE_DIR/dport" \
        --port-file "$SMOKE_DIR/cport" \
        --seed 0 --corrupt-per-mb 2 --truncate-per-mb 0.5 &
    CHAOS_PID=$!
    for _ in $(seq 1 50); do
        [[ -s "$SMOKE_DIR/cport" ]] && break
        sleep 0.2
    done
    [[ -s "$SMOKE_DIR/cport" ]] || { echo "chaos proxy never bound"; exit 1; }
    # Pace the feed so the kill below reliably lands mid-stream.
    python -m repro loadgen --smoke --cache-dir "$SMOKE_DIR/cache" \
        --interval 0.25 --resume --port-file "$SMOKE_DIR/cport" &
    LOAD_PID=$!
    # A checkpoint on disk proves durable progress; then kill -9 the child.
    for _ in $(seq 1 300); do
        [[ -f "$SMOKE_DIR/durable.npz" ]] && break
        sleep 0.1
    done
    [[ -f "$SMOKE_DIR/durable.npz" ]] || { echo "no checkpoint before kill"; exit 1; }
    kill -9 "$(cat "$SMOKE_DIR/serve.pid")"
    wait "$LOAD_PID"
    wait "$SUP_PID"
    kill "$CHAOS_PID" 2>/dev/null || true
    cmp "$SMOKE_DIR/detect.jsonl" "$SMOKE_DIR/durable.jsonl"
}
durable_drill
echo "== durable serve smoke again, with a 1 s barrier deadline =="
# Again with a barrier deadline shorter than the client's ack stall: a
# tick lost in the proxy must be re-sent, never skipped and acked.
durable_drill --tick-timeout 1
python -m repro run fleet-serve-chaos --smoke --cache-dir "$SMOKE_DIR/cache"

echo "Smokes passed."
