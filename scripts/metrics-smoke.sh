#!/bin/sh
# metrics-smoke: boot a 1x4 RingBFT cluster on loopback TCP, push a little
# client traffic, scrape replica 0's /metrics endpoint, and assert that the
# exposition carries live series from every instrumented layer — consensus
# (pbft/ringbft), transport (tcpnet), and durability (wal). Exercises the
# same endpoint the ops runbook scrapes, so a regression in registration or
# exposition fails CI, not a deployment.
#
# Usage: scripts/metrics-smoke.sh [workdir]
set -eu

WORK=${1:-$(mktemp -d)}
mkdir -p "$WORK"
BASE_PORT=${METRICS_SMOKE_PORT:-7750}
METRICS_PORT=$((BASE_PORT + 10))
CLIENT_PORT=$((BASE_PORT + 11))
TOPO="$WORK/topo.json"
PIDS=""

cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
}
trap cleanup EXIT INT TERM

cat >"$TOPO" <<EOF
{
  "shards": 1,
  "replicasPerShard": 4,
  "records": 512,
  "seed": 42,
  "nodes": {
    "0/0": "127.0.0.1:$BASE_PORT",
    "0/1": "127.0.0.1:$((BASE_PORT + 1))",
    "0/2": "127.0.0.1:$((BASE_PORT + 2))",
    "0/3": "127.0.0.1:$((BASE_PORT + 3))"
  },
  "clients": {"1": "127.0.0.1:$CLIENT_PORT"}
}
EOF

echo "== metrics-smoke: building binaries"
go build -o "$WORK/ringbft-node" ./cmd/ringbft-node
go build -o "$WORK/ringbft-client" ./cmd/ringbft-client

echo "== metrics-smoke: starting 4 replicas (metrics on :$METRICS_PORT)"
for i in 0 1 2 3; do
    addr=""
    if [ "$i" = 0 ]; then addr="-metrics-addr 127.0.0.1:$METRICS_PORT"; fi
    # shellcheck disable=SC2086  # $addr is intentionally word-split
    "$WORK/ringbft-node" -topology "$TOPO" -shard 0 -index "$i" \
        -datadir "$WORK/data" $addr >"$WORK/node-$i.log" 2>&1 &
    PIDS="$PIDS $!"
done

echo "== metrics-smoke: submitting client traffic"
ok=0
for attempt in 1 2 3 4 5; do
    if "$WORK/ringbft-client" -topology "$TOPO" -listen "127.0.0.1:$CLIENT_PORT" \
        -batches 5 -batch 4 -cross 0 >"$WORK/client.log" 2>&1; then
        ok=1
        break
    fi
    echo "   client attempt $attempt failed (cluster still dialing?); retrying"
    sleep 1
done
if [ "$ok" != 1 ]; then
    echo "metrics-smoke: client never completed" >&2
    cat "$WORK/client.log" >&2
    exit 1
fi

echo "== metrics-smoke: scraping http://127.0.0.1:$METRICS_PORT/metrics"
SCRAPE="$WORK/metrics.txt"
if command -v curl >/dev/null 2>&1; then
    curl -sf "http://127.0.0.1:$METRICS_PORT/metrics" >"$SCRAPE"
else
    wget -qO "$SCRAPE" "http://127.0.0.1:$METRICS_PORT/metrics"
fi

# Every instrumented layer must surface at least one live series, the
# series the benchmark reads by name (ringbft_forward_quorum_seconds in
# benchmark/layers.go) must keep that name, and the host kernel's
# backpressure clamp must be exported by the one binary that wires it.
fail=0
for series in \
    pbft_phase_transitions_total \
    ringbft_executed_txns_total \
    ringbft_view_changes_total \
    ringbft_forward_quorum_seconds \
    ringbft_pipeline_clamped_total \
    tcpnet_frames_sent_total \
    wal_fsync_seconds; do
    if ! grep -q "^$series" "$SCRAPE"; then
        echo "metrics-smoke: series $series missing from /metrics" >&2
        fail=1
    fi
done
# Consensus must actually have moved: the commit-phase counter is non-zero.
if ! grep 'pbft_phase_transitions_total{.*phase="commit"' "$SCRAPE" |
    grep -qv ' 0$'; then
    echo "metrics-smoke: no committed phase transitions recorded" >&2
    fail=1
fi
if [ "$fail" != 0 ]; then
    echo "-- scrape follows --" >&2
    cat "$SCRAPE" >&2
    exit 1
fi

echo "== metrics-smoke: OK ($(wc -l <"$SCRAPE") exposition lines)"
