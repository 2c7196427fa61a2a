#!/usr/bin/env bash
# Renders BENCH_serve.json from the /v1/rate serving-path load test and
# gates the PR's latency and allocation contracts:
#
#   - server-side rate p99 <= SERVE_P99_GATE_US (default 50 ms): the
#     handler-measured histogram from GET /v1/stats, accumulated over
#     the load window at an offered LOAD_QPS (default 200 req/s)
#     while a background campaign streams the whole time. This is the
#     serving path's own latency — decode, compute, encode under the
#     admission gate — and sits near 1 ms even on a 1-core host with
#     the campaign saturating it;
#   - client-observed p99 <= LOAD_P99_GATE_US (default 1 s): the
#     starvation backstop. On a 1-core runner the client number is
#     dominated by OS/runtime scheduling between the saturated server
#     process and the driver (tens to hundreds of ms), so this gate is
#     deliberately loose — it exists to fail when rate requests sit
#     behind campaign compute for seconds, which is exactly what the
#     admission gate prevents;
#   - allocations per request on the serveRate hot path (measured by
#     benchmark, below net/http): <= 5.
#
# The driver (cmd/loadtest) exits non-zero if ANY rate request fails,
# so "zero dropped under campaign pressure" is gated implicitly. The
# load is open-loop (paced tokens): latency reflects campaign-induced
# queueing, not the driver saturating itself; if the server can't
# sustain the offered rate the driver degrades to closed-loop and the
# p99 shows it.
#
# Usage: scripts/loadtest.sh [output.json]
#   LOAD_DURATION=10s LOAD_CONCURRENCY=64 scripts/loadtest.sh  # heavier
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_serve.json}"
duration="${LOAD_DURATION:-5s}"
concurrency="${LOAD_CONCURRENCY:-16}"
qps="${LOAD_QPS:-200}"
campaign="${LOAD_CAMPAIGN:-16}"
p99_gate_us="${LOAD_P99_GATE_US:-1000000}"
serve_p99_gate_us="${SERVE_P99_GATE_US:-50000}"
addr=127.0.0.1:8498

bindir=$(mktemp -d)
go build -o "$bindir/zhuyi" ./cmd/zhuyi
go build -o "$bindir/loadtest" ./cmd/loadtest

"$bindir/zhuyi" serve -addr "$addr" &
pid=$!
trap 'kill -TERM $pid 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
  curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "http://$addr/healthz" >/dev/null

json_report=$("$bindir/loadtest" -addr "http://$addr" \
  -duration "$duration" -concurrency "$concurrency" -qps "$qps" -campaign "$campaign")

# The server's own per-endpoint histogram (the /v1/stats latency
# block): handler-measured time of the pooled rate path under the
# admission gate.
server_stats=$(curl -s "http://$addr/v1/stats")
srv_field() {
  echo "$server_stats" | awk -v key="\"$1\":" \
    '/"route": "POST \/v1\/rate"/{f=1} f && index($0, key){gsub(/,/,"",$2); print $2; exit}'
}
srv_count=$(srv_field count)
srv_mean=$(srv_field mean_us)
srv_p50=$(srv_field p50_us)
srv_p99=$(srv_field p99_us)
srv_max=$(srv_field max_us)
yields=$(echo "$server_stats" | awk '/"yields":/{gsub(/,/,"",$2); print $2; exit}')
waited_ms=$(echo "$server_stats" | awk '/"waited_ms":/{gsub(/,/,"",$2); print $2; exit}')
[ -n "$srv_p99" ] || { echo "loadtest: no POST /v1/rate latency row in /v1/stats" >&2; exit 1; }

kill -TERM $pid
wait $pid
trap - EXIT

# Allocations per request, measured below net/http at the serveRate
# boundary (the same numbers TestRateServeAllocBudget gates).
raw=$(go test -run '^$' -bench 'BenchmarkRateServeJSON$' \
  -benchtime 2000x -benchmem ./internal/server)
echo "$raw"
cpu=$(echo "$raw" | awk -F': ' '/^cpu:/ {print $2}')
allocs_json=$(echo "$raw" | awk '/^BenchmarkRateServeJSON/ {print $(NF-1)}')
[ -n "$allocs_json" ] || {
  echo "loadtest: missing alloc counts in bench output" >&2; exit 1; }

cat > "$out" <<JSON
{
  "generated_by": "scripts/loadtest.sh (duration $duration, concurrency $concurrency, offered $qps req/s, background campaign batch $campaign)",
  "cpu": "$cpu",
  "workload": "open-loop POST /v1/rate at the offered rate against a live zhuyi serve while a fresh-seeded campaign streams continuously; latency is the client-observed HTTP round trip (see cmd/loadtest)",
  "json": $json_report,
  "rate_endpoint_server_side": {
    "count": $srv_count,
    "mean_us": $srv_mean,
    "p50_us": $srv_p50,
    "p99_us": $srv_p99,
    "max_us": $srv_max,
    "admission_yields": $yields,
    "admission_waited_ms": $waited_ms
  },
  "allocs_per_request": { "json": $allocs_json },
  "gates": { "server_p99_us_max": $serve_p99_gate_us, "client_p99_us_max": $p99_gate_us, "allocs_json_max": 5 },
  "notes": [
    "rate_endpoint_server_side is the handler-measured histogram from GET /v1/stats over the load window: the pooled decode-compute-encode path under the admission gate. This is the number the primary p99 gate holds.",
    "The client-observed json latencies include OS and runtime scheduling between the saturated server process and the driver process; on a 1-core host that dominates (tens of ms) even though the handler itself answers in under a millisecond. The client gate is a loose starvation backstop.",
    "allocs_per_request is measured below net/http at the serveRate boundary (BenchmarkRateServeJSON with -benchmem): the pooled decoder, compute chain, and encoder together; net/http's own per-request allocations are not the PR's to fix.",
    "The driver fails hard if any rate request errors, so campaign pressure costing correctness (dropped or starved requests) cannot pass CI."
  ]
}
JSON
echo "loadtest: wrote $out"

p99() { echo "$1" | awk -F'[:,]' '/"p99"/ {gsub(/[ ]/,"",$2); print $2; exit}'; }
p99_json=$(p99 "$json_report")

awk -v s="$srv_p99" -v gate="$serve_p99_gate_us" 'BEGIN {
  printf "loadtest: server-side rate p99 = %.0fus (gate: <= %dus)\n", s, gate
  exit (s <= gate) ? 0 : 1
}' || { echo "loadtest: server-side p99 gate FAILED" >&2; exit 1; }
awk -v j="$p99_json" -v gate="$p99_gate_us" 'BEGIN {
  printf "loadtest: client p99 json = %.0fus (backstop: <= %dus)\n", j, gate
  exit (j <= gate) ? 0 : 1
}' || { echo "loadtest: client p99 backstop FAILED" >&2; exit 1; }
awk -v a="$allocs_json" 'BEGIN {
  printf "loadtest: json allocs/request = %d (gate: <= 5)\n", a
  exit (a <= 5) ? 0 : 1
}' || { echo "loadtest: JSON alloc gate FAILED" >&2; exit 1; }
echo "loadtest: ok"
