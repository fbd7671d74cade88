#!/usr/bin/env bash
# End-to-end observability smoke: boots a real 2-node spmt-server
# cluster with ops listeners, drives traffic through one entry node,
# fetches the stitched trace for a proxied request, then scrapes
# /metrics from BOTH nodes and fails on malformed exposition lines or
# missing load-bearing series.
set -euo pipefail
cd "$(dirname "$0")/.."

API0=${API0:-18080} API1=${API1:-18081}
OPS0=${OPS0:-19090} OPS1=${OPS1:-19091}
BINDIR=$(mktemp -d)
BIN=$BINDIR/spmt-server
LOG=$(mktemp -d)

go build -o "$BIN" ./cmd/spmt-server

# On exit (any failure has printed its node logs by then) stop the
# nodes, then remove the binary and log directories.
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$BINDIR" "$LOG"
}
trap cleanup EXIT

PEERS="http://127.0.0.1:$API0,http://127.0.0.1:$API1"
"$BIN" -addr "127.0.0.1:$API0" -ops-addr "127.0.0.1:$OPS0" -parallel 2 -speculate \
  -self "http://127.0.0.1:$API0" -peers "$PEERS" >"$LOG/node0.log" 2>&1 &
pids+=($!)
"$BIN" -addr "127.0.0.1:$API1" -ops-addr "127.0.0.1:$OPS1" -parallel 2 -speculate \
  -self "http://127.0.0.1:$API1" -peers "$PEERS" >"$LOG/node1.log" 2>&1 &
pids+=($!)

for port in "$OPS0" "$OPS1"; do
  for i in $(seq 1 100); do
    if curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 100 ]; then
      echo "cluster_metrics_smoke: node on ops port $port never became healthy" >&2
      cat "$LOG"/node*.log >&2
      exit 1
    fi
    sleep 0.1
  done
done

entry="http://127.0.0.1:$API0"
# Traffic: both benches' sim keys cannot all land on the entry node's
# shard, so some of these proxy/fan out across the ring.
curl -fsS -X POST "$entry/v1/analyze" -d '{"bench":"compress","size":"test"}' >/dev/null
trace=$(curl -fsS -D - -o /dev/null -X POST "$entry/v1/simulate" \
  -d '{"bench":"ijpeg","size":"test","tus":4}' |
  tr -d '\r' | awk -F': ' 'tolower($1)=="x-spmt-trace"{print $2}')
curl -fsS -X POST "$entry/v1/batch" \
  -d '{"size":"test","specs":[{"bench":"compress","tus":2},{"bench":"ijpeg","tus":2}]}' >/dev/null

if [ -z "$trace" ]; then
  echo "cluster_metrics_smoke: /v1/simulate response carried no X-Spmt-Trace header" >&2
  exit 1
fi
# Fetch to a file before grepping: `curl | grep -q` dies of SIGPIPE
# under pipefail once the stitched tree outgrows the pipe buffer.
curl -fsS "$entry/v1/traces/$trace" >"$LOG/trace.json"
if ! grep -q '"roots"' "$LOG/trace.json"; then
  echo "cluster_metrics_smoke: trace $trace not queryable on the entry node" >&2
  exit 1
fi

# Exposition lint: every line is a comment or a series whose name is
# spmt_ snake_case (with optional labels) and whose value parses.
check_scrape() {
  local url=$1 out=$2
  curl -fsS "$url/metrics" >"$out"
  local bad
  bad=$(grep -vE '^(# (HELP|TYPE) spmt_[a-z][a-z0-9_]* .+|spmt_[a-z][a-z0-9_]*(\{[A-Za-z0-9_]+="[^"]*"(,[A-Za-z0-9_]+="[^"]*")*\})? (-?[0-9.]+([eE][+-]?[0-9]+)?|[+-]Inf|NaN))$' "$out" || true)
  if [ -n "$bad" ]; then
    echo "cluster_metrics_smoke: malformed exposition lines from $url:" >&2
    echo "$bad" >&2
    exit 1
  fi
  for series in \
    spmt_engine_jobs_executed_total \
    spmt_engine_job_duration_seconds_bucket \
    spmt_sched_workers \
    spmt_sched_tasks_submitted_total \
    spmt_sched_tasks_completed_total \
    spmt_sched_queue_depth \
    spmt_store_hits_total \
    spmt_store_bytes_resident \
    spmt_http_requests_total \
    spmt_http_request_duration_seconds_count \
    spmt_shard_members \
    spmt_shard_proxied_total \
    spmt_traces_started_total \
    spmt_http_panics_total \
    spmt_admit_capacity \
    spmt_admit_in_use \
    spmt_admit_admitted_total \
    spmt_admit_bypassed_total \
    spmt_admit_rejected_total \
    spmt_breaker_opens_total \
    spmt_breaker_fast_fails_total \
    spmt_breaker_open_circuits \
    spmt_spec_predictions_total \
    spmt_spec_launches_total \
    spmt_spec_hits_total \
    spmt_spec_withdrawn_total \
    spmt_spec_queue_depth \
    spmt_spec_accuracy \
    spmt_spec_predictor_states \
    spmt_spec_predictor_observations_total; do
    if ! grep -q "^$series" "$out"; then
      echo "cluster_metrics_smoke: $url is missing series $series" >&2
      exit 1
    fi
  done
}

check_scrape "http://127.0.0.1:$OPS0" "$LOG/metrics0.txt"
check_scrape "http://127.0.0.1:$OPS1" "$LOG/metrics1.txt"

# Cross-node sanity: between them the two nodes must have executed
# engine jobs and proxied or fanned out at least one request.
total_exec=$(awk '/^spmt_engine_jobs_executed_total /{s+=$2} END{print s+0}' "$LOG"/metrics?.txt)
total_cross=$(awk '/^spmt_shard_(proxied_total|batch_fanouts_total) /{s+=$2} END{print s+0}' "$LOG"/metrics?.txt)
if [ "${total_exec%.*}" -lt 1 ]; then
  echo "cluster_metrics_smoke: no engine executions recorded across the cluster" >&2
  exit 1
fi
if [ "${total_cross%.*}" -lt 1 ]; then
  echo "cluster_metrics_smoke: no request crossed the ring" >&2
  exit 1
fi

echo "cluster_metrics_smoke: OK (trace $trace; exec=$total_exec cross=$total_cross)"
