#!/usr/bin/env bash
# Cluster chaos smoke: boots a real 3-node spmt-server cluster with R=2
# replication and fast health probing, proves byte parity against a
# standalone reference, then SIGKILLs one member and asserts the
# survivors answer the whole suite byte-identical WITHOUT re-running a
# single pipeline job (replicas absorb the fault), then rejoins the
# dead member with an empty store and asserts re-replication converges
# — the rejoined node serves the suite as an entry point, again with
# zero pipeline recompute. A final scenario restarts that member with
# seeded peer-latency fault injection and asserts the suite is still
# byte-identical. Node readiness is gated on /readyz throughout (the
# liveness-only /healthz would pass during drain or gate saturation).
#
# Every cluster node runs -speculate while the reference does NOT:
# each parity check therefore also proves speculative precomputation
# never changes a response byte — through kills, rejoins, sweeps, and
# injected faults.
set -euo pipefail
cd "$(dirname "$0")/.."

API0=${API0:-28080} API1=${API1:-28081} API2=${API2:-28082} APIREF=${APIREF:-28083}
OPS0=${OPS0:-29090} OPS1=${OPS1:-29091} OPS2=${OPS2:-29092}
BINDIR=$(mktemp -d)
BIN=$BINDIR/spmt-server
LOG=$(mktemp -d)
STORE=$(mktemp -d)

go build -o "$BIN" ./cmd/spmt-server

# On exit (fail has printed the node-log tail by then) stop the nodes,
# then remove the binary, log and store directories.
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$BINDIR" "$LOG" "$STORE"
}
trap cleanup EXIT

fail() {
  echo "cluster_chaos_smoke: $*" >&2
  tail -n 40 "$LOG"/node*.log >&2 2>/dev/null || true
  exit 1
}

PEERS="http://127.0.0.1:$API0,http://127.0.0.1:$API1,http://127.0.0.1:$API2"
start_node() { # idx api ops extra-flags...
  local i=$1 api=$2 ops=$3
  shift 3
  "$BIN" -addr "127.0.0.1:$api" -ops-addr "127.0.0.1:$ops" -parallel 2 \
    -store-dir "$STORE/node$i" -self "http://127.0.0.1:$api" -speculate \
    -probe-interval 200ms -probe-timeout 500ms -probe-failures 2 \
    "$@" >>"$LOG/node$i.log" 2>&1 &
  pids+=($!)
}
start_node 0 "$API0" "$OPS0" -peers "$PEERS"
start_node 1 "$API1" "$OPS1" -peers "$PEERS"
start_node 2 "$API2" "$OPS2" -peers "$PEERS"
NODE2_PID=${pids[2]}
# The byte-parity ground truth: a standalone single node.
"$BIN" -addr "127.0.0.1:$APIREF" -parallel 2 >"$LOG/ref.log" 2>&1 &
pids+=($!)

wait_up() { # url desc
  for i in $(seq 1 100); do
    if curl -fsS "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "$2 never came up"
}
for port in "$OPS0" "$OPS1" "$OPS2"; do wait_up "http://127.0.0.1:$port/readyz" "ops $port"; done
for port in "$API0" "$API1" "$API2" "$APIREF"; do wait_up "http://127.0.0.1:$port/v1/stats" "api $port"; done

metric() { # ops-port series -> value (0 if absent)
  curl -fsS "http://127.0.0.1:$1/metrics" | awk -v s="$2" '$1==s{v=$2} END{print v+0}'
}
wait_metric() { # ops-port series want desc
  for i in $(seq 1 150); do
    if [ "$(metric "$1" "$2" | cut -d. -f1)" = "$3" ]; then return 0; fi
    sleep 0.1
  done
  fail "$4 (want $2 = $3 on ops $1, have $(metric "$1" "$2"))"
}
# The recompute meter: executed-job counts of the pipeline kinds R=2
# replication must keep warm.
pipeline_runs() { # ops-port
  curl -fsS "http://127.0.0.1:$1/metrics" |
    awk '/^spmt_engine_job_duration_seconds_count\{kind="(emu|reach|table|sim)"\}/{s+=$2} END{print s+0}'
}

run_suite() { # base-url outdir
  local base=$1 out=$2
  mkdir -p "$out"
  curl -fsS -X POST "$base/v1/analyze" -d '{"bench":"compress","size":"test"}' >"$out/analyze.json"
  curl -fsS -X POST "$base/v1/pairs" -d '{"bench":"ijpeg","size":"test","policy":"profile"}' >"$out/pairs.json"
  curl -fsS -X POST "$base/v1/simulate" -d '{"bench":"compress","size":"test","policy":"profile","tus":16}' >"$out/simulate.json"
  curl -fsS -X POST "$base/v1/batch" \
    -d '{"size":"test","specs":[{"bench":"ijpeg","policy":"none","tus":1},{"bench":"compress","tus":8}]}' >"$out/batch.ndjson"
  curl -fsS "$base/v1/figures/fig2?size=test&bench=compress,ijpeg" >"$out/figure.json"
}
compare_suite() { # dir reference-dir desc
  for f in analyze.json pairs.json simulate.json batch.ndjson figure.json; do
    cmp -s "$1/$f" "$2/$f" || fail "$3: $f differs from the single-node reference"
  done
}

run_suite "http://127.0.0.1:$APIREF" "$LOG/ref"
run_suite "http://127.0.0.1:$API0" "$LOG/healthy"
compare_suite "$LOG/healthy" "$LOG/ref" "healthy cluster"

# Write-through and the async disk queue must quiesce before the kill:
# only then is every computed artifact durable on both of its owners.
for port in "$OPS0" "$OPS1" "$OPS2"; do
  wait_metric "$port" spmt_shard_replication_pending 0 "write-through queue never drained"
  wait_metric "$port" spmt_store_disk_queue_depth 0 "disk write queue never drained"
  [ "$(metric "$port" spmt_shard_replication_dropped_total | cut -d. -f1)" = 0 ] ||
    fail "write-through pushes were dropped on ops $port"
done

# --- Chaos: kill one member abruptly. ---------------------------------
{ kill -9 "$NODE2_PID" && wait "$NODE2_PID"; } 2>/dev/null || true
wait_metric "$OPS0" spmt_shard_suspects 1 "node0 never suspected the dead member"
wait_metric "$OPS1" spmt_shard_suspects 1 "node1 never suspected the dead member"

before0=$(pipeline_runs "$OPS0")
before1=$(pipeline_runs "$OPS1")
run_suite "http://127.0.0.1:$API0" "$LOG/degraded0"
compare_suite "$LOG/degraded0" "$LOG/ref" "degraded entry node0"
run_suite "http://127.0.0.1:$API1" "$LOG/degraded1"
compare_suite "$LOG/degraded1" "$LOG/ref" "degraded entry node1"
after0=$(pipeline_runs "$OPS0")
after1=$(pipeline_runs "$OPS1")
if [ "$before0" != "$after0" ] || [ "$before1" != "$after1" ]; then
  fail "survivors recomputed pipeline jobs while degraded (node0 $before0->$after0, node1 $before1->$after1); R=2 must serve every replicated key warm"
fi

# --- Recovery: rejoin the dead member with an EMPTY store. ------------
sweeps0=$(metric "$OPS0" spmt_shard_replication_sweeps_total | cut -d. -f1)
sweeps1=$(metric "$OPS1" spmt_shard_replication_sweeps_total | cut -d. -f1)
rm -rf "$STORE/node2"
start_node 2 "$API2" "$OPS2" -join "http://127.0.0.1:$API0"
NODE2_PID=${pids[${#pids[@]}-1]}
wait_up "http://127.0.0.1:$OPS2/readyz" "rejoined ops $OPS2"
wait_metric "$OPS0" spmt_shard_suspects 0 "node0 never readmitted the rejoined member"
wait_metric "$OPS1" spmt_shard_suspects 0 "node1 never readmitted the rejoined member"

# Readmission triggers a re-replication sweep on each survivor; once
# both sweeps complete with nothing pending, the rejoined node's arc has
# been streamed back to it.
for i in $(seq 1 300); do
  s0=$(metric "$OPS0" spmt_shard_replication_sweeps_total | cut -d. -f1)
  s1=$(metric "$OPS1" spmt_shard_replication_sweeps_total | cut -d. -f1)
  p0=$(metric "$OPS0" spmt_shard_replication_pending | cut -d. -f1)
  p1=$(metric "$OPS1" spmt_shard_replication_pending | cut -d. -f1)
  if [ "$s0" -gt "$sweeps0" ] && [ "$s1" -gt "$sweeps1" ] && [ "$p0" = 0 ] && [ "$p1" = 0 ]; then break; fi
  if [ "$i" = 300 ]; then fail "re-replication sweeps never converged after rejoin"; fi
  sleep 0.1
done
received=$(metric "$OPS2" spmt_shard_replication_received_total | cut -d. -f1)
[ "$received" -gt 0 ] || fail "rejoined node received no re-replicated artifact"
for port in "$OPS0" "$OPS1" "$OPS2"; do
  [ "$(metric "$port" spmt_shard_replication_sweep_errors_total | cut -d. -f1)" = 0 ] ||
    fail "re-replication sweep recorded errors on ops $port"
done

# The rejoined node is a full entry point again — and because its arc
# was streamed back, the suite still costs zero pipeline recompute
# anywhere, including on the empty-booted node itself.
run_suite "http://127.0.0.1:$API2" "$LOG/rejoined"
compare_suite "$LOG/rejoined" "$LOG/ref" "rejoined entry node2"
runs2=$(pipeline_runs "$OPS2")
[ "$runs2" = 0 ] || fail "rejoined node ran $runs2 pipeline jobs; re-replication must have made its arc warm"

# --- Fault injection: restart the member with seeded peer-latency ------
# faults on its outbound transport. Half its peer calls stall 100ms,
# yet every response it serves as an entry point must stay
# byte-identical — latency degrades, bytes never do.
{ kill -9 "$NODE2_PID" && wait "$NODE2_PID"; } 2>/dev/null || true
wait_metric "$OPS0" spmt_shard_suspects 1 "node0 never suspected the restarting member"
start_node 2 "$API2" "$OPS2" -join "http://127.0.0.1:$API0" \
  -fault-inject 'peer.latency:0.5:100ms' -fault-seed 42
wait_up "http://127.0.0.1:$OPS2/readyz" "fault-injected ops $OPS2"
wait_metric "$OPS0" spmt_shard_suspects 0 "node0 never readmitted the fault-injected member"
run_suite "http://127.0.0.1:$API2" "$LOG/faulty"
compare_suite "$LOG/faulty" "$LOG/ref" "fault-injected entry node2"
decisions=$(curl -fsS "http://127.0.0.1:$OPS2/metrics" |
  awk '/^spmt_fault_decisions_total\{/{s+=$2} END{print s+0}' | cut -d. -f1)
[ "$decisions" -gt 0 ] || fail "fault injector made no peer-call decisions on the injected node"

# The parity phases above all ran with -speculate armed; prove the
# predictor actually engaged (the suite replays its own request stream,
# so the second pass through each entry node must predict).
predictions=0
for port in "$OPS0" "$OPS1" "$OPS2"; do
  predictions=$((predictions + $(metric "$port" spmt_spec_predictions_total | cut -d. -f1)))
done
[ "$predictions" -gt 0 ] || fail "no node made a speculation prediction; the parity phases proved nothing about -speculate"

echo "cluster_chaos_smoke: OK (received=$received after rejoin; zero recompute degraded/rejoined; $decisions fault decisions under injected latency; $predictions speculation predictions)"
