#!/usr/bin/env bash
# bench_reach.sh — runs the reach/linalg benchmarks and records the
# perf trajectory in BENCH_reach.json at the repo root, so the reach
# engine's and the packed kernels' speed and allocation profile are
# tracked across PRs.
#
# Usage:
#   scripts/bench_reach.sh [output.json] [baseline.json]
#   BENCHTIME=1x scripts/bench_reach.sh     # quick smoke mode
#   BENCHTIME=3x scripts/bench_reach.sh /tmp/fresh.json BENCH_reach.json  # CI gate
#
# BENCHTIME applies to the per-source reach benchmarks (>= 10 ms an op).
# When it is an iteration count (Nx), the linalg kernels run at a fixed
# 300ms -benchtime instead: many of them sit just above the 1 ms gate
# floor, and a handful of iterations of those is timer noise, not a
# measurement (a 3x run once read the unchanged scalar mul-ref/n=128 at
# 2.23x its baseline).
#
# When a baseline is given, the freshly-generated JSON is diffed
# against it and the script exits nonzero if any benchmark regressed
# by more than 2x ns/op, or if any baseline name is missing from the
# fresh output (a renamed benchmark must update the baseline, not
# silently leave the gate). Benchmarks whose baseline is under
# MIN_GATE_NS (default 1ms) are exempt from the ratio check only: at
# CI's few-iteration benchtime a micro-benchmark's measurement is
# dominated by timer and warm-up noise, and gating on it would flake.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1s}"
out="${1:-BENCH_reach.json}"
baseline="${2:-}"
min_gate_ns="${MIN_GATE_NS:-1000000}"
case "$benchtime" in
  *x) kernel_benchtime=300ms ;;
  *) kernel_benchtime="$benchtime" ;;
esac
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test ./internal/reach -run '^$' \
  -bench 'BenchmarkReach' -benchmem -benchtime "$benchtime" \
  | tee "$tmp"
go test ./internal/linalg -run '^$' \
  -bench 'BenchmarkLinalg' -benchmem -benchtime "$kernel_benchtime" \
  | tee -a "$tmp"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v gover="$(go version | { read -r _ _ v _; echo "$v"; })" \
    -v benchtime="$benchtime" -v kernel_benchtime="$kernel_benchtime" '
/^Benchmark/ && /ns\/op/ {
  name = $1; sub(/-[0-9]+$/, "", name)
  ns = $3; bytes = $5; allocs = $7
  n++
  lines[n] = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
                     name, ns, bytes, allocs)
}
END {
  printf("{\n")
  printf("  \"generated\": \"%s\",\n", date)
  printf("  \"go\": \"%s\",\n", gover)
  printf("  \"benchtime\": \"%s\",\n", benchtime)
  printf("  \"kernel_benchtime\": \"%s\",\n", kernel_benchtime)
  printf("  \"benchmarks\": [\n")
  for (i = 1; i <= n; i++) printf("%s%s\n", lines[i], (i < n) ? "," : "")
  printf("  ]\n")
  printf("}\n")
}' "$tmp" > "$out"

echo "wrote $out"

if [ -n "$baseline" ]; then
  if [ ! -f "$baseline" ]; then
    echo "bench_reach.sh: baseline $baseline not found" >&2
    exit 1
  fi
  echo "checking $out against baseline $baseline (fail on >2x ns/op, baseline >= ${min_gate_ns}ns)"
  awk -v min_ns="$min_gate_ns" '
  # Both files use one benchmark entry per line:
  #   {"name": "...", "ns_per_op": N, ...}
  /"name":/ {
    line = $0
    gsub(/.*"name": "/, "", line); name = line; gsub(/".*/, "", name)
    line = $0
    gsub(/.*"ns_per_op": /, "", line); gsub(/,.*/, "", line); ns = line + 0
    if (FILENAME == ARGV[1]) base[name] = ns
    else fresh[name] = ns
  }
  END {
    bad = 0
    for (name in fresh) {
      if (!(name in base)) continue
      if (base[name] < min_ns) continue
      ratio = fresh[name] / base[name]
      if (ratio > 2.0) {
        printf("REGRESSION %s: %.0f ns/op vs baseline %.0f (%.2fx)\n", name, fresh[name], base[name], ratio)
        bad = 1
      } else {
        printf("ok %s: %.2fx baseline\n", name, ratio)
      }
    }
    # Every committed baseline name must appear in the fresh run —
    # including the sub-1ms ones exempt from the ratio gate. A renamed
    # or deleted benchmark must update the baseline explicitly, not
    # silently fall out of the gate.
    for (name in base) {
      if (!(name in fresh)) {
        printf("MISSING benchmark %s disappeared from fresh run\n", name)
        bad = 1
      }
    }
    exit bad
  }' "$baseline" "$out"
  echo "perf gate passed"
fi
