#!/usr/bin/env bash
# Lints every metric-name literal in the source tree: all exposition
# names must be spmt_-prefixed snake_case ([a-z0-9_], starting with a
# letter after the prefix). Catches a typo'd family name at commit
# time instead of in a dead Grafana panel.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every string literal that looks like a metric name, plus the family
# name (the first comma field) of every metric:"…" struct tag, which is
# where the Stats structs declare their families; metric:"-" opts a
# field out and names nothing. The bare "spmt_" literal is the shared
# prefix constant, not a name; _test.go files are excluded (they hold
# deliberately-invalid fixtures).
names=$(
  {
    grep -rhoE '"spmt_[A-Za-z0-9_.-]*"' --include='*.go' --exclude='*_test.go' internal cmd |
      tr -d '"'
    grep -rhoE 'metric:"[^",]*' --include='*.go' --exclude='*_test.go' internal cmd |
      sed 's/^metric:"//'
  } | grep -vx -e 'spmt_' -e '-' | sort -u
)

if [ -z "$names" ]; then
  echo "check_metric_names: no spmt_ metric literals found — wrong tree?" >&2
  exit 1
fi

bad=0
while IFS= read -r name; do
  if ! printf '%s\n' "$name" | grep -qEx 'spmt_[a-z][a-z0-9_]*'; then
    echo "check_metric_names: $name is not spmt_-prefixed snake_case" >&2
    bad=1
  fi
done <<<"$names"

count=$(printf '%s\n' "$names" | wc -l)
if [ "$bad" -ne 0 ]; then
  exit 1
fi
echo "check_metric_names: $count metric names OK"
