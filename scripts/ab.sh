#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark between two checkouts.
#
#   scripts/ab.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [--claim METRIC@WORKLOAD]...
#
# PARENT_DIR and CHANGE_DIR are two source trees (e.g. `git archive`
# copies of the parent commit and of the change). For seeds 1..PAIRS
# (default 10, the least benchmark/compare.exe accepts) the script runs
# `benchmark/main.exe --workload WORKLOAD --seed S` once in each tree,
# alternating which side runs first, exactly as benchmark/README.md
# "Comparing two commits" describes. Runs go one at a time, never two
# at once. Each run's stdout is saved under a fresh run directory
# (printed first; set RUNS_DIR to choose it). Then CHANGE_DIR's
# compare.exe judges the pairs against CHANGE_DIR's BENCHMARK.json,
# passing every --claim through; its exit status is the script's.
set -euo pipefail

usage() {
  echo "usage: scripts/ab.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [--claim METRIC@WORKLOAD]..." >&2
  exit 2
}

[ $# -ge 3 ] || usage
parent=$(cd "$1" && pwd) || usage
change=$(cd "$2" && pwd) || usage
workload=$3
shift 3
pairs=10
if [ $# -gt 0 ] && [[ $1 =~ ^[0-9]+$ ]]; then
  pairs=$1
  shift
fi
claims=()
while [ $# -gt 0 ]; do
  case $1 in
    --claim)
      [ $# -ge 2 ] || usage
      claims+=(--claim "$2")
      shift 2
      ;;
    *) usage ;;
  esac
done

runs=${RUNS_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")}
mkdir -p "$runs/parent" "$runs/change"
echo "runs: $runs"

bench() {
  (cd "$1" && dune exec --root . --no-config --cache=disabled --display=quiet \
    benchmark/main.exe -- --workload "$workload" --seed "$2")
}

# Build both sides first, so no timed run pays for compilation.
for dir in "$parent" "$change"; do
  (cd "$dir" && dune build --root . --no-config --display=quiet \
    benchmark/main.exe benchmark/compare.exe)
done

for seed in $(seq 1 "$pairs"); do
  order="parent change"
  [ $((seed % 2)) = 0 ] && order="change parent"
  for side in $order; do
    if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
    bench "$dir" "$seed" > "$runs/$side/$workload-$seed.out"
    echo "seed $seed $side: $(grep -m1 -E '^  wall_s +[0-9]' "$runs/$side/$workload-$seed.out" || echo '(no wall_s)')"
  done
done

cd "$change"
dune exec --root . --no-config --display=quiet benchmark/compare.exe -- \
  "$runs/parent" "$runs/change" ${claims[@]+"${claims[@]}"}
