#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark between two checkouts.
#
#   scripts/ab.sh PARENT_DIR CHANGE_DIR WORKLOADS [PAIRS] [--claim METRIC@WORKLOAD]...
#
# PARENT_DIR and CHANGE_DIR are two source trees (e.g. `git archive`
# copies of the parent commit and of the change). WORKLOADS is one
# workload, a comma-separated list of them, or `all`: every workload
# CHANGE_DIR's BENCHMARK.json lists. For each workload in turn, and for
# seeds 1..PAIRS (default 10, the least benchmark/compare.exe accepts),
# the script runs `benchmark/main.exe --workload W --seed S` once in
# each tree, alternating which side runs first, exactly as
# benchmark/README.md "Comparing two commits" describes. Runs go one at
# a time, never two at once. Each run's stdout is saved under one fresh
# run directory (printed first; set RUNS_DIR to choose it). Then
# CHANGE_DIR's compare.exe judges every workload's pairs in one call
# (one row per workload) against CHANGE_DIR's BENCHMARK.json, passing
# every --claim through; its exit status is the script's.
# Last, for each workload and side, the script prints the median over
# runs of each run's median "host wall s" and "reference task s", and
# the change/parent ratio of each: `wall_s` is the first scaled by the
# second, so the ratios tell a move of the program from a move of the
# reference task.
set -euo pipefail

usage() {
  echo "usage: scripts/ab.sh PARENT_DIR CHANGE_DIR WORKLOAD[,WORKLOAD...]|all [PAIRS] [--claim METRIC@WORKLOAD]..." >&2
  exit 2
}

[ $# -ge 3 ] || usage
parent=$(cd "$1" && pwd) || usage
change=$(cd "$2" && pwd) || usage
workloads=$3
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

# The workload names a BENCHMARK.json lists, one a line: the "name" of
# each entry of its "workloads" array (one entry a line).
spec_workloads() {
  awk '/"workloads"/ { on = 1; next }
       on && /^ *\]/ { exit }
       on && match($0, /"name": *"[^"]*"/) {
         s = substr($0, RSTART, RLENGTH); sub(/^"name": *"/, "", s)
         print substr(s, 1, length(s) - 1) }' "$1"
}

if [ "$workloads" = all ]; then
  mapfile -t wl < <(spec_workloads "$change/BENCHMARK.json")
  [ ${#wl[@]} -gt 0 ] || { echo "ab.sh: no workloads in $change/BENCHMARK.json" >&2; exit 2; }
else
  IFS=, read -r -a wl <<< "$workloads"
  [ ${#wl[@]} -gt 0 ] || usage
  for workload in "${wl[@]}"; do [ -n "$workload" ] || usage; done
fi

runs=${RUNS_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")}
mkdir -p "$runs/parent" "$runs/change"
echo "runs: $runs"
echo "workloads: ${wl[*]}"

bench() {
  (cd "$1" && dune exec --root . --no-config --cache=disabled --display=quiet \
    benchmark/main.exe -- --workload "$2" --seed "$3")
}

# Build both sides first, so no timed run pays for compilation.
for dir in "$parent" "$change"; do
  (cd "$dir" && dune build --root . --no-config --display=quiet \
    benchmark/main.exe benchmark/compare.exe)
done

for workload in "${wl[@]}"; do
  for seed in $(seq 1 "$pairs"); do
    order="parent change"
    [ $((seed % 2)) = 0 ] && order="change parent"
    for side in $order; do
      if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
      out=$runs/$side/$workload-$seed.out
      bench "$dir" "$workload" "$seed" > "$out"
      echo "$workload seed $seed $side: $(grep -m1 -E '^  wall_s +[0-9]' "$out" || echo '(no wall_s)')"
    done
  done
done

cd "$change"
status=0
dune exec --root . --no-config --display=quiet benchmark/compare.exe -- \
  "$runs/parent" "$runs/change" ${claims[@]+"${claims[@]}"} || status=$?

# The median of the numbers on stdin, one a line ("nan" if none).
median() {
  sort -g | awk '{ a[NR] = $1 }
    END { if (NR == 0) print "nan"
          else if (NR % 2) print a[(NR + 1) / 2]
          else print (a[NR / 2] + a[NR / 2 + 1]) / 2 }'
}

# The median over SIDE's runs of WORKLOAD of each run's median on its
# LABEL line.
run_median() {
  local f
  for f in "$runs/$1/$2"-[0-9]*.out; do
    { grep -m1 "^  $3:" "$f" || true; } | sed "s/^  $3: *//" | tr -s ' ' '\n' \
      | { grep . || true; } | median
  done | { grep -v nan || true; } | median
}

echo "median over runs of each run's median:"
for workload in "${wl[@]}"; do
  echo "$workload"
  for label in "host wall s" "reference task s"; do
    awk -v l="$label" -v p="$(run_median parent "$workload" "$label")" \
      -v c="$(run_median change "$workload" "$label")" \
      'BEGIN { r = p > 0 ? sprintf("%.3f", c / p) : "nan"
               printf "  %-17s parent %.4f  change %.4f  change/parent %s\n",
                 l ":", p, c, r }'
  done
done
exit "$status"
