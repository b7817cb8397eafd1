#!/usr/bin/env bash
# Local CI gate — the single pre-PR entry point (see README "CI").
#
#   scripts/ci.sh                 # full pipeline, from the repo root
#   scripts/ci.sh --stage NAME    # run one stage (repeatable)
#   dune build @ci                # same pipeline, build/test as alias deps
#
# The pipeline is a sequence of named stages, run in order and failing
# fast on the first nonzero exit. A summary table (stage, status, wall
# seconds) prints at the end of every run, pass or fail:
#
#   check        warning-clean build of everything (dune build @check),
#                then the build-flags guard: the compile rule of
#                lib/sim/engine.ml (dune rules) must carry no -opaque
#                (dune-workspace's release profile: modules inline
#                across units, so an inline hit makes no call) and must
#                keep the dev profile's warning set and -strict-sequence
#                (the root dune file's env) — a silent revert to either
#                default fails here
#   runtest      all test suites (dune runtest --force)
#   torture      fixed-seed torture smoke (50 random schedules, seed 42)
#   explore      explorer smoke: exhaustive C-BO-MCS clean + skip-limit
#                mutant caught; repeated on the hierarchical rack preset
#                (soundness leg only — the mutant leg always runs on the
#                default machine, where threads are co-located); then the
#                fuzz driver (200 schedules per lock, seed 1) run twice
#                and its reports byte-compared — a fuzzed schedule must
#                be a pure function of the seed
#   collapse     saturation-collapse smoke: the default oversubscribed
#                sweep (64 to 8192 logical threads on the 256-context
#                T5440, 2 ms windows, all seven collapse locks; each point
#                ends at its window) run twice with the same seed
#                and byte-compared — the preemption model and the GCR
#                parking/rotation machinery must be as deterministic as
#                the rest of the sim (the >= 2x survival claim itself is
#                gated by test/test_gcr.ml's ordering check)
#   paper-claim  coherence attribution gates (repro profile --check):
#                C-BO-MCS must move strictly fewer remote transfers per
#                acquisition than MCS (the paper claim), and CNA must
#                touch fewer distinct lock-metadata cache lines than
#                C-BO-MCS (the successor claim)
#   predict      prediction-accuracy gate (repro predict --check): the
#                analytic throughput model's median absolute error on
#                the core curves (MCS, C-BO-MCS, CNA at the pinned
#                thread counts) must stay within the band stated in
#                Harness.Gates / EXPERIMENTS.md "Prediction"
#   determinism  the quick plan (repro quick) emitting BENCH_head.json
#                and every printed table as CSV (--csv-dir) — run with
#                --profile — then the same seed re-run without it, its
#                artifact byte-compared and its CSV directory diffed
#                against the first (profiling is pure observation, so
#                both must be identical); the same seed re-run with
#                --fastpath off compared the same way (the engine fast
#                path must be invisible in every simulated result, and
#                the CSVs cover what the artifact does not: Tables 1
#                and 2, the ablations and the extensions); plus a
#                same-seed fig2 byte-diff on the rack preset (the
#                multi-level path must be as deterministic as the flat
#                one); and a same-seed byte-diff of the JSONL lock-event
#                traces of fig2 and fig6 at 1, 8 and 64 threads (the
#                artifacts' rollups drop tids, so only the trace shows
#                who acquired when). Only freshly emitted artifacts
#                participate.
#   bench-diff   regression gate: bench_diff of BENCH_head.json against
#                the newest committed BENCH_*.json (>10% throughput drop
#                on any entry fails; every registry lock must have a
#                curve in the baseline — --allow-missing stages a gap);
#                re-generates BENCH_head.json itself when run alone
#
# When dune runs this script (the @ci alias), INSIDE_DUNE is set: build
# and tests already ran as alias dependencies (the check/runtest stages
# report "pass (alias dep)"), and the executables are invoked directly
# from the build context instead of through `dune exec` (dune holds the
# build lock, so nested dune invocations would hang; for the same reason
# the build-flags guard reports "skipped (inside dune)").
set -euo pipefail

STAGES=(check runtest torture explore collapse paper-claim predict determinism bench-diff)

usage() {
  echo "usage: scripts/ci.sh [--stage NAME]..."
  echo "stages (in order): ${STAGES[*]}"
}

only_stages=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --stage)
      [[ $# -ge 2 ]] || { usage >&2; exit 2; }
      only_stages+=("$2"); shift 2 ;;
    --stage=*) only_stages+=("${1#--stage=}"); shift ;;
    -h|--help) usage; exit 0 ;;
    *) echo "ci: unknown argument '$1'" >&2; usage >&2; exit 2 ;;
  esac
done
for s in ${only_stages[@]+"${only_stages[@]}"}; do
  case " ${STAGES[*]} " in
    *" $s "*) ;;
    *) echo "ci: unknown stage '$s'" >&2; usage >&2; exit 2 ;;
  esac
done

if [[ -n "${INSIDE_DUNE:-}" ]]; then
  torture() { bin/torture.exe "$@"; }
  explore() { bin/explore.exe "$@"; }
  repro() { bin/repro.exe "$@"; }
  bench_diff() { bin/bench_diff.exe "$@"; }
else
  cd "$(dirname "$0")/.."
  torture() { dune exec --no-build bin/torture.exe -- "$@"; }
  explore() { dune exec --no-build bin/explore.exe -- "$@"; }
  repro() { dune exec --no-build bin/repro.exe -- "$@"; }
  bench_diff() { dune exec --no-build bin/bench_diff.exe -- "$@"; }
fi

# --- stage bookkeeping ----------------------------------------------------
# Stage bodies run at top level (never inside a condition) so `set -e`
# keeps its fail-fast meaning inside them; the EXIT trap marks whichever
# stage was open as FAIL and always prints the summary table.

declare -A stage_status stage_secs
current_stage=""
stage_t0=0
tmp=$(mktemp -d)

want() {
  [[ ${#only_stages[@]} -eq 0 ]] && return 0
  local s
  for s in "${only_stages[@]}"; do [[ $s == "$1" ]] && return 0; done
  return 1
}

begin() {
  current_stage=$1
  stage_t0=$SECONDS
  echo "== ci: stage $1"
}

end() {
  stage_status[$current_stage]=${1:-pass}
  stage_secs[$current_stage]=$((SECONDS - stage_t0))
  current_stage=""
}

skip() { stage_status[$1]=$2; }

on_exit() {
  local rc=$?
  if [[ -n $current_stage ]]; then
    stage_status[$current_stage]=FAIL
    stage_secs[$current_stage]=$((SECONDS - stage_t0))
  fi
  echo
  echo "== ci: stage summary"
  printf '   %-12s %-20s %6s\n' "stage" "status" "wall"
  local s
  for s in "${STAGES[@]}"; do
    printf '   %-12s %-20s %6s\n' "$s" "${stage_status[$s]:-not run}" \
      "${stage_secs[$s]:+${stage_secs[$s]}s}"
  done
  if [[ $rc -eq 0 ]]; then echo "== ci: OK"; else echo "== ci: FAIL" >&2; fi
  rm -rf "$tmp"
  exit "$rc"
}
trap on_exit EXIT

# --- check / runtest ------------------------------------------------------

# The flags every module compiles with, read off one rule: no -opaque,
# and the dev profile's warnings and strictness.
check_build_flags() {
  local rule flag
  rule=$(dune rules --root . --no-config \
    _build/default/lib/sim/.numasim.objs/native/numasim__Engine.cmx)
  if grep -qF -- -opaque <<<"$rule"; then
    echo "ci: FAIL — engine.ml compiles with -opaque; the build must use" >&2
    echo "the release profile (dune-workspace)." >&2
    exit 1
  fi
  for flag in -strict-sequence @1..3@5..28@30..39@43@46..47@49..57@61..62-40; do
    if ! grep -qF -- "$flag" <<<"$rule"; then
      echo "ci: FAIL — engine.ml compiles without $flag; the root dune" >&2
      echo "file's env must keep the dev profile's flags." >&2
      exit 1
    fi
  done
  echo "   build flags: no -opaque, dev warnings kept"
}

if [[ -n "${INSIDE_DUNE:-}" ]]; then
  skip check "pass (alias dep)"
  echo "== ci: build-flags guard skipped (inside dune)"
  skip runtest "pass (alias dep)"
else
  if want check; then
    begin check
    dune build @check
    check_build_flags
    end
  else
    skip check "skipped (--stage)"
    # Later stages exec prebuilt binaries; make sure they exist.
    dune build @check
  fi

  if want runtest; then
    begin runtest
    dune runtest --force
    end
  else
    skip runtest "skipped (--stage)"
  fi
fi

# --- torture --------------------------------------------------------------

if want torture; then
  begin torture
  torture 50 42
  end
else
  skip torture "skipped (--stage)"
fi

# --- explore --------------------------------------------------------------

if want explore; then
  begin explore
  explore --quick
  explore --quick --topology rack
  explore --mode fuzz --runs 200 --seed 1 >"$tmp/fuzz_a.log"
  tail -n 2 "$tmp/fuzz_a.log"
  explore --mode fuzz --runs 200 --seed 1 >"$tmp/fuzz_b.log"
  if ! cmp "$tmp/fuzz_a.log" "$tmp/fuzz_b.log"; then
    echo "ci: FAIL — same-seed fuzz reports differ; explore mode is" >&2
    echo "nondeterministic." >&2
    exit 1
  fi
  echo "   fuzz reports byte-identical"
  end
else
  skip explore "skipped (--stage)"
fi

# --- collapse -------------------------------------------------------------

if want collapse; then
  begin collapse
  repro collapse --emit-bench-json "$tmp/COLLAPSE_a.json" >"$tmp/collapse.log"
  tail -n 8 "$tmp/collapse.log"
  repro collapse --emit-bench-json "$tmp/COLLAPSE_b.json" >/dev/null
  if ! cmp "$tmp/COLLAPSE_a.json" "$tmp/COLLAPSE_b.json"; then
    echo "ci: FAIL — same-seed collapse artifacts differ; the preemption" >&2
    echo "model or the GCR parking/rotation machinery is nondeterministic." >&2
    exit 1
  fi
  echo "   artifacts byte-identical"
  end
else
  skip collapse "skipped (--stage)"
fi

# --- paper-claim ----------------------------------------------------------

if want paper-claim; then
  begin paper-claim
  repro profile --check --duration-ms 2 >"$tmp/profile.log"
  tail -n 2 "$tmp/profile.log"
  end
else
  skip paper-claim "skipped (--stage)"
fi

# --- predict --------------------------------------------------------------

if want predict; then
  begin predict
  repro predict --check --duration-ms 2 >"$tmp/predict.log"
  tail -n 1 "$tmp/predict.log"
  end
else
  skip predict "skipped (--stage)"
fi

# --- determinism ----------------------------------------------------------

emit_bench_head() {
  echo "   quick plan -> BENCH_head.json and CSVs (with --profile)"
  repro quick --profile --emit-bench-json "$tmp/BENCH_head.json" \
    --csv-dir "$tmp/CSV_head" >"$tmp/bench1.log"
  tail -n 3 "$tmp/bench1.log"
}

if want determinism; then
  begin determinism
  emit_bench_head
  echo "   same-seed re-run without --profile, byte diff"
  repro quick --emit-bench-json "$tmp/BENCH_head2.json" \
    --csv-dir "$tmp/CSV_head2" >"$tmp/bench2.log"
  if ! cmp "$tmp/BENCH_head.json" "$tmp/BENCH_head2.json" ||
    ! diff -r "$tmp/CSV_head" "$tmp/CSV_head2"; then
    echo "ci: FAIL — same-seed benchmark artifacts or tables differ; the" >&2
    echo "simulation has picked up wall-clock or global-Random" >&2
    echo "nondeterminism (or --profile perturbed schedules/artifacts," >&2
    echo "which it must never do)." >&2
    exit 1
  fi
  echo "   artifacts and tables byte-identical"
  echo "   same-seed re-run with --fastpath off, byte diff"
  repro quick --fastpath off --emit-bench-json "$tmp/BENCH_head3.json" \
    --csv-dir "$tmp/CSV_head3" >"$tmp/bench3.log"
  if ! cmp "$tmp/BENCH_head.json" "$tmp/BENCH_head3.json" ||
    ! diff -r "$tmp/CSV_head" "$tmp/CSV_head3"; then
    echo "ci: FAIL — the engine fast path changed a simulated result;" >&2
    echo "inline retirement must replay the heap schedule bit-exactly" >&2
    echo "(see doc/SIMULATOR.md \"Engine fast path\")." >&2
    exit 1
  fi
  echo "   artifacts and tables byte-identical"
  echo "   rack-preset determinism (same-seed fig2 byte diff)"
  repro fig2 --topology rack --threads 1,8,64 --duration-ms 2 \
    --emit-bench-json "$tmp/RACK_a.json" >/dev/null
  repro fig2 --topology rack --threads 1,8,64 --duration-ms 2 \
    --emit-bench-json "$tmp/RACK_b.json" >/dev/null
  if ! cmp "$tmp/RACK_a.json" "$tmp/RACK_b.json"; then
    echo "ci: FAIL — same-seed rack-preset artifacts differ; the multi-level" >&2
    echo "coherence/interconnect path is nondeterministic." >&2
    exit 1
  fi
  echo "   artifacts byte-identical"
  echo "   lock-trace determinism (same-seed fig2/fig6 JSONL byte diff)"
  for fig in fig2 fig6; do
    for side in a b; do
      repro "$fig" --threads 1,8,64 --duration-ms 1 \
        --trace "$tmp/TR_${fig}_$side.jsonl" >/dev/null
    done
    if ! cmp "$tmp/TR_${fig}_a.jsonl" "$tmp/TR_${fig}_b.jsonl"; then
      echo "ci: FAIL — same-seed $fig lock-event traces differ; some lock" >&2
      echo "event (or the identity it is stamped with) is nondeterministic." >&2
      exit 1
    fi
  done
  echo "   traces byte-identical"
  end
else
  skip determinism "skipped (--stage)"
fi

# --- bench-diff -----------------------------------------------------------

if want bench-diff; then
  begin bench-diff
  # Self-contained under --stage bench-diff: emit the head artifact if
  # the determinism stage didn't already.
  [[ -f "$tmp/BENCH_head.json" ]] || emit_bench_head
  baseline=$(ls BENCH_*.json 2>/dev/null | sort | tail -n 1 || true)
  if [[ -n "$baseline" ]]; then
    echo "   regression gate vs committed $baseline"
    bench_diff "$baseline" "$tmp/BENCH_head.json"
    end
  else
    echo "   no committed BENCH_*.json yet; skipping regression gate"
    end "pass (no baseline)"
  fi
else
  skip bench-diff "skipped (--stage)"
fi
