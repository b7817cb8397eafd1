#!/usr/bin/env bash
# Host-time profile of one command, split by OCaml module. Non-gating:
# a measuring aid, not a check.
#
#   scripts/hostprof.sh CMD [ARG]...
#   e.g. scripts/hostprof.sh _build/default/bin/repro.exe fig2 --threads 64,256 --duration-ms 6
#
# Builds scripts/ipsample.c (a ptrace instruction-pointer sampler) with
# the installed cc, runs CMD under it (CMD's stdout goes to stderr), then
# symbolizes the samples with `nm -n` against CMD's executable. Prints
# the top TOP (default 25) symbols and the share per OCaml module; the C
# runtime and GC (caml_* and other C symbols in the executable) form one
# group. Samples in a shared object are named LIB:SYMBOL (`libc:read`)
# from its dynamic symbols and their sizes (`nm -D -S`) and grouped by
# library; a sample past the end of the exported symbol below it is in
# one of the library's internal functions and is named LIB:(internal).
# The rest outside the executable (vdso, anonymous code) form one more
# group. No
# hook in the program: the split costs the run nothing but the
# interrupts.
#
# Environment: PERIOD_US (default 1000) is the sampling period; KEEP=DIR
# keeps the raw samples and symbol table in DIR.
set -euo pipefail

[ $# -ge 1 ] || { echo "usage: scripts/hostprof.sh CMD [ARG]..." >&2; exit 2; }
exe=$(command -v "$1") || { echo "hostprof: $1: not found" >&2; exit 2; }
here=$(cd "$(dirname "$0")" && pwd)
work=${KEEP:-$(mktemp -d "${TMPDIR:-/tmp}/hostprof.XXXXXX")}
mkdir -p "$work"
[ -n "${KEEP:-}" ] || trap 'rm -rf "$work"' EXIT

cc -O2 -o "$work/ipsample" "$here/ipsample.c"
status=0
"$work/ipsample" "${PERIOD_US:-1000}" "$work/samples" "$exe" "${@:2}" >&2 || status=$?

# PIE executables load at the sampled base; others at their link address.
pie=0
readelf -h "$exe" | grep -q 'Type: *DYN' && pie=1
nm -n -t d "$exe" | awk '$2 ~ /^[tTwW]$/ { print $1, $3 }' > "$work/syms"

# Each shared object's dynamic symbols at their mapped addresses, as
# "ADDR SYMEND MAPEND LIB SYMBOL" (SYMEND: ADDR + the symbol's size;
# MAPEND: the end of the mapping), sorted. Each mapping also gets an
# empty "(internal)" entry at its start, so every sample inside it
# names its library.
awk '$1 == "so"' "$work/samples" | while read -r _ lo hi off path; do
  lib=$(basename "$path")
  lib=${lib%%.so*}
  echo "$lo $lo $hi $lib (internal)"
  nm -D -S --defined-only -t d "$path" 2>/dev/null |
    awk -v lo="$lo" -v hi="$hi" -v off="$off" -v lib="$lib" '
      NF == 4 && $3 ~ /^[tTwWi]$/ {
        a = lo - off + $1; s = $4; sub(/@.*/, "", s)
        if (a >= lo + 0 && a < hi + 0)
          printf "%.0f %.0f %.0f %s %s\n", a, a + $2, hi, lib, s
      }'
done | sort -n -k1,1 -k2,2 > "$work/sosyms"

awk -v pie="$pie" -v top="${TOP:-25}" '
  # camlNumasim__Event_heap.pop_123 -> Numasim.Event_heap.pop; the
  # stamp stays where two functions would share a name (Far.pop, pop).
  function ocaml(sym,  s) {
    s = substr(sym, 5); sub(/_[0-9]+$/, "", s); gsub(/__/, ".", s)
    return s
  }
  FILENAME == ARGV[1] {
    addr[n] = $1 + 0; name[n] = $2; n++
    if ($2 ~ /^caml[A-Z]/) seen[ocaml($2)]++
    next
  }
  FILENAME == ARGV[2] {
    sa[sn] = $1 + 0; send[sn] = $2 + 0; mend[sn] = $3 + 0
    slib[sn] = $4; sname[sn] = $5; sn++; next
  }
  $1 == "base" { lo = $2 + 0; hi = $3 + 0; next }
  $1 == "so" { next }
  {
    total++
    ip = $1 + 0
    off = pie ? ip - lo : ip
    if (ip < lo || ip >= hi) {
      sym = "(outside the executable)"; mod = "vdso/other"
      if (sn > 0 && ip >= sa[0]) {
        l = 0; h = sn - 1
        while (l < h) { m = int((l + h + 1) / 2); if (sa[m] <= ip) l = m; else h = m - 1 }
        if (ip < mend[l]) {
          mod = slib[l]
          sym = mod ":" (ip < send[l] ? sname[l] : "(internal)")
        }
      }
    }
    else if (n == 0 || off < addr[0]) { sym = "(unknown)"; mod = "runtime/GC (C)" }
    else {
      l = 0; h = n - 1
      while (l < h) { m = int((l + h + 1) / 2); if (addr[m] <= off) l = m; else h = m - 1 }
      sym = name[l]; mod = "runtime/GC (C)"
      if (sym ~ /^caml[A-Z]/) {
        s = ocaml(sym)
        mod = s; sub(/\.[^.]*$/, "", mod)
        if (mod == s) mod = "(ocaml)"
        if (seen[s] == 1) sym = s
        else { sym = substr(sym, 5); gsub(/__/, ".", sym) }
      }
    }
    bysym[sym]++; bymod[mod]++
  }
  END {
    if (total == 0) { print "hostprof: no samples" > "/dev/stderr"; exit 1 }
    printf "%d samples\n\ntop symbols:\n", total
    cmd = "sort -rn | head -" top
    for (s in bysym) printf "%6.1f%%  %s\n", 100 * bysym[s] / total, s | cmd
    close(cmd)
    printf "\nby module:\n"
    for (m in bymod) printf "%6.1f%%  %s\n", 100 * bymod[m] / total, m | "sort -rn"
    close("sort -rn")
  }
' "$work/syms" "$work/sosyms" "$work/samples"
exit "$status"
