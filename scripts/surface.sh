#!/usr/bin/env bash
# Public-surface lint: every exported value must have a caller.
#
#   scripts/surface.sh            # from anywhere; exits 1 on a finding
#
# A candidate is a `val` in lib/*/*.mli whose name appears as a word in
# no .ml file under lib/, bin/, benchmark/ or examples/ other than its
# own module's implementation. Tests do not count as callers: a value
# only a test reaches is either deleted, with the test rewritten against
# public behaviour, or listed in scripts/surface.allow as
#
#   Module.val  reason
#
# (one per line; blank lines and lines starting with # are ignored).
# The script fails on a candidate that is not listed, and on a listed
# entry that is no longer a candidate, so the list cannot go stale.
#
# This is a word grep, so it is a floor, not an oracle: a name that
# another module also uses (pp, to_json, create, ...) always looks
# called, even when nothing calls this module's one. A name in a
# comment counts as a caller too.
set -euo pipefail

cd "$(dirname "$0")/.."
allow=scripts/surface.allow

mapfile -t ml_files < <(find lib bin benchmark examples -name '*.ml' | sort)
mapfile -t mli_files < <(find lib -mindepth 2 -maxdepth 2 -name '*.mli' | sort)

# One awk pass: index the words of every .ml, then list each .mli val
# that no other file's index contains.
candidates=$(awk '
  FNR == 1 { is_mli = FILENAME ~ /\.mli$/ }
  !is_mli {
    n = split($0, w, /[^A-Za-z0-9_'\'']+/)
    for (i = 1; i <= n; i++) {
      if (w[i] == "" || (w[i], FILENAME) in seen) continue
      seen[w[i], FILENAME] = 1
      users[w[i]] = users[w[i]] " " FILENAME
    }
    next
  }
  match($0, /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_'\'']*/) {
    name = substr($0, RSTART, RLENGTH)
    sub(/^[ \t]*val[ \t]+/, "", name)
    own = substr(FILENAME, 1, length(FILENAME) - 1)
    base = FILENAME
    sub(/^.*\//, "", base)
    sub(/\.mli$/, "", base)
    m = toupper(substr(base, 1, 1)) substr(base, 2) "." name
    called = 0
    k = split(users[name], f, " ")
    for (i = 1; i <= k; i++) if (f[i] != own) called = 1
    if (!called) print m
  }
' "${ml_files[@]}" "${mli_files[@]}" | sort -u)

entries=$(grep -v '^[[:space:]]*\(#\|$\)' "$allow" || true)
allowed=$(awk '{ print $1 }' <<<"$entries" | sort -u)

unlisted=$(comm -23 <(printf '%s\n' "$candidates") <(printf '%s\n' "$allowed") | grep -v '^$' || true)
stale=$(comm -13 <(printf '%s\n' "$candidates") <(printf '%s\n' "$allowed") | grep -v '^$' || true)
# An entry without a reason is as bad as no entry.
bare=$(awk 'NF == 1 { print $1 }' <<<"$entries")

rc=0
if [[ -n $unlisted ]]; then
  echo "surface: FAIL — exported, but nothing outside its module calls it:" >&2
  sed 's/^/  /' <<<"$unlisted" >&2
  echo "Delete it (and what only it reaches), or list it in $allow with" >&2
  echo "a reason." >&2
  rc=1
fi
if [[ -n $stale ]]; then
  echo "surface: FAIL — listed in $allow, but no longer a candidate" >&2
  echo "(it has a caller now, or is gone); remove the entry:" >&2
  sed 's/^/  /' <<<"$stale" >&2
  rc=1
fi
if [[ -n $bare ]]; then
  echo "surface: FAIL — entries in $allow without a reason:" >&2
  sed 's/^/  /' <<<"$bare" >&2
  rc=1
fi
if [[ $rc -eq 0 ]]; then
  echo "   surface: $(grep -c . <<<"$candidates") uncalled exports, all listed in $allow"
fi
exit "$rc"
