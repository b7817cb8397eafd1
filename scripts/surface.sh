#!/usr/bin/env bash
# Public-surface lint: every exported value must have a caller.
#
#   scripts/surface.sh            # from anywhere; exits 1 on a finding
#
# A candidate is a `val` in lib/*/*.mli, named by its module path
# (Stats.Histogram.count, Bo_lock.Make.busy), that no .ml under lib/,
# bin/, benchmark/ or examples/ other than its own module's
# implementation names. With comments and string literals stripped, a
# file names Path.v
#   - by a qualified path through Path: Numa_base.Stats.Histogram.count;
#   - through an alias of Path or of a prefix of it. Aliases come from
#     `module X = P`, `let module X = P in`, functor instances
#     (`module Q = Cohort.Mcs_lock.Make (M)` makes Q an alias of
#     Mcs_lock.Make), `module X : P` and `module X : module type of P`
#     in an .mli, and `include P`. An alias declared in a module's
#     .mli or at the top of its .ml is seen everywhere
#     (LR.Table.c_blk_blk goes through Lock_registry.Table to
#     Cohort_locks.Make); one declared inside a file is that file's;
#   - bare, in a file that opens Path: `open P`, `let open P in`,
#     `P.( ... )`. A local open counts for the whole file.
# The vals of a functor parameter's signature (Bo_lock.Make.Tatas's
# `name`) are not exports. Tests do not count as callers: a value only
# a test reaches is either deleted, with the test rewritten against
# public behaviour, or listed in scripts/surface.allow as
#
#   Path.val  reason
#
# (one per line; blank lines and lines starting with # are ignored).
# The script fails on a candidate that is not listed, and on a listed
# entry that is no longer a candidate, so the list cannot go stale.
#
# This reads names, not types, so it is a floor, not an oracle: a local
# open makes every bare word of the file a caller of that module, a
# field or label spelt like a val counts as its caller, and a value
# reached only through a first-class module or a module-type signature
# (Lock_intf.LOCK) is not an export here at all.
set -euo pipefail

cd "$(dirname "$0")/.."
exec python3 - scripts/surface.allow <<'PY'
import glob, os, re, sys

ID = r"[A-Za-z_][A-Za-z0-9_']*"
UID = r"[A-Z][A-Za-z0-9_']*"
# A (possibly qualified) name, and a module path with functor arguments.
LONG = re.compile(r"(?<![\w'.])((?:%s\.)*)(%s)" % (UID, ID))
PATH = r"%s(?:\.%s)*" % (UID, UID)
APP = r"(%s)(?:\s*\([^()]*\))*" % PATH
# String, character and quoted-string literals.
LIT = re.compile(r"\"(?:\\[\s\S]|[^\"\\])*\"|'(?:\\.[^']*|[^\\'\n])'|\{([a-z_]*)\|")


def strip(src):
    """The code of [src] with comments, string and character literals
    blanked; newlines and columns are kept."""
    out, i, depth, n = [], 0, 0, len(src)
    while i < n:
        if src.startswith("(*", i):
            depth += 1
            out.append("  ")
            i += 2
            continue
        if depth and src.startswith("*)", i):
            depth -= 1
            out.append("  ")
            i += 2
            continue
        m = LIT.match(src, i)
        if m:
            j = m.end()
            if m.group(0).startswith("{"):
                close = "|%s}" % m.group(1)
                j = src.index(close, j) + len(close)
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
            continue
        c = src[i]
        out.append(c if not depth or c == "\n" else " ")
        i += 1
    return "".join(out)


def cap(s):
    return s[:1].upper() + s[1:]


# Libraries, top-level modules and the files to read.
libs = {cap(re.search(r"\(name\s+(\w+)\)", open(d).read()).group(1))
        for d in glob.glob("lib/*/dune")}
top = {cap(os.path.basename(f)[:-3]) for f in glob.glob("lib/*/*.ml")}
mlis = sorted(glob.glob("lib/*/*.mli"))
mls = sorted(f for d in ("lib", "bin", "benchmark", "examples")
             for f in glob.glob(d + "/**/*.ml", recursive=True))
code = {f: strip(open(f).read()) for f in mls + mlis}

exports = {}     # export path (module path + val) -> its .mli
modules = set()  # every module path an .mli declares
galias = {}      # module path -> (scope, path) it aliases
includes = {}    # module path -> [(scope, path)] it includes


class Scope:
    """A file's aliases and opens, and how it resolves a module path."""

    def __init__(self, f):
        self.home = cap(os.path.basename(f).split(".")[0])
        self.aliases = {}
        self.opens = []

    def resolve(self, path, depth=0):
        """The canonical module path [path] names here, or None."""
        head, *rest = path.split(".")
        if depth > 8:
            return None
        if head in self.aliases:
            base = self.resolve(self.aliases[head], depth + 1)
        elif head in libs:
            if not rest:
                return ()
            base, rest = (rest[0],), rest[1:]
        elif head in top:
            base = (head,)
        else:
            base = next((o + (head,) for o in [(self.home,)] + self.opens
                         if o and o + (head,) in modules), None)
        if base is None:
            return None
        for c in rest:
            base = canon(base + (c,))
        return canon(base)


def canon(p):
    """[p] with global aliases followed."""
    for _ in range(8):
        if p not in galias:
            break
        sc, target = galias[p]
        p = sc.resolve(target) or p
    return p


def params(toks, j):
    """The index past the functor parameters starting at toks[j]."""
    while toks[j] == "(":
        nest = 0
        while True:
            nest += {"(": 1, ")": -1}.get(toks[j], 0)
            j += 1
            if nest == 0:
                break
    return j


def sig_path(toks, j):
    """The path of `P` or `module type of P` at toks[j]."""
    return toks[j + 3] if toks[j:j + 3] == ["module", "type", "of"] else toks[j]


TOK = re.compile(r"%s(?:\.%s)*|\S" % (ID, ID))

# Each .mli: its vals by module path, its modules, aliases and includes.
for f in mlis:
    sc, toks = Scope(f), TOK.findall(code[f])
    stack, pending, i = [(sc.home,)], None, 0
    while i < len(toks):
        t, path = toks[i], stack[-1]
        if t == "sig":
            stack.append(pending or path)
            pending = None
        elif t == "end":
            stack.pop()
        elif t == "val":
            exports[path + (toks[i + 1],)] = f
        elif t == "include":
            includes.setdefault(path, []).append((sc, sig_path(toks, i + 1)))
        elif t == "module" and toks[i + 1] == "type" and toks[i + 2] != "of":
            pending = path + (toks[i + 2],)
            modules.add(pending)
        elif t == "module" and re.fullmatch(UID, toks[i + 1]) and toks[i - 1] != "(":
            mp = path + (toks[i + 1],)
            modules.add(mp)
            j = params(toks, i + 2)
            if toks[j] == "=":
                sc.aliases[mp[-1]] = toks[j + 1]
                galias[mp] = (sc, toks[j + 1])
            elif toks[j + 1] == "sig":
                pending = mp
            else:
                galias[mp] = (sc, sig_path(toks, j + 1))
            i = j
            continue
        i += 1

# Each .ml: its aliases and opens; a top-level module's column-0 aliases
# and includes are seen everywhere.
scopes = {}
for f in mls:
    sc, src = Scope(f), code[f]
    is_top = f.startswith("lib/") and f.count("/") == 2
    for m in re.finditer(r"\bmodule\s+(%s)\s*=\s*%s" % (UID, APP), src):
        sc.aliases.setdefault(m.group(1), m.group(2))
        if is_top and (m.start() == 0 or src[m.start() - 1] == "\n"):
            galias.setdefault((sc.home, m.group(1)), (sc, m.group(2)))
    if is_top:
        for m in re.finditer(r"^include\s+%s" % APP, src, re.M):
            includes.setdefault((sc.home,), []).append((sc, m.group(1)))
    opens = re.findall(r"\bopen!?\s+(%s)" % PATH, src)
    opens += re.findall(r"(?<![\w'.])(%s)\.[(\[{]" % PATH, src)
    scopes[f] = (sc, opens)


def reached(path, v, seen=()):
    """The export paths a reference to [path.v] may reach."""
    if path is None or path in seen:
        return []
    return [path + (v,)] + [e for sc, inc in includes.get(path, [])
                            for e in reached(sc.resolve(inc), v, seen + (path,))]


# Who names each export path.
callers = {}
for f, (sc, opens) in scopes.items():
    sc.opens = [o for o in map(sc.resolve, opens) if o]
    for m in LONG.finditer(code[f]):
        quals, v = m.group(1), m.group(2)
        if v[0].isupper():
            continue
        paths = [sc.resolve(quals[:-1])] if quals else sc.opens
        for p in paths:
            for e in reached(p, v):
                callers.setdefault(e, set()).add(f)

candidates = set()
for e, mli in exports.items():
    if not callers.get(e, set()) - {mli[:-1]}:
        candidates.add(".".join(e))

allow = sys.argv[1]
entries = [l.split(None, 1) for l in open(allow)
           if l.strip() and not l.lstrip().startswith("#")]
allowed = {e[0] for e in entries}
unlisted = sorted(candidates - allowed)
stale = sorted(allowed - candidates)
bare = sorted(e[0] for e in entries if len(e) == 1 or not e[1].strip())



def report(head, items, tail):
    print("\n".join([head] + ["  " + x for x in items] + tail), file=sys.stderr)


if unlisted:
    report("surface: FAIL — exported, but nothing outside its module calls it:",
           unlisted, ["Delete it (and what only it reaches), or list it in %s" % allow,
                      "with a reason."])
if stale:
    report("surface: FAIL — listed in %s, but no longer a candidate" % allow,
           stale, ["(it has a caller now, or is gone); remove the entry."])
if bare:
    report("surface: FAIL — entries in %s without a reason:" % allow, bare, [])
rc = 1 if unlisted or stale or bare else 0
if rc == 0:
    print("   surface: %d uncalled exports, all listed in %s" % (len(candidates), allow))
sys.exit(rc)
PY
