#!/bin/sh
# Export gate: every `val` in a lib `.mli` has a program caller, and
# every optional argument of one is passed by a program.
#
#   scripts/export_gate.sh
#
# A program is any `.ml` file under lib, bin, bench, examples or
# perfbench (perfbench/test excepted); tests are not programs. A `val`
# passes when a program file outside its own module refers to it, or
# when scripts/export_allow.txt lists it as `Module.name reason`. The
# gate fails on any other `val`, on an allow-list line without a reason,
# and on an allow-list line whose `val` is no longer declared or now has
# a program caller, so the list cannot rot.
#
# The same pass checks optional arguments: a `?label` of a lib `.mli`
# val passes when a program file outside its module that names the val
# also spells `~label` or `?label`, or when the allow list has a line
# `Module.name ?label reason`. An allow-list knob line whose val no
# longer takes `?label`, or whose label a program now passes, fails too.
#
# References are read after comments and string literals are blanked.
# In a path `A.B.name` the module is `B`, with aliases resolved: a
# `module X = ... M` of the same file (for a path `X.name`) and an alias
# a lib `.mli` exports (`Delta.Report.name` is `Run_report.name`). A
# file that opens a module (`open M`, `let open M in`, `M.(`) refers to
# every val of M it spells bare.
set -eu
cd "$(dirname "$0")/.."
allow=scripts/export_allow.txt
[ -f "$allow" ] || { echo "error: $allow is missing" >&2; exit 1; }

progs=$(find lib bin bench examples perfbench -name '*.ml' \
  -not -path 'perfbench/test/*' | sort)

# shellcheck disable=SC2086
out=$(awk -v allow="$allow" '
# Blank comments (nested), string and char literals; the state carries
# across the lines of a file.
function strip(line,    out, i, n, c, c2, j) {
  if (depth == 0 && !instr && line !~ /[("'\''*]/) return line
  out = ""; n = length(line); i = 1
  while (i <= n) {
    c = substr(line, i, 1); c2 = substr(line, i, 2)
    if (instr) {
      if (c == "\\") { i += 2; continue }
      if (c == "\"") instr = 0
      i++; continue
    }
    if (c2 == "(*") { depth++; i += 2; continue }
    if (depth > 0 && c2 == "*)") { depth--; i += 2; out = out " "; continue }
    if (c == "\"") { instr = 1; i++; out = out " "; continue }
    if (c == "'\''" && (i == 1 || substr(line, i - 1, 1) !~ /[A-Za-z0-9_]/)) {
      if (substr(line, i + 2, 1) == "'\''") { i += 3; out = out " "; continue }
      if (substr(line, i + 1, 1) == "\\") {
        j = index(substr(line, i + 3), "'\''")
        if (j > 0) { i += 3 + j; out = out " "; continue }
      }
    }
    if (depth == 0) out = out c
    i++
  }
  return out
}
function modname(path,    m) {
  m = path; sub(/.*\//, "", m); sub(/\.mli?$/, "", m)
  return toupper(substr(m, 1, 1)) substr(m, 2)
}
function last(path,    k, parts) {
  k = split(path, parts, ".")
  return parts[k]
}
# Each `module X = A.M` of line s: aliases[prefix X] = M.
function aliases(s, prefix, tbl,    a, x) {
  while (match(s, /module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_.]*/)) {
    a = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
    x = a; sub(/^module[ \t]+/, "", x); sub(/[ \t]*=.*/, "", x)
    sub(/^[^=]*=[ \t]*/, "", a)
    tbl[prefix x] = last(a)
  }
}
function flag(where, what,    seen) {
  seen = where in problem
  problem[where] = seen ? problem[where] "; " what : what
}
function use(m, name) {
  if (m != own && (m SUBSEP name) in decl) used[m, name] = infile[m, name] = 1
}
# A val this file names is passed each optional label the file spells.
function endfile(    m, w, d, k, n, ls) {
  for (m in opened) for (w in bare) use(m, w)
  for (d in infile) {
    n = split(labels[d], ls, " ")
    for (k = 1; k <= n; k++) if (ls[k] in spelt) passed[d, ls[k]] = 1
  }
  split("", opened); split("", bare); split("", alias)
  split("", infile); split("", spelt)
}
FNR == 1 {
  endfile(); depth = 0; instr = 0; cur = ""
  kind = (FILENAME == allow) ? "allow" : (FILENAME ~ /\.mli$/) ? "mli" : "ml"
  own = (FILENAME ~ /^lib\//) ? modname(FILENAME) : ""
}
kind == "allow" {
  if ($0 ~ /^[ \t]*(#|$)/) next
  reason = $0; sub(/^[ \t]*[^ \t]+[ \t]*/, "", reason)
  if ($2 ~ /^\?/) {
    key = $1 " " $2; sub(/^[^ \t]+[ \t]*/, "", reason)
    knob[key] = FILENAME ":" FNR
    if (reason == "") flag(knob[key], key " has no reason")
    next
  }
  key = $1
  allowed[key] = FILENAME ":" FNR
  if (reason == "") flag(allowed[key], key " has no reason")
  next
}
{ s = strip($0) }
kind == "mli" {
  if (match(s, /^val[ \t]+[a-z_][A-Za-z0-9_'\'']*/)) {
    name = substr(s, RSTART, RLENGTH); sub(/^val[ \t]+/, "", name)
    decl[own, name] = FILENAME ":" FNR
    cur = own SUBSEP name
  } else if (s ~ /^[ \t]*(type|module|exception|external|include|open|end)([ \t]|$)/)
    cur = ""
  # the optional labels of the val being declared
  t = s
  while (cur != "" && match(t, /\?[a-z_][A-Za-z0-9_'\'']*[ \t]*:/)) {
    a = substr(t, RSTART + 1, RLENGTH - 2); t = substr(t, RSTART + RLENGTH)
    sub(/[ \t]+$/, "", a)
    if (!((cur SUBSEP a) in optarg)) labels[cur] = labels[cur] " " a
    optarg[cur, a] = FILENAME ":" FNR
  }
  aliases(s, own ".", galias)
  next
}
{
  aliases(s, "", alias)
  t = s
  while (match(t, /[~?][a-z_][A-Za-z0-9_'\'']*/)) {
    spelt[substr(t, RSTART + 1, RLENGTH - 1)] = 1; t = substr(t, RSTART + RLENGTH)
  }
  t = s
  while (match(t, /(^|[^A-Za-z0-9_.])open!?[ \t]+[A-Z][A-Za-z0-9_.]*/)) {
    a = substr(t, RSTART, RLENGTH); t = substr(t, RSTART + RLENGTH)
    sub(/.*open!?[ \t]+/, "", a); a = last(a)
    opened[(a in alias) ? alias[a] : a] = 1
  }
  t = s
  while (match(t, /[A-Z][A-Za-z0-9_]*\.\(/)) {
    a = substr(t, RSTART, RLENGTH - 2); t = substr(t, RSTART + RLENGTH)
    opened[(a in alias) ? alias[a] : a] = 1
  }
  # every dotted path of identifiers
  t = s
  while (match(t, /[A-Za-z_][A-Za-z0-9_'\'']*(\.[A-Za-z_][A-Za-z0-9_'\'']*)*/)) {
    pre = (RSTART > 1) ? substr(t, RSTART - 1, 1) : " "
    a = substr(t, RSTART, RLENGTH); t = substr(t, RSTART + RLENGTH)
    if (pre ~ /[0-9.]/) continue
    n = split(a, p, ".")
    for (k = 1; k <= n && p[k] ~ /^[A-Z]/; k++) ;
    if (k > n) continue
    if (k == 1) { bare[p[1]] = 1; continue }
    m = p[k - 1]
    if (k > 2 && (p[k - 2] "." m) in galias) m = galias[p[k - 2] "." m]
    else if (k == 2 && m in alias) m = alias[m]
    use(m, p[k])
  }
}
END {
  endfile()
  for (d in decl) {
    split(d, q, SUBSEP); key = q[1] "." q[2]
    if (key in allowed) {
      if (d in used)
        flag(allowed[key], key " has a program caller now; drop its line")
    } else if (!(d in used))
      flag(decl[d], key " has no program caller outside its module" \
        " (delete it, or allow-list it in " allow " with a reason)")
  }
  for (key in allowed) {
    m = key; sub(/\..*/, "", m); name = key; sub(/^[^.]*\./, "", name)
    if (!((m SUBSEP name) in decl))
      flag(allowed[key], key " is not a val of any lib .mli; drop its line")
  }
  for (o in optarg) {
    split(o, q, SUBSEP); key = q[1] "." q[2] " ?" q[3]
    if (key in knob) {
      if (o in passed)
        flag(knob[key], key " is passed by a program now; drop its line")
    } else if (!(o in passed))
      flag(optarg[o], key " is passed by no program that names " q[1] "." q[2] \
        " (make it a constant, or allow-list it in " allow " with a reason)")
  }
  for (key in knob) {
    split(key, q, " "); m = q[1]; sub(/\..*/, "", m)
    name = q[1]; sub(/^[^.]*\./, "", name); a = substr(q[2], 2)
    if (!((m SUBSEP name SUBSEP a) in optarg))
      flag(knob[key], key " is not an optional argument of a lib val; drop its line")
  }
  for (w in problem) print w ": " problem[w]
}
' $(ls lib/*/*.mli) "$allow" $progs | sort)

if [ -n "$out" ]; then
  echo "$out" >&2
  echo "error: lib exports without a program caller, or optional arguments no program passes (see above)" >&2
  exit 1
fi
echo "export-gate ok: every lib val and optional argument has a program caller or an allow-list reason"
