#!/bin/sh
# Tier-1 verification: build + tests + the wall-clock grep-gate.
#
#   scripts/check.sh
#
# The grep-gates keep low-level primitives out of shipped code:
#   - Sys.time (CPU time, not wall-clock): every timing must go through
#     Aladin_obs.Clock. Doc comments that mention Sys.time are fine; call
#     sites are not. Tests may use it when they are specifically about
#     the distinction.
#   - Domain.spawn / Mutex.create / Condition.create: all parallelism
#     must go through Aladin_par.Pool (lib/par/), which owns the only
#     domain/lock lifecycle in the tree. Ad-hoc domains elsewhere would
#     undermine the determinism and trace-buffer contracts.
#   - failwith / invalid_arg in the pipeline path (lib/formats importers,
#     the warehouse/config/system layer): failures there must flow
#     through the typed resilience API (results, Run_report), not
#     exceptions.
set -eu
cd "$(dirname "$0")/.."

if grep -rnE 'Sys\.time[[:space:]]*\(' lib bin bench \
    --include='*.ml' --include='*.mli' 2>/dev/null; then
  echo "error: Sys.time call site found (use Aladin_obs.Clock instead)" >&2
  exit 1
fi
echo "grep-gate ok: no Sys.time call sites in lib/ bin/ bench/"

if grep -rnE 'Domain\.spawn|Mutex\.create|Condition\.create' lib bin bench \
    --include='*.ml' --include='*.mli' --exclude-dir=par 2>/dev/null; then
  echo "error: raw domain/lock primitive outside lib/par (use Aladin_par.Pool)" >&2
  exit 1
fi
echo "grep-gate ok: no Domain.spawn/Mutex.create/Condition.create outside lib/par/"

if grep -rnE '\b(failwith|invalid_arg)\b' \
    lib/formats/import.ml lib/formats/dump.ml \
    lib/core/warehouse.ml lib/core/config.ml lib/core/aladin_system.ml \
    lib/core/delta.ml lib/core/pair_store.ml \
    2>/dev/null; then
  echo "error: failwith/invalid_arg in a pipeline path (return a result or use Boundary.protect)" >&2
  exit 1
fi
echo "grep-gate ok: no raising error paths in importers/warehouse/config"

# Link and duplicate discovery in the core/CLI layer must go through the
# delta pipeline (lib/core/delta.ml), which decomposes the work per
# source pair and reuses every pair the mutation did not touch. A
# whole-warehouse Linker.discover / Dup_detect.detect call anywhere else
# silently reintroduces the O(all pairs) rebuild the delta store exists
# to kill. (The pairwise *_between entry points are fine.)
if grep -rnE 'Linker\.discover\b|Dup_detect\.detect\b' \
    lib/core lib/serve bin --include='*.ml' 2>/dev/null \
    | grep -v '^lib/core/delta\.ml'; then
  echo "error: whole-warehouse relink outside lib/core/delta.ml (use the delta pipeline)" >&2
  exit 1
fi
echo "grep-gate ok: all link/dup discovery goes through the delta pipeline"

# open_out / Sys.rename on a persistence path bypasses the crash-safety
# contract (write-temp -> fsync -> rename, manifest commit, fault hooks).
# Everything the warehouse persists must go through lib/store
# (Aladin_store.Atomic_file / Snapshot); only lib/store itself may touch
# the primitives. Non-persistence writers (trace export, HTML export)
# live outside the gated directories.
if grep -rnE '\bopen_out|Sys\.rename' \
    lib/formats lib/core lib/metadata bin \
    --include='*.ml' --include='*.mli' 2>/dev/null; then
  echo "error: raw open_out/Sys.rename on a persistence path (use Aladin_store)" >&2
  exit 1
fi
echo "grep-gate ok: no raw open_out/Sys.rename outside lib/store"

# Warehouse state has one writer: in the core, metadata and CLI layers
# Snapshot.save is called only from Warehouse.save_dir (its body,
# save_generation, also returns the generation the journal's commit
# records name), so a second store layout cannot creep back in. (awk
# tracks the enclosing top-level let.)
if find lib/core lib/metadata bin -name '*.ml' -exec awk '
    /^let / { fn = ($2 == "rec") ? $3 : $2 }
    /Snapshot\.save([^A-Za-z0-9_]|$)/ &&
      !(FILENAME == "lib/core/warehouse.ml" && fn == "save_generation") {
      print FILENAME ":" FNR ": Snapshot.save in " fn }' {} + | grep .; then
  echo "error: Snapshot.save outside Warehouse.save_dir (save warehouse state through save_dir)" >&2
  exit 1
fi
echo "grep-gate ok: Snapshot.save is called only from Warehouse.save_dir"

# Blocking sleeps belong to the retry/backoff policy alone: Retry.sleepf
# is budget-clamped and EINTR-tolerant, and seeded backoff keeps waits
# deterministic. A raw Unix.sleep/sleepf anywhere else is an unbounded,
# untracked stall. (retry.ml holds the one blessed call site; tests are
# not scanned.)
if grep -rnE 'Unix\.sleepf?\b' lib bin bench examples \
    --include='*.ml' --include='*.mli' 2>/dev/null \
    | grep -v '^lib/resilience/retry\.ml' \
    | grep -v '^lib/resilience/retry\.mli'; then
  echo "error: raw Unix.sleep/sleepf outside Retry (use Aladin_resilience.Retry.sleepf)" >&2
  exit 1
fi
echo "grep-gate ok: no raw Unix.sleep/sleepf outside lib/resilience/retry.ml"

# Raw sockets are the serving subsystem's business only: every HTTP/socket
# call site must live in lib/serve (the server, its client, and nothing
# else). Other layers talk to a server through Aladin_serve.Client.
if grep -rnE 'Unix\.(socket|accept|bind|listen|connect)\b' \
    lib bin bench examples --include='*.ml' --include='*.mli' 2>/dev/null \
    | grep -v '^lib/serve/'; then
  echo "error: raw socket primitive outside lib/serve (use Aladin_serve)" >&2
  exit 1
fi
echo "grep-gate ok: no socket primitives outside lib/serve"

# Access structures are built by the Engine facade exactly once per
# session; entry points (CLI, examples, bench, serve) must not construct
# or fetch them directly.
if grep -rnE 'Warehouse\.(browser|search|link_query|path_index)\b|Search\.build|Browser\.create|Link_query\.create' \
    bin examples bench lib/serve --include='*.ml' 2>/dev/null; then
  echo "error: access structure built outside the Engine facade (use Aladin.Engine)" >&2
  exit 1
fi
echo "grep-gate ok: all access-layer entry points go through Aladin.Engine"

# The duplicate-detection hot path (the code between the HOT-PATH-BEGIN /
# HOT-PATH-END sentinels, run once per candidate pair inside the fan-out)
# must work exclusively on prepared representations: re-lowercasing or
# re-tokenizing values per pair is the allocation storm that made the
# multi-domain dup step anti-scale, and a hashtable or substring per pair
# (Strdist.dice_bigrams builds both) is the same storm again. The df
# lookups (a Hashtbl) happen once per object, when Object_sim.bind
# resolves them, outside the sentinels.
for f in lib/dupdetect/field_sim.ml lib/dupdetect/object_sim.ml; do
  grep -q 'HOT-PATH-BEGIN' "$f" && grep -q 'HOT-PATH-END' "$f" || {
    echo "error: $f lost its HOT-PATH sentinels" >&2; exit 1; }
  if sed -n '/HOT-PATH-BEGIN/,/HOT-PATH-END/p' "$f" \
      | grep -nE 'String\.lowercase_ascii|Tokenize\.(words|terms)|\bHashtbl\b|\bString\.sub\b|\bdice_bigrams\b'; then
    echo "error: $f re-normalizes or allocates per pair inside the hot path (use the prepared representation)" >&2
    exit 1
  fi
done
echo "grep-gate ok: dup-detection per-pair hot path uses prepared reprs only"

# The text-similarity hot path (scored once per candidate pair emitted by
# the inverted-index join) must stay a fused sorted-merge over the
# prepared per-document arrays: rebuilding count vectors or allocating a
# hashtable per pair is the quadratic-allocation profile the sparse join
# was built to kill.
f=lib/textmine/tfidf.ml
grep -q 'HOT-PATH-BEGIN' "$f" && grep -q 'HOT-PATH-END' "$f" || {
  echo "error: $f lost its HOT-PATH sentinels" >&2; exit 1; }
if sed -n '/HOT-PATH-BEGIN/,/HOT-PATH-END/p' "$f" \
    | grep -nE 'vector_of_counts|term_counts|Hashtbl\.create'; then
  echo "error: $f allocates per pair inside the scoring hot path (use the prepared arrays)" >&2
  exit 1
fi
echo "grep-gate ok: text-similarity per-pair scoring uses prepared arrays only"

# The Smith-Waterman score kernel (the code between the HOT-PATH-BEGIN /
# HOT-PATH-END sentinels in align.ml, one iteration per DP cell of every
# candidate pair) must stay int-only: Stdlib's max/min/compare are
# polymorphic and, without flambda, each call is a generic compare, and a
# hashtable, a format or a substring per cell would cost more than the
# cell itself.
f=lib/seq/align.ml
grep -q 'HOT-PATH-BEGIN' "$f" && grep -q 'HOT-PATH-END' "$f" || {
  echo "error: $f lost its HOT-PATH sentinels" >&2; exit 1; }
if sed -n '/HOT-PATH-BEGIN/,/HOT-PATH-END/p' "$f" \
    | grep -nE '\b(max|min|compare|Hashtbl|Printf)\b|\bString\.sub\b'; then
  echo "error: $f calls a polymorphic or allocating primitive inside the Smith-Waterman cell loop (use the int-only helpers)" >&2
  exit 1
fi
echo "grep-gate ok: Smith-Waterman cell loop is int-only"

dune build
dune runtest

# Pool-size determinism: the same pipeline must print byte-identical
# output whether it runs sequentially or on a 2- or 4-domain pool (4
# exercises the sharded candidate generation with several shards per
# domain and chunked claiming with chunk > 1).
q1=$(mktemp) && q2=$(mktemp)
trap 'rm -f "$q1" "$q2"' EXIT
ALADIN_DOMAINS=1 ./_build/default/examples/quickstart.exe > "$q1"
for d in 2 4; do
  ALADIN_DOMAINS=$d ./_build/default/examples/quickstart.exe > "$q2"
  if ! diff -u "$q1" "$q2"; then
    echo "error: quickstart output differs between 1 and $d domains" >&2
    exit 1
  fi
done
echo "determinism ok: quickstart identical at ALADIN_DOMAINS=1, 2 and 4"

# Same bar for a run the text pass dominates: --text-heavy appends a
# deterministic block of text-rich entries, so this diff pins down the
# sharded tf-idf candidate join (several shards per domain at 4).
ALADIN_DOMAINS=1 ./_build/default/examples/quickstart.exe --text-heavy > "$q1"
for d in 2 4; do
  ALADIN_DOMAINS=$d ./_build/default/examples/quickstart.exe --text-heavy > "$q2"
  if ! diff -u "$q1" "$q2"; then
    echo "error: text-heavy quickstart output differs between 1 and $d domains" >&2
    exit 1
  fi
done
echo "determinism ok: text-heavy quickstart identical at ALADIN_DOMAINS=1, 2 and 4"

# Fault injection: a corrupted corpus must integrate with degradation
# recorded (and exit 0), and --strict must turn that into a failure.
f1=$(mktemp)
trap 'rm -f "$q1" "$q2" "$f1"' EXIT
./_build/default/examples/fault_injection.exe > "$f1"
grep -q "degraded" "$f1" || {
  echo "error: fault injection run reported no degradation" >&2; exit 1; }
grep -q "quarantined" "$f1" || {
  echo "error: fault injection run reported no quarantine" >&2; exit 1; }
if ./_build/default/examples/fault_injection.exe --strict > /dev/null 2>&1; then
  echo "error: fault injection with --strict should exit nonzero" >&2
  exit 1
fi
echo "resilience ok: faults degrade gracefully, --strict fails the run"

# Durability: a saved store passes fsck; damage makes fsck exit nonzero;
# --repair salvages and the store verifies clean again.
sdir=$(mktemp -d)
trap 'rm -f "$q1" "$q2" "$f1"; rm -rf "$sdir"' EXIT
rmdir "$sdir"
./_build/default/bin/aladin_cli.exe demo --save "$sdir" > /dev/null
./_build/default/bin/aladin_cli.exe fsck "$sdir" > /dev/null
member=$(find "$sdir"/snap-* -name '*.csv' | head -n 1)
printf 'torn,garbage' >> "$member"
if ./_build/default/bin/aladin_cli.exe fsck "$sdir" > /dev/null 2>&1; then
  echo "error: fsck should exit nonzero on a damaged store" >&2
  exit 1
fi
./_build/default/bin/aladin_cli.exe fsck --repair "$sdir" > /dev/null
./_build/default/bin/aladin_cli.exe fsck "$sdir" > /dev/null
./_build/default/bin/aladin_cli.exe load --strict "$sdir" > /dev/null
echo "durability ok: fsck detects damage, --repair restores a clean store"

# Kill-anywhere resume: a journaled integration killed by an injected
# fault (exit 3) must resume from its checkpoints — under a different
# domain count, even — to the byte-identical link set of an unkilled run.
kdir=$(mktemp -d)
trap 'rm -f "$q1" "$q2" "$f1" "$slog"; rm -rf "$sdir" "$kdir"' EXIT
cat > "$kdir/uniprot.csv" <<'EOF'
acc,name,description,sequence
P100,alpha,alpha kinase involved in signal transduction,MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGE
P200,beta,beta kinase involved in cell cycle control,MALWMRLLPLLALLALWGPDPAAAFVNQHLCGSHLVEALYLVCGERGFFYTPKT
P300,gamma,gamma receptor binding membrane protein,GSHMASMTGGQQMGRDLYDDDDKDRWGS
EOF
cat > "$kdir/pdb.csv" <<'EOF'
id,acc,resolution
1ABC,P100,1.9
2DEF,P200,2.4
EOF
integrate() { ./_build/default/bin/aladin_cli.exe integrate "$@"; }
integrate --links-out "$kdir/links-plain.csv" \
  "$kdir/uniprot.csv" "$kdir/pdb.csv" > /dev/null
integrate --journal "$kdir/j0" --links-out "$kdir/links-journaled.csv" \
  "$kdir/uniprot.csv" "$kdir/pdb.csv" > /dev/null
diff -u "$kdir/links-plain.csv" "$kdir/links-journaled.csv" || {
  echo "error: journaled links differ from plain integrate" >&2; exit 1; }
if integrate --journal "$kdir/j1" --chaos-kill-step 4 \
    "$kdir/uniprot.csv" "$kdir/pdb.csv" > /dev/null 2>&1; then
  echo "error: --chaos-kill-step run should have been killed" >&2
  exit 1
else
  [ $? -eq 3 ] || { echo "error: injected kill must exit 3" >&2; exit 1; }
fi
rout=$(ALADIN_DOMAINS=4 integrate --resume "$kdir/j1" \
  --links-out "$kdir/links-resumed.csv")
echo "$rout" | grep -q 'resumed 1 committed step' || {
  echo "error: resume did not report its restored checkpoint" >&2
  echo "$rout" >&2
  exit 1
}
diff -u "$kdir/links-plain.csv" "$kdir/links-resumed.csv" || {
  echo "error: resumed links differ from an unkilled run" >&2; exit 1; }
# the journal's checkpoint is an ordinary store: fsck and a strict load
# accept it like any saved warehouse
./_build/default/bin/aladin_cli.exe fsck "$kdir/j1/store" > /dev/null || {
  echo "error: fsck rejected the resumed journal's store" >&2; exit 1; }
./_build/default/bin/aladin_cli.exe load --strict "$kdir/j1/store" > /dev/null || {
  echo "error: strict load rejected the resumed journal's store" >&2; exit 1; }
echo "resume ok: killed journaled run resumed byte-identical at 4 domains; its store passes fsck and load --strict"

# Incremental delta: adding a source to a saved store must recompute only
# the new source's pairs (the CLI prints the delta audit) yet land on the
# byte-identical link set of a cold rebuild over all sources; so must
# replacing a stored source with an edited file of the same name, which
# moves it to the end of the source order. Both at 1 and 4 domains. The
# genes' protein column holds one homolog of a uniprot sequence, so the
# seq pass links them, and the edit point-mutates that uniprot sequence.
cat > "$kdir/genes.csv" <<'EOF'
gene,acc,symbol,protein
G1,P100,ALPHA1,MKWVTFISLLFLFSSAYSRGVFRRDAHKSEIAHRFKDLGE
G2,P300,GAMMA3,RPDFCLEPPYTGPCKARIIRYFYNAKAGLCQTFVYGGCRAKRNNFKSAEDCMRTCGGA
EOF
mkdir -p "$kdir/edited"
sed 's/MKWVTFISLLFLFSSAYS/MKAVTFISLLFLFSTAYS/' "$kdir/uniprot.csv" \
  > "$kdir/edited/uniprot.csv"
for d in 1 4; do
  rm -rf "$kdir/inc-store"
  ALADIN_DOMAINS=$d integrate --save "$kdir/inc-store" \
    "$kdir/uniprot.csv" "$kdir/pdb.csv" > /dev/null
  aout=$(ALADIN_DOMAINS=$d ./_build/default/bin/aladin_cli.exe add \
    "$kdir/inc-store" "$kdir/genes.csv" --links-out "$kdir/links-delta.csv")
  echo "$aout" | grep -q 'recomputed' || {
    echo "error: aladin add printed no delta audit" >&2
    echo "$aout" >&2
    exit 1
  }
  ALADIN_DOMAINS=$d integrate --links-out "$kdir/links-cold.csv" \
    "$kdir/uniprot.csv" "$kdir/pdb.csv" "$kdir/genes.csv" > /dev/null
  diff -u "$kdir/links-cold.csv" "$kdir/links-delta.csv" || {
    echo "error: delta-added links differ from a cold rebuild at $d domains" >&2
    exit 1
  }
  grep -q ',seq,' "$kdir/links-delta.csv" || {
    echo "error: aladin add linked no sequence homolog at $d domains" >&2
    exit 1
  }
  ALADIN_DOMAINS=$d ./_build/default/bin/aladin_cli.exe add \
    "$kdir/inc-store" "$kdir/edited/uniprot.csv" \
    --links-out "$kdir/links-update.csv" > /dev/null
  ALADIN_DOMAINS=$d integrate --links-out "$kdir/links-cold.csv" \
    "$kdir/pdb.csv" "$kdir/genes.csv" "$kdir/edited/uniprot.csv" > /dev/null
  diff -u "$kdir/links-cold.csv" "$kdir/links-update.csv" || {
    echo "error: updated links differ from a cold rebuild at $d domains" >&2
    exit 1
  }
  if cmp -s "$kdir/links-delta.csv" "$kdir/links-update.csv"; then
    echo "error: the edited uniprot moved no link at $d domains" >&2
    exit 1
  fi
done
echo "incremental ok: aladin add of a new and of an edited source matches a cold rebuild byte-identically at 1 and 4 domains"

# Serving: the daemon must come up on a saved store, answer /healthz,
# serve a search from cache on repeat (x-cache: hit), expose /metrics,
# and drain cleanly on SIGTERM.
slog=$(mktemp)
trap 'rm -f "$q1" "$q2" "$f1" "$slog"; rm -rf "$sdir"' EXIT
./_build/default/bin/aladin_cli.exe serve --store "$sdir" --port 0 > "$slog" 2>&1 &
spid=$!
port=""
i=0
while [ $i -lt 100 ]; do
  port=$(sed -n 's|.*http://127\.0\.0\.1:\([0-9][0-9]*\).*|\1|p' "$slog")
  [ -n "$port" ] && break
  kill -0 "$spid" 2>/dev/null || break
  sleep 0.1
  i=$((i + 1))
done
if [ -z "$port" ]; then
  echo "error: aladin serve never reported its port" >&2
  cat "$slog" >&2
  kill "$spid" 2>/dev/null || true
  exit 1
fi
fetch() { ./_build/default/bin/aladin_cli.exe fetch --port "$port" "$@"; }
fetch /healthz | grep -q '^ok$' || {
  echo "error: /healthz did not answer ok" >&2; kill "$spid"; exit 1; }
fetch '/search?q=protein' > /dev/null || {
  echo "error: search over the socket failed" >&2; kill "$spid"; exit 1; }
fetch -i '/search?q=protein' | grep -qi 'x-cache: hit' || {
  echo "error: repeated search was not served from cache" >&2
  kill "$spid"; exit 1; }
fetch /metrics | grep -q 'aladin_cache_hits_total' || {
  echo "error: /metrics missing cache counters" >&2; kill "$spid"; exit 1; }
kill -TERM "$spid"
wait "$spid" || {
  echo "error: serve exited nonzero after SIGTERM" >&2; exit 1; }
grep -q 'drained:' "$slog" || {
  echo "error: serve did not print its drain summary" >&2
  cat "$slog" >&2
  exit 1
}
echo "serve ok: healthz, cached search, metrics, graceful SIGTERM drain"

echo "check.sh: all green"
