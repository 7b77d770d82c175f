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
#     undermine the determinism and child-trace contracts.
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

# Domain-local state has four owners: the ambient trace
# (lib/obs/trace.ml) and the deadline (lib/resilience/budget.ml), which
# the pool hands each participant of a fan-out, the pool's own in-task
# flag (lib/par/pool.ml), and the Smith-Waterman scratch array
# (lib/seq/align.ml), which no call reads back. A DLS key
# anywhere else is state a fan-out does not carry to the domains that
# run its items.
if grep -rn 'Domain\.DLS' lib bin bench examples \
    --include='*.ml' --include='*.mli' 2>/dev/null \
    | grep -vE '^lib/(obs/trace|resilience/budget|par/pool|seq/align)\.ml:'; then
  echo "error: Domain.DLS outside lib/obs/trace.ml, lib/resilience/budget.ml, lib/par/pool.ml and lib/seq/align.ml (record through the ambient trace, poll the budget)" >&2
  exit 1
fi
echo "grep-gate ok: Domain.DLS only in trace.ml, budget.ml, pool.ml and align.ml"

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
# whole-warehouse Dup_detect.detect call anywhere else silently
# reintroduces the O(all pairs) rebuild the delta store exists to kill.
# (The pairwise *_between / *_source entry points are fine.) The batch
# orchestrator Linker.discover is gone; the pattern keeps it from coming
# back. The batch seq and text passes, Seq_links.discover and
# Text_links.discover, are only the references the delta passes are
# tested against (and the E7 evaluator), so not even delta.ml calls them.
if { grep -rnE 'Linker\.discover\b|Dup_detect\.detect\b' \
       lib/core lib/serve bin --include='*.ml' 2>/dev/null \
       | grep -v '^lib/core/delta\.ml'
     grep -rnE 'Seq_links\.discover\b|Text_links\.discover\b' \
       lib/core lib/serve bin --include='*.ml' 2>/dev/null; }; then
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
# Snapshot.save is called only from Warehouse.save_dir, which a
# journaled step calls too, so a second store layout cannot creep back
# in. (awk tracks the enclosing top-level let.)
if find lib/core lib/metadata bin -name '*.ml' -exec awk '
    /^let / { fn = ($2 == "rec") ? $3 : $2 }
    /Snapshot\.save([^A-Za-z0-9_]|$)/ &&
      !(FILENAME == "lib/core/warehouse.ml" && fn == "save_dir") {
      print FILENAME ":" FNR ": Snapshot.save in " fn }' {} + | grep .; then
  echo "error: Snapshot.save outside Warehouse.save_dir (save warehouse state through save_dir)" >&2
  exit 1
fi
echo "grep-gate ok: Snapshot.save is called only from Warehouse.save_dir"

# The metadata repository is a codec, not a container: the warehouse's
# profiles are the one record of each source, and Repository.render
# writes metadata.txt from them when the store is saved. A mutable
# field in lib/metadata would let the repository hold a copy of
# warehouse state again.
if grep -rnE '\bmutable\b' lib/metadata --include='*.ml' --include='*.mli' \
    2>/dev/null; then
  echo "error: mutable field in lib/metadata (render from the warehouse's state instead of keeping a copy)" >&2
  exit 1
fi
echo "grep-gate ok: lib/metadata declares no mutable field"

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

# Access structures have one builder: Aladin.Engine's build function
# makes the search index, the one per-object link index and the browser
# over them. Everything else in the core, serve, CLI, example and bench
# layers (the warehouse and the shell included) holds an Engine.t or
# nothing, so no second copy of an access structure can creep back in.
if grep -rnE '\b(Browser\.create|Search\.build|Link_query\.create)\b' \
    lib/core lib/serve bin examples bench --include='*.ml' 2>/dev/null \
    | grep -v '^lib/core/engine\.ml:'; then
  echo "error: access structure built outside lib/core/engine.ml (use Aladin.Engine)" >&2
  exit 1
fi
echo "grep-gate ok: access structures are built only in lib/core/engine.ml"

# The duplicate-detection hot path (the code between the HOT-PATH-BEGIN /
# HOT-PATH-END sentinels, run once per candidate pair inside the fan-out)
# must work exclusively on prepared representations: re-lowercasing or
# re-tokenizing values per pair is the allocation storm that made the
# multi-domain dup step anti-scale, and a hashtable or substring per pair
# (Strdist.dice_bigrams builds both) is the same storm again. The df
# lookups (a Hashtbl) happen once per object, when Object_sim.bind
# resolves them, outside the sentinels. conflict.ml's sentinels hold the
# field-pair loop of Conflict.between (up to 40 x 40 pairs per duplicate
# link of every browser view), which compares the names' tokens and the
# values it prepared once per field: the unprepared Field_sim.similarity
# and Field_sim.name_affinity re-prepare both sides of every pair.
for f in lib/dupdetect/field_sim.ml lib/dupdetect/object_sim.ml \
    lib/dupdetect/conflict.ml; do
  grep -q 'HOT-PATH-BEGIN' "$f" && grep -q 'HOT-PATH-END' "$f" || {
    echo "error: $f lost its HOT-PATH sentinels" >&2; exit 1; }
  if sed -n '/HOT-PATH-BEGIN/,/HOT-PATH-END/p' "$f" \
      | grep -nE 'String\.lowercase_ascii|Tokenize\.(words|terms)|\bHashtbl\b|\bString\.sub\b|\bdice_bigrams\b|Field_sim\.(similarity|name_affinity)\b'; then
    echo "error: $f re-normalizes or allocates per pair inside the hot path (use the prepared representation)" >&2
    exit 1
  fi
done
echo "grep-gate ok: dup-detection and conflict per-pair hot paths use prepared reprs only"

# A browser view reads only its own object's rows: in
# lib/access/browser.ml a relation is scanned (Relation.iter_rows,
# iteri_rows, fold_rows, rows, find_row) only by index_rows, which
# Browser.create runs once per engine build to index each source's rows
# by the object that owns them. A scan anywhere else makes a view cost
# time linear in its source's size again. (awk tracks the enclosing
# top-level let.)
if awk '
    /^let / { fn = ($2 == "rec") ? $3 : $2 }
    /Relation\.(iter_rows|iteri_rows|fold_rows|rows|find_row)([^A-Za-z0-9_]|$)/ &&
      fn != "index_rows" {
      print FILENAME ":" FNR ": relation scan in " fn }' \
    lib/access/browser.ml | grep .; then
  echo "error: browser.ml scans a relation outside index_rows (look the rows up in the index Browser.create built)" >&2
  exit 1
fi
echo "grep-gate ok: browser views scan no relation; only index_rows does"

# Opening a store re-reads its links in linear passes. Every list the
# pair store holds is already in Link.dedup's form (a relink merges each
# pair's kept and fresh links with Link.union, save writes each list in
# its order, and load puts each list in form), so Pair_store.all_links
# checks each list once and merges them (Link.union) instead of hashing
# and sorting every link again. (awk tracks the enclosing top-level
# let.)
grep -q '^let all_links' lib/core/pair_store.ml || {
  echo "error: lib/core/pair_store.ml lost all_links" >&2; exit 1; }
if awk '
    /^let / { fn = ($2 == "rec") ? $3 : $2 }
    /Link\.dedup|Hashtbl|List\.(stable_)?sort/ && fn == "all_links" {
      print FILENAME ":" FNR ": " $0 }' lib/core/pair_store.ml | grep .; then
  echo "error: Pair_store.all_links dedups, hashes or sorts the stored links again (merge the lists with Link.union)" >&2
  exit 1
fi
echo "grep-gate ok: Pair_store.all_links merges the stored lists without hashing or sorting"

# The pair store is kind-blind: a pair's links are one list, every
# record is routed by its endpoints alone, and which links a relink
# replaces is the delta pipeline's one commit rule (each phase replaces
# the kinds it owns). A link-kind constructor in lib/core/pair_store.ml
# is per-kind state or routing coming back. The constructors are read
# from the kind type in lib/linkdisc/link.mli, so a new kind is covered.
kinds=$(sed -n '/^type kind =/,/^$/p' lib/linkdisc/link.mli \
  | grep -oE '^ *[|] *[A-Z][A-Za-z0-9_]*' | tr -d '| ' | paste -sd '|' -)
[ -n "$kinds" ] || {
  echo "error: no link-kind constructors read from lib/linkdisc/link.mli" >&2; exit 1; }
if grep -nwE "$kinds" lib/core/pair_store.ml; then
  echo "error: lib/core/pair_store.ml names a link kind (route records by their endpoints; lib/core/delta.ml owns the kinds)" >&2
  exit 1
fi
echo "grep-gate ok: lib/core/pair_store.ml names no link kind"

# The store's checksum and record codecs run over every byte a load
# reads: the CRC-32 tables are built when the module initialises (a
# lazy value forced from two domains at once raises), a step takes
# eight bytes without a closure per byte, and records are written into
# and read from one buffer by index, not formatted through Printf.
if grep -nE '\b(Printf|Lazy|lazy)\b|String\.iter\b' \
    lib/store/crc32.ml lib/store/records.ml; then
  echo "error: lib/store/crc32.ml or records.ml uses Printf, a lazy value or String.iter (keep the codec table-driven and buffer-based)" >&2
  exit 1
fi
echo "grep-gate ok: the CRC-32 and record codecs use no Printf, lazy value or String.iter"

# The text-similarity hot path must stay on prepared int arrays. In
# tfidf.ml the sentinels hold the tf-idf weighting (run per document of
# every source-pair corpus the delta text pass builds) and the candidate
# join (run per candidate pair); in text_links.ml they hold the per-pair
# code that combines the sources the pass prepared once per relink.
# Re-tokenizing, re-lowercasing or rebuilding documents there repeats
# per pair what the pass does once per source, and a hashtable, a count
# vector or a string sort per pair is the allocation profile the sparse
# join was built to kill.
for f in lib/textmine/tfidf.ml lib/linkdisc/text_links.ml; do
  grep -q 'HOT-PATH-BEGIN' "$f" && grep -q 'HOT-PATH-END' "$f" || {
    echo "error: $f lost its HOT-PATH sentinels" >&2; exit 1; }
  if sed -n '/HOT-PATH-BEGIN/,/HOT-PATH-END/p' "$f" \
      | grep -nE 'vector_of_counts|term_counts|Tokenize\.|String\.lowercase_ascii|\bHashtbl\b|object_documents|String\.compare'; then
    echo "error: $f tokenizes, hashes or sorts strings per pair inside the text hot path (use the prepared arrays)" >&2
    exit 1
  fi
done
echo "grep-gate ok: text-similarity per-pair weighting and join use prepared arrays only"

# The Smith-Waterman score kernel (the code between the HOT-PATH-BEGIN /
# HOT-PATH-END sentinels in align.ml, one iteration per DP cell of every
# candidate pair) must stay int-only: Stdlib's max/min/compare are
# polymorphic and, without flambda, each call is a generic compare, and a
# hashtable, a format or a substring per cell would cost more than the
# cell itself. It reads only the DP row and the query profile built
# before the loop: a substitution-table lookup or a byte read of either
# sequence per cell is the work the profile exists to take out.
f=lib/seq/align.ml
grep -q 'HOT-PATH-BEGIN' "$f" && grep -q 'HOT-PATH-END' "$f" || {
  echo "error: $f lost its HOT-PATH sentinels" >&2; exit 1; }
if sed -n '/HOT-PATH-BEGIN/,/HOT-PATH-END/p' "$f" \
    | grep -nE '\b(max|min|compare|Hashtbl|Printf)\b|\bString\.sub\b|Subst_matrix\.|\bString\.(unsafe_)?get\b|\.\['; then
  echo "error: $f calls a polymorphic or allocating primitive, or reads a sequence or the substitution table, inside the Smith-Waterman cell loop (use the int-only helpers and the query profile)" >&2
  exit 1
fi
echo "grep-gate ok: Smith-Waterman cell loop is int-only and reads only the profile"

# Every lib export has a program caller. A `val` in a lib .mli that only
# tests call is surface the layers must keep and no program needs, so
# scripts/export_gate.sh fails on one unless scripts/export_allow.txt
# names it with a reason (a reference implementation, a test-input
# generator or an observer that a test reads), and fails on an
# allow-list line whose val is gone or has a program caller again. The
# same holds for optional arguments: each is a setting tests and
# benchmarks must cover, so one that no program passes fails unless the
# allow list gives a reason (a query's own term, or a test's only
# handle).
sh scripts/export_gate.sh

dune build
dune runtest

# The tests leave nothing in the temp directory: each temp file and
# directory they make comes from test/tmp.ml, which removes it when the
# runner exits. dune runs a test under a private TMPDIR that it empties
# itself, which would hide what a test left, so the suite runs once
# more here with TMPDIR set to a fresh directory that must stay empty.
tdir=$(mktemp -d)
TMPDIR="$tdir" ./_build/default/test/test_main.exe --compact > /dev/null || {
  echo "error: the tier-1 tests failed under a fresh TMPDIR" >&2
  rm -rf "$tdir"; exit 1; }
if [ -n "$(ls -A "$tdir")" ]; then
  echo "error: the tests left $(ls -A "$tdir" | wc -l) entries in the temp directory (make them with test/tmp.ml):" >&2
  ls -A "$tdir" | head -n 5 >&2
  rm -rf "$tdir"
  exit 1
fi
rmdir "$tdir"
echo "temp-dir gate ok: the tier-1 tests leave nothing in TMPDIR"

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
./_build/default/bin/aladin_cli.exe demo --save "$sdir" > "$f1"
# pairs.txt is the store's one copy of the links and correspondences:
# metadata.txt must hold no link or corr record
tab=$(printf '\t')
if grep -qE "^[0-9a-f]{8}${tab}(link|corr)${tab}" "$sdir"/snap-*/metadata.txt; then
  echo "error: metadata.txt stores link/corr records; pairs.txt is their only copy" >&2
  exit 1
fi
# ...and everything derived from them comes back with the store: the
# summary demo printed before saving (sources, link counts, duplicate
# clusters) is what load prints before its load report
sed '/^warehouse saved to /,$d' "$f1" > "$q1"
./_build/default/bin/aladin_cli.exe load "$sdir" > "$f1"
sed '/^load report:/,$d' "$f1" > "$q2"
diff -u "$q1" "$q2" || {
  echo "error: the loaded store's summary differs from the run that saved it" >&2
  exit 1
}
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
echo "durability ok: links stored once, a loaded store reports the summary it was saved with, fsck detects damage, --repair restores a clean store"

# Kill-anywhere resume: a journaled integration killed by an injected
# fault (exit 3) must resume from its checkpoints — under a different
# domain count, even — to the byte-identical link set of an unkilled run.
# The store's manifest is the only commit record: JOURNAL is the plan's
# one header line, after the kill and after the resume alike, and a
# fresh journal refuses a directory that already holds a store.
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
journal_one_line() {
  [ "$(wc -l < "$kdir/j1/JOURNAL")" -eq 1 ] || {
    echo "error: $kdir/j1/JOURNAL is not one line $1" >&2; exit 1; }
}
journal_one_line "after the killed run"
rout=$(ALADIN_DOMAINS=4 integrate --resume "$kdir/j1" \
  --links-out "$kdir/links-resumed.csv")
echo "$rout" | grep -q 'resumed 1 committed step' || {
  echo "error: resume did not report its restored checkpoint" >&2
  echo "$rout" >&2
  exit 1
}
diff -u "$kdir/links-plain.csv" "$kdir/links-resumed.csv" || {
  echo "error: resumed links differ from an unkilled run" >&2; exit 1; }
journal_one_line "after the resume"
mkdir -p "$kdir/j2"
cp -R "$kdir/j1/store" "$kdir/j2/store"
if integrate --journal "$kdir/j2" "$kdir/uniprot.csv" "$kdir/pdb.csv" \
    > /dev/null 2>&1; then
  echo "error: --journal adopted a directory holding only a store" >&2
  exit 1
fi
[ ! -e "$kdir/j2/JOURNAL" ] || {
  echo "error: a refused --journal still wrote a JOURNAL" >&2; exit 1; }
# the journal's checkpoint is an ordinary store: fsck and a strict load
# accept it like any saved warehouse
./_build/default/bin/aladin_cli.exe fsck "$kdir/j1/store" > /dev/null || {
  echo "error: fsck rejected the resumed journal's store" >&2; exit 1; }
./_build/default/bin/aladin_cli.exe load --strict "$kdir/j1/store" > /dev/null || {
  echo "error: strict load rejected the resumed journal's store" >&2; exit 1; }
echo "resume ok: killed journaled run resumed byte-identical at 4 domains; JOURNAL stayed one line; its store passes fsck and load --strict; a stale store is not adopted"

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
trap 'rm -f "$q1" "$q2" "$f1" "$slog"; rm -rf "$sdir" "$kdir"' EXIT
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
# A large body over the wire: /links (every link, over 200 KB on the
# demo store) twice. The second reply is the bytes the cache stored: its
# body must be byte-identical to the first's, it must say x-cache: hit,
# and the two heads may differ in the x-cache line only.
{ fetch -i /links > "$kdir/links-miss.txt" &&
  fetch -i /links > "$kdir/links-hit.txt"; } || {
  echo "error: /links over the socket failed" >&2; kill "$spid"; exit 1; }
for r in miss hit; do
  sed '/^$/q' "$kdir/links-$r.txt" > "$kdir/head-$r.txt"
  grep -v '^x-cache: ' "$kdir/head-$r.txt" > "$kdir/rest-$r.txt"
  sed '1,/^$/d' "$kdir/links-$r.txt" > "$kdir/body-$r.txt"
done
[ "$(wc -c < "$kdir/body-miss.txt")" -gt 65536 ] || {
  echo "error: the /links body is under 64 KiB, too small for this check" >&2
  kill "$spid"; exit 1; }
cmp -s "$kdir/body-miss.txt" "$kdir/body-hit.txt" || {
  echo "error: the cached /links body differs from the computed one" >&2
  kill "$spid"; exit 1; }
{ grep -qx 'x-cache: miss' "$kdir/head-miss.txt" &&
  grep -qx 'x-cache: hit' "$kdir/head-hit.txt"; } || {
  echo "error: /links was not a miss and then a cache hit" >&2
  kill "$spid"; exit 1; }
diff -u "$kdir/rest-miss.txt" "$kdir/rest-hit.txt" || {
  echo "error: the cached /links head differs beyond its x-cache line" >&2
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
echo "serve ok: healthz, cached search, a large body byte-identical from cache, metrics, graceful SIGTERM drain"

echo "check.sh: all green"
