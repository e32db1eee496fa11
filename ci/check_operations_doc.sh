#!/usr/bin/env bash
# Doc-drift guard for docs/OPERATIONS.md, docs/OBSERVABILITY.md and
# docs/STORE_FORMAT.md.
#
# Checks 1-3 run against the *built* amalgamd so the docs can never
# drift from the binary unnoticed; check 4 reads the source:
#
#   1. Flags, both directions: every `--flag` named in either doc must
#      be listed by `amalgamd --help`, and every flag `--help` lists
#      must be documented somewhere in the two docs.
#   2. Examples: every fenced ```jsonl block in each doc is piped,
#      as-is, into a fresh `amalgamd --store-dir <tmpdir>`; every
#      request line must come back with an "ok":true response.
#   3. Metrics, both directions: every `amalgam_*` name documented in
#      OBSERVABILITY.md must appear in a live {"op":"metrics"} scrape,
#      and every metric the scrape exports must be documented.
#      (`_bucket`/`_sum`/`_count` suffixes fold onto their histogram's
#      base name before comparing.)
#   4. Store versions: the record-version and pack-version rows of
#      STORE_FORMAT.md's layout tables name the values of
#      kGraphStoreFormatVersion and kPackFormatVersion in
#      src/solver/store.h.
#
# Usage: ci/check_operations_doc.sh [path/to/amalgamd] [path/to/docs]
#        [path/to/store.h]
set -u

AMALGAMD=${1:-build/amalgamd}
DOCDIR=${2:-docs}
STORE_H=${3:-$DOCDIR/../src/solver/store.h}
OPS_DOC="$DOCDIR/OPERATIONS.md"
OBS_DOC="$DOCDIR/OBSERVABILITY.md"
STORE_DOC="$DOCDIR/STORE_FORMAT.md"

if [ ! -x "$AMALGAMD" ]; then
  echo "error: amalgamd not executable at $AMALGAMD" >&2
  exit 1
fi
for doc in "$OPS_DOC" "$OBS_DOC" "$STORE_DOC" "$STORE_H"; do
  if [ ! -f "$doc" ]; then
    echo "error: doc not found at $doc" >&2
    exit 1
  fi
done

fail=0

# --- 1. Flag drift, both directions ----------------------------------
# --help is the one flag the usage text itself need not re-list.
help_text=$("$AMALGAMD" --help 2>&1)
doc_flags=$(cat "$OPS_DOC" "$OBS_DOC" | grep -oE -- '--[a-z][a-z0-9-]*' | sort -u | grep -v -x -- '--help')
help_flags=$(printf '%s\n' "$help_text" | grep -oE -- '--[a-z][a-z0-9-]*' | sort -u | grep -v -x -- '--help')

for f in $doc_flags; do
  if ! printf '%s\n' "$help_flags" | grep -qx -- "$f"; then
    echo "drift: the docs name '$f' but 'amalgamd --help' does not list it"
    fail=1
  fi
done
for f in $help_flags; do
  if ! printf '%s\n' "$doc_flags" | grep -qx -- "$f"; then
    echo "drift: 'amalgamd --help' lists '$f' but neither doc documents it"
    fail=1
  fi
done

# --- 2. Replay every ```jsonl example block --------------------------
tmp_root=$(mktemp -d)
trap 'rm -rf "$tmp_root"' EXIT

block=0
lines_file="$tmp_root/lines"
for doc in "$OPS_DOC" "$OBS_DOC"; do
  in_block=0
  while IFS= read -r line; do
    if [ "$in_block" -eq 0 ] && [ "$line" = '```jsonl' ]; then
      in_block=1
      : > "$lines_file"
      continue
    fi
    if [ "$in_block" -eq 1 ] && [ "$line" = '```' ]; then
      in_block=0
      block=$((block + 1))
      n_req=$(wc -l < "$lines_file")
      out=$("$AMALGAMD" --store-dir "$tmp_root/store$block" < "$lines_file" 2>/dev/null)
      status=$?
      n_ok=$(printf '%s\n' "$out" | grep -c '"ok":true')
      if [ "$status" -ne 0 ] || [ "$n_ok" -ne "$n_req" ]; then
        echo "drift: $doc jsonl block #$block: $n_req request lines," \
             "$n_ok ok responses, exit $status"
        sed 's/^/  request:  /' "$lines_file"
        printf '%s\n' "$out" | sed 's/^/  response: /'
        fail=1
      fi
      continue
    fi
    if [ "$in_block" -eq 1 ]; then
      printf '%s\n' "$line" >> "$lines_file"
    fi
  done < "$doc"
done

if [ "$block" -eq 0 ]; then
  echo "drift: no \`\`\`jsonl example blocks found in the docs"
  fail=1
fi

# --- 3. Metric drift, both directions --------------------------------
# The scrape body arrives JSON-escaped on one line; the "# HELP <name>"
# markers survive escaping verbatim, so no JSON parsing is needed.
scrape=$(printf '{"id":1,"op":"metrics"}\n' | "$AMALGAMD" --store-dir "$tmp_root/metrics_store" 2>/dev/null)
live_metrics=$(printf '%s\n' "$scrape" | grep -oE '# HELP amalgam_[a-z0-9_]+' | sed 's/# HELP //' | sort -u)
doc_metrics=$(grep -oE '`amalgam_[a-z0-9_]+`' "$OBS_DOC" | tr -d '`' \
  | sed 's/_bucket$//;s/_sum$//;s/_count$//' | sort -u)

if [ -z "$live_metrics" ]; then
  echo "drift: {\"op\":\"metrics\"} returned no '# HELP amalgam_*' lines"
  fail=1
fi
for m in $doc_metrics; do
  if ! printf '%s\n' "$live_metrics" | grep -qx -- "$m"; then
    echo "drift: $OBS_DOC documents '$m' but the live scrape does not export it"
    fail=1
  fi
done
for m in $live_metrics; do
  if ! printf '%s\n' "$doc_metrics" | grep -qx -- "$m"; then
    echo "drift: the live scrape exports '$m' but $OBS_DOC does not document it"
    fail=1
  fi
done

# --- 4. Store format versions ----------------------------------------
# The doc's rows read "| format version | varint, = N (`kGraphStoreFormatVersion`) |"
# and "| pack version | varint, = N (`kPackFormatVersion`) |".
for constant in kGraphStoreFormatVersion kPackFormatVersion; do
  source_value=$(grep -oE "constexpr std::uint32_t $constant = [0-9]+;" "$STORE_H" \
    | grep -oE '[0-9]+;' | tr -d ';')
  doc_values=$(grep -E "^\| [a-z ]*version \| varint, = [0-9]+ \(\`$constant\`\) \|" "$STORE_DOC" \
    | grep -oE '= [0-9]+' | tr -d '= ')
  if [ -z "$source_value" ] || [ -z "$doc_values" ]; then
    echo "drift: no $constant value found in $STORE_H or no row naming it in $STORE_DOC"
    fail=1
    continue
  fi
  for v in $doc_values; do
    if [ "$v" != "$source_value" ]; then
      echo "drift: $STORE_DOC gives $constant = $v but $STORE_H has $source_value"
      fail=1
    fi
  done
done

if [ "$fail" -eq 0 ]; then
  n_metrics=$(printf '%s\n' "$live_metrics" | wc -l)
  echo "ok: $block jsonl blocks replayed, flags in sync with --help," \
       "$n_metrics metrics in sync with the doc, store versions in sync" \
       "with store.h"
fi
exit $fail
