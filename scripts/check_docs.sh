#!/usr/bin/env bash
# Docs-drift gate: the README's flag and env-knob tables must match the
# binaries and the sweep engine they document, docs/serving.md must match
# cwm_serve --help, docs/dynamic-graphs.md must match the delta verbs of
# cwm_data --help, the docs/robustness.md failpoint table must match the
# sites in src/ and the failpoint.cc inventory, and the docs/ book must
# exist with intact relative links. Run from the repository root with the
# cwm_run binary as $1 (default build/cwm_run), cwm_serve as $2
# (default build/cwm_serve), and cwm_data as $3 (default build/cwm_data).
set -euo pipefail

CWM_RUN="${1:-build/cwm_run}"
CWM_SERVE="${2:-build/cwm_serve}"
CWM_DATA="${3:-build/cwm_data}"
status=0

if [[ ! -x "$CWM_RUN" ]]; then
  echo "cwm_run binary not found at $CWM_RUN (build first)" >&2
  exit 2
fi
if [[ ! -x "$CWM_SERVE" ]]; then
  echo "cwm_serve binary not found at $CWM_SERVE (build first)" >&2
  exit 2
fi
if [[ ! -x "$CWM_DATA" ]]; then
  echo "cwm_data binary not found at $CWM_DATA (build first)" >&2
  exit 2
fi

# --- 1. README flag table vs. `cwm_run --help` ---------------------------
# Flags the binary advertises (from the usage synopsis), minus --help
# itself, which the synopsis does not list.
help_flags=$("$CWM_RUN" --help | grep -oE -- '--[a-z-]+' | sort -u)
# Flags the README documents: first cell of each row of the flags table.
readme_flags=$(grep -oE '^\| `--[a-z-]+' README.md | grep -oE -- '--[a-z-]+' \
  | sort -u)

undocumented=$(comm -23 <(echo "$help_flags") <(echo "$readme_flags"))
if [[ -n "$undocumented" ]]; then
  echo "FLAGS IN --help BUT MISSING FROM README.md:" >&2
  echo "$undocumented" >&2
  status=1
fi
stale=$(comm -13 <(echo "$help_flags") <(echo "$readme_flags"))
if [[ -n "$stale" ]]; then
  echo "FLAGS DOCUMENTED IN README.md BUT ABSENT FROM --help:" >&2
  echo "$stale" >&2
  status=1
fi

# --- 1b. docs/serving.md flag table vs. `cwm_serve --help` ----------------
serve_help_flags=$("$CWM_SERVE" --help | grep -oE -- '--[a-z-]+' | sort -u)
serve_doc_flags=$(grep -oE '^\| `--[a-z-]+' docs/serving.md \
  | grep -oE -- '--[a-z-]+' | sort -u)

serve_undocumented=$(comm -23 <(echo "$serve_help_flags") \
                              <(echo "$serve_doc_flags"))
if [[ -n "$serve_undocumented" ]]; then
  echo "FLAGS IN cwm_serve --help BUT MISSING FROM docs/serving.md:" >&2
  echo "$serve_undocumented" >&2
  status=1
fi
serve_stale=$(comm -13 <(echo "$serve_help_flags") <(echo "$serve_doc_flags"))
if [[ -n "$serve_stale" ]]; then
  echo "FLAGS DOCUMENTED IN docs/serving.md BUT ABSENT FROM cwm_serve --help:" >&2
  echo "$serve_stale" >&2
  status=1
fi

# --- 1c. docs/dynamic-graphs.md vs. the delta verbs of cwm_data ----------
# The chapter's flag table must cover exactly the flags of the delta
# subcommands (gen-delta / patch / compact), and the verbs themselves
# must exist on both sides.
for verb in gen-delta patch compact; do
  if ! "$CWM_DATA" --help | grep -qE "cwm_data $verb "; then
    echo "DELTA VERB '$verb' MISSING FROM cwm_data --help" >&2
    status=1
  fi
  if ! grep -q "cwm_data $verb" docs/dynamic-graphs.md; then
    echo "DELTA VERB '$verb' MISSING FROM docs/dynamic-graphs.md" >&2
    status=1
  fi
done
data_delta_flags=$("$CWM_DATA" --help \
  | grep -E 'cwm_data (gen-delta|patch|compact) ' \
  | grep -oE -- '--[a-z-]+' | sort -u)
delta_doc_flags=$(grep -oE '^\| `--[a-z-]+' docs/dynamic-graphs.md \
  | grep -oE -- '--[a-z-]+' | sort -u)

delta_undocumented=$(comm -23 <(echo "$data_delta_flags") \
                              <(echo "$delta_doc_flags"))
if [[ -n "$delta_undocumented" ]]; then
  echo "DELTA FLAGS IN cwm_data --help BUT MISSING FROM docs/dynamic-graphs.md:" >&2
  echo "$delta_undocumented" >&2
  status=1
fi
delta_stale=$(comm -13 <(echo "$data_delta_flags") <(echo "$delta_doc_flags"))
if [[ -n "$delta_stale" ]]; then
  echo "FLAGS DOCUMENTED IN docs/dynamic-graphs.md BUT ABSENT FROM the cwm_data delta verbs:" >&2
  echo "$delta_stale" >&2
  status=1
fi

# --- 2. README env-knob table vs. the knobs the code reads ---------------
code_knobs=$( (grep -ohE 'Env(Int|Double)\("CWM_[A-Z_]+' \
                 src/scenario/sweep.cc | grep -oE 'CWM_[A-Z_]+';
               grep -ohE 'getenv\("CWM_[A-Z_]+' src/scenario/sweep.cc \
                 | grep -oE 'CWM_[A-Z_]+') | sort -u)
readme_knobs=$(grep -oE '^\| `CWM_[A-Z_]+' README.md | grep -oE 'CWM_[A-Z_]+' \
  | sort -u)

unknown_knobs=$(comm -23 <(echo "$code_knobs") <(echo "$readme_knobs"))
if [[ -n "$unknown_knobs" ]]; then
  echo "ENV KNOBS READ BY THE SWEEP ENGINE BUT MISSING FROM README.md:" >&2
  echo "$unknown_knobs" >&2
  status=1
fi
stale_knobs=$(comm -13 <(echo "$code_knobs") <(echo "$readme_knobs"))
if [[ -n "$stale_knobs" ]]; then
  echo "ENV KNOBS DOCUMENTED IN README.md BUT NOT READ BY sweep.cc:" >&2
  echo "$stale_knobs" >&2
  status=1
fi

# --- 2b. Failpoint inventory: code sites vs. registry vs. docs table -----
# Three sources must agree: the CWM_FAILPOINT sites in src/, the static
# inventory in failpoint.cc, and the docs/robustness.md table (rows
# between the BEGIN/END_FAILPOINT_TABLE markers).
code_sites=$(grep -rhoE 'CWM_FAILPOINT(_STATUS)?\("[a-z_.]+"' src/ \
  | grep -oE '"[a-z_.]+"' | tr -d '"' | sort -u)
inventory_sites=$(sed -n '/BEGIN_FAILPOINT_INVENTORY/,/END_FAILPOINT_INVENTORY/p' \
  src/support/failpoint.cc | grep -oE '"[a-z_.]+"' | tr -d '"' | sort -u)
doc_sites=$(sed -n '/BEGIN_FAILPOINT_TABLE/,/END_FAILPOINT_TABLE/p' \
  docs/robustness.md | grep -oE '^\| `[a-z_.]+`' | tr -d '`| ' | sort -u)

unregistered=$(comm -23 <(echo "$code_sites") <(echo "$inventory_sites"))
if [[ -n "$unregistered" ]]; then
  echo "FAILPOINT SITES IN src/ BUT MISSING FROM THE failpoint.cc INVENTORY:" >&2
  echo "$unregistered" >&2
  status=1
fi
unused=$(comm -13 <(echo "$code_sites") <(echo "$inventory_sites"))
if [[ -n "$unused" ]]; then
  echo "INVENTORY FAILPOINTS WITH NO CWM_FAILPOINT SITE IN src/:" >&2
  echo "$unused" >&2
  status=1
fi
undoc_sites=$(comm -23 <(echo "$inventory_sites") <(echo "$doc_sites"))
if [[ -n "$undoc_sites" ]]; then
  echo "FAILPOINTS MISSING FROM THE docs/robustness.md TABLE:" >&2
  echo "$undoc_sites" >&2
  status=1
fi
stale_sites=$(comm -13 <(echo "$inventory_sites") <(echo "$doc_sites"))
if [[ -n "$stale_sites" ]]; then
  echo "docs/robustness.md TABLE ROWS WITH NO REGISTERED FAILPOINT:" >&2
  echo "$stale_sites" >&2
  status=1
fi

# --- 3. The docs book exists and its relative links resolve --------------
for doc in docs/ARCHITECTURE.md docs/determinism.md docs/embedding.md \
           docs/serving.md docs/robustness.md docs/dynamic-graphs.md; do
  if [[ ! -f "$doc" ]]; then
    echo "MISSING DOC: $doc" >&2
    status=1
  fi
done
for doc in README.md docs/*.md; do
  [[ -f "$doc" ]] || continue
  dir=$(dirname "$doc")
  while IFS= read -r target; do
    [[ -z "$target" ]] && continue
    if [[ ! -e "$dir/$target" ]]; then
      echo "BROKEN LINK in $doc: $target" >&2
      status=1
    fi
  done < <(grep -oE '\]\([A-Za-z0-9_./-]+\.(md|cc|h|cpp)' "$doc" \
             | sed -E 's/^\]\(//' | sed -E 's/#.*$//')
done

if [[ $status -eq 0 ]]; then
  echo "docs in sync: flags, env knobs, book files, relative links"
fi
exit $status
