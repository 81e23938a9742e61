#!/usr/bin/env bash
# Header gates for the stable API layer, run from the repository root.
#
# Self-containment: every src/api/*.h — plus the simulate headers an
# embedder reaches for when tuning the estimator (EstimatorOptions and
# the world pool store) — must compile standalone (a translation unit
# that includes only the header), so embedders can include any of them
# first without hidden include-order dependencies.
#
# Include direction (docs/ARCHITECTURE.md layer map): no file in a layer
# below scenario/ includes scenario/ or serve/, and no file in scenario/
# includes serve/. Offending lines are printed.
set -euo pipefail

CXX="${CXX:-g++}"
status=0
for header in src/api/*.h src/simulate/estimator.h \
              src/simulate/world_pool.h; do
  if "$CXX" -std=c++20 -fsyntax-only -Isrc -x c++ "$header"; then
    echo "self-contained: $header"
  else
    echo "NOT self-contained: $header" >&2
    status=1
  fi
done

# check_includes <layers pattern> <dir>...: fails on any #include of the
# named layers under the given directories.
check_includes() {
  local pattern=$1 hits
  shift
  if hits=$(grep -rnE "#include \"($pattern)/" "$@"); then
    echo "upward include of ($pattern)/:" >&2
    echo "$hits" >&2
    status=1
  else
    echo "include direction ok: no ($pattern)/ include under $*"
  fi
}
check_includes 'scenario|serve' \
  src/{support,graph,model,simulate,rrset,algo,baselines,api,exp,store,obs,delta}
check_includes 'serve' src/scenario
exit $status
