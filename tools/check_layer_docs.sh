#!/usr/bin/env bash
# Documentation convention check, run from ctest (see tests/CMakeLists.txt).
#
# Enforces five invariants that keep the docs and CI anchored to the code:
#   1. every src/<module>/ has at least one header carrying a
#      "// Layer: <n> (<module>)" comment naming its layer,
#   2. every module name appears in docs/ARCHITECTURE.md (so a new module
#      cannot land without the architecture doc mentioning it),
#   3. every bench binary registered in bench/CMakeLists.txt — the
#      airindex_add_bench(...) drivers plus micro_benchmarks — has a
#      "| `name`" table row in docs/BENCHMARKS.md (so a new bench cannot
#      land undocumented), and
#   4. every airindex_add_bench(...) driver either appears in the CI
#      smoke-bench matrix (.github/workflows/ci.yml) or carries a
#      "# ci-exempt" marker on its registration line (so a new bench
#      cannot silently land ungated), and
#   5. the shared-flag table in docs/BENCHMARKS.md has a "| `--flag"
#      row for exactly the flags bench/bench_main.cc parses (so a new
#      flag cannot land undocumented, nor a deleted one leave a stale
#      row).
#
# Usage: tools/check_layer_docs.sh [repo-root]

set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
arch_doc="$root/docs/ARCHITECTURE.md"
status=0

if [ ! -f "$arch_doc" ]; then
  echo "FAIL: $arch_doc is missing" >&2
  exit 1
fi

for dir in "$root"/src/*/; do
  module="$(basename "$dir")"
  if ! grep -qE "^// Layer: [0-9]+ \($module\)" "$dir"*.h 2>/dev/null; then
    echo "FAIL: src/$module has no header with a '// Layer: <n> ($module)'" \
         "comment naming its layer" >&2
    status=1
  fi
  if ! grep -q "$module" "$arch_doc"; then
    echo "FAIL: docs/ARCHITECTURE.md does not mention module" \
         "'src/$module'" >&2
    status=1
  fi
done

bench_doc="$root/docs/BENCHMARKS.md"
bench_cmake="$root/bench/CMakeLists.txt"
if [ ! -f "$bench_doc" ]; then
  echo "FAIL: $bench_doc is missing" >&2
  exit 1
fi
benches="$(sed -n 's/^airindex_add_bench(\([a-z0-9_]*\)).*/\1/p' \
  "$bench_cmake"; echo micro_benchmarks)"
for bench in $benches; do
  if ! grep -q "| \`$bench\`" "$bench_doc"; then
    echo "FAIL: docs/BENCHMARKS.md has no table row for bench" \
         "'$bench' (want a line containing \"| \`$bench\`\")" >&2
    status=1
  fi
done

ci_workflow="$root/.github/workflows/ci.yml"
if [ ! -f "$ci_workflow" ]; then
  echo "FAIL: $ci_workflow is missing" >&2
  exit 1
fi
# Benches whose registration line ends in "# ci-exempt" are deliberately
# not smoke-gated (full sweeps too slow for CI); everything else must be
# referenced by the smoke-bench matrix.
gated="$(sed -n \
  's/^airindex_add_bench(\([a-z0-9_]*\))[[:space:]]*$/\1/p' "$bench_cmake")"
for bench in $gated; do
  if ! grep -q "binary: $bench" "$ci_workflow"; then
    echo "FAIL: bench '$bench' is not in the CI smoke-bench matrix" \
         "(.github/workflows/ci.yml); add a matrix entry with" \
         "\"binary: $bench\" or mark it '# ci-exempt' in" \
         "bench/CMakeLists.txt" >&2
    status=1
  fi
done

bench_main="$root/bench/bench_main.cc"
parsed="$(sed -n 's/.*strcmp(argv\[i\], "\(--[a-z-]*\)").*/\1/p' \
  "$bench_main" | sort -u)"
documented="$(sed -n 's/^| `\(--[a-z-]*\)[ `].*/\1/p' "$bench_doc" | sort -u)"
for flag in $(comm -23 <(echo "$parsed") <(echo "$documented")); do
  echo "FAIL: bench/bench_main.cc parses '$flag' but docs/BENCHMARKS.md" \
       "has no flag-table row for it (want a line starting" \
       "\"| \`$flag\")" >&2
  status=1
done
for flag in $(comm -13 <(echo "$parsed") <(echo "$documented")); do
  echo "FAIL: docs/BENCHMARKS.md documents '$flag', which" \
       "bench/bench_main.cc does not parse; drop the stale row" >&2
  status=1
done

if [ "$status" -eq 0 ]; then
  echo "OK: every src/ module names its layer, docs/ARCHITECTURE.md covers" \
       "every module, docs/BENCHMARKS.md covers every bench binary and" \
       "exactly the shared flags, and every non-exempt bench is gated by" \
       "the CI smoke-bench matrix"
fi
exit $status
