#!/usr/bin/env bash
# Project lint gate: two repo-specific shell rules, the bfc-analyze static
# analyzer, then clang-tidy over the library sources when available.
#
#   scripts/lint.sh [--require-clang-tidy] [build-dir]
#
# Rule A — no `#pragma omp critical` in src/la/ or src/count/. The hot
#   kernels aggregate through per-thread accumulators + reduction clauses;
#   a critical section in those loops serialises the exact code the paper's
#   scaling figures measure. (svc/ may use locks; that layer is excluded.)
#
# Rule B — every source file that opens a phase span (a root span,
#   `obs::Span <name>("<literal>")`) must also publish at least one metric:
#   a BFC_COUNT_ADD / BFC_GAUGE_SET / BFC_HIST_OBSERVE hook, or an
#   instrument bound through obs::Registry::instance(). A span with no
#   counters renders as a bare timing bar in the trace, with nothing to
#   correlate the time against.
#
# bfc-analyze — the token-aware rules that replaced the old grep rules C
#   (raw sync primitives), D (implicit memory orders) and E (undocumented
#   metrics), plus epoch-discipline, checked-accumulation,
#   cancellation-checkpoint and span-pairing. Runs against the checked-in
#   baseline (tools/analyze/baseline.json), so only NEW violations fail.
#   See docs/static-analysis.md for the rule catalog and suppression syntax.
#
# clang-tidy — runs over src/*.cpp with the repo .clang-tidy profile when
#   clang-tidy and build/compile_commands.json exist. Skipped with a warning
#   otherwise (the dev container ships only g++); pass --require-clang-tidy
#   to turn the skip into a failure, as the CI lint lane does.
set -euo pipefail

cd "$(dirname "$0")/.."

require_tidy=0
build_dir=build
for arg in "$@"; do
  case "$arg" in
    --require-clang-tidy) require_tidy=1 ;;
    *) build_dir="$arg" ;;
  esac
done

fail=0

# --- Rule A: no omp critical in the counting kernels -----------------------
if matches=$(grep -rn "omp critical" src/la src/count 2>/dev/null); then
  echo "lint: FAIL rule A — 'omp critical' in counting kernels:" >&2
  echo "$matches" >&2
  echo "  (aggregate via per-thread buffers + reduction instead)" >&2
  fail=1
else
  echo "lint: rule A ok (no omp critical in src/la, src/count)"
fi

# --- Rule B: phase spans paired with metric publishes ----------------------
unpaired=()
while IFS= read -r f; do
  if ! grep -Eq "BFC_COUNT_ADD|BFC_GAUGE_SET|BFC_HIST_OBSERVE|Registry::instance\(\)" "$f"; then
    unpaired+=("$f")
  fi
done < <(grep -rlE 'obs::Span [A-Za-z_][A-Za-z0-9_]*\("' src --include='*.cpp')

if ((${#unpaired[@]})); then
  echo "lint: FAIL rule B — phase span without any metric publish:" >&2
  printf '  %s\n' "${unpaired[@]}" >&2
  echo "  (add a BFC_COUNT_ADD/BFC_GAUGE_SET so the span is attributable)" >&2
  fail=1
else
  echo "lint: rule B ok (every phase span file publishes a metric)"
fi

# --- bfc-analyze: the token-aware project rules -----------------------------
analyze_bin="$build_dir/tools/analyze/bfc-analyze"
if [[ ! -x "$analyze_bin" ]]; then
  echo "lint: FAIL — $analyze_bin not built." >&2
  echo "  bfc-analyze replaced the old grep rules C/D/E; build it first:" >&2
  echo "    cmake -B $build_dir -S . && cmake --build $build_dir --target bfc-analyze" >&2
  fail=1
elif ! "$analyze_bin" --root . \
       --baseline tools/analyze/baseline.json \
       --cache "$build_dir/tools/analyze/analyze.cache" \
       src bench examples; then
  echo "lint: FAIL bfc-analyze — new findings above (not in tools/analyze/baseline.json)." >&2
  echo "  Fix them, suppress with '// bfc-analyze: <rule>-ok <why>', or" >&2
  echo "  re-baseline deliberately (docs/static-analysis.md#baseline-workflow)." >&2
  fail=1
else
  echo "lint: bfc-analyze ok (no findings beyond the checked-in baseline)"
fi

# --- clang-tidy over the library ------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  if [[ ! -f "$build_dir/compile_commands.json" ]]; then
    echo "lint: generating $build_dir/compile_commands.json"
    cmake -B "$build_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  mapfile -t sources < <(find src -name '*.cpp' | sort)
  echo "lint: clang-tidy over ${#sources[@]} sources"
  if ! clang-tidy -p "$build_dir" --quiet "${sources[@]}"; then
    echo "lint: FAIL clang-tidy" >&2
    fail=1
  fi
elif ((require_tidy)); then
  echo "lint: FAIL — clang-tidy required but not installed" >&2
  fail=1
else
  echo "lint: clang-tidy not installed, skipping (use --require-clang-tidy to enforce)"
fi

if ((fail)); then
  echo "lint: FAILED" >&2
  exit 1
fi
echo "lint: OK"
