#!/usr/bin/env bash
# End-to-end benchmark of the Willump library: builds bench/e2e (and the
# library with it) into build-bench/ at the repository root, then runs each
# selected workload in its own process.
#
#   bench/e2e/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--smoke] [--self-test-corrupt] [--out DIR]
#
# Without --workload every workload runs in turn. Each run prints
# `workload metric value unit` lines, then one JSON line with the run's
# result, and writes DIR/<workload>.json (plus DIR/<workload>.trace.json
# when traced). DIR defaults to build-bench/results. The exit status is
# non-zero if the build fails or any workload fails a correctness check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"
workloads=(toxic-batch price-topk music-serve mixed-slo)

selected=()
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload)
      [[ $# -ge 2 ]] || { echo "run.sh: --workload needs a value" >&2; exit 2; }
      selected+=("$2"); shift 2 ;;
    --seed|--seconds|--out)
      [[ $# -ge 2 ]] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
      args+=("$1" "$2"); shift 2 ;;
    --trace)
      if [[ $# -ge 2 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        args+=(--trace "$2"); shift 2
      else
        args+=(--trace 1); shift
      fi ;;
    --smoke|--self-test-corrupt)
      args+=("$1"); shift ;;
    -h|--help)
      sed -n '2,13p' "${BASH_SOURCE[0]}"; exit 0 ;;
    *)
      echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done
[[ ${#selected[@]} -gt 0 ]] || selected=("${workloads[@]}")

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no Willump source tree at $root (bench/e2e builds the library from it)" >&2
  exit 2
fi

# Build quietly; show the log only when the build fails. Compiler temporaries
# stay inside the build tree too.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
log="$build/build.log"
jobs="$(nproc 2>/dev/null || echo 2)"
if ! { [[ -f "$build/CMakeCache.txt" ]] ||
         cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } >"$log" 2>&1 ||
   ! cmake --build "$build" --target willump_e2e -j "$jobs" >>"$log" 2>&1; then
  cat "$log" >&2
  echo "run.sh: build failed" >&2
  exit 2
fi

cd "$root"
status=0
for w in "${selected[@]}"; do
  "$build/willump_e2e" --workload "$w" --out "$build/results" "${args[@]}" || status=$?
done
exit "$status"
