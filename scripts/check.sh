#!/usr/bin/env bash
# Full pre-merge check: the tier-1 verify (configure, build, ctest) run
# twice — once plain, once under AddressSanitizer + UBSan — in separate
# build directories so the object files never mix.
#
#   scripts/check.sh            # plain + asan passes
#   scripts/check.sh --plain    # plain pass only
#   scripts/check.sh --asan     # sanitized pass only
#   scripts/check.sh --tsan     # ThreadSanitizer pass: builds build-tsan/
#                               # and runs the suites that spawn threads:
#                               # ParallelFor, SweepRunner, the DCRD epoch
#                               # solve (DrSolverOracle, DcrdRouterEpoch),
#                               # plus Flags
#
# DCRD_CMAKE_ARGS adds extra -D arguments to every configure (CI uses it
# for ccache launchers).
set -euo pipefail

cd "$(dirname "$0")/.."

extra_cmake_args=()
if [[ -n "${DCRD_CMAKE_ARGS:-}" ]]; then
  # shellcheck disable=SC2206
  extra_cmake_args=(${DCRD_CMAKE_ARGS})
fi

run_plain=1
run_asan=1
run_tsan=0
case "${1:-}" in
  --plain) run_asan=0 ;;
  --asan) run_plain=0 ;;
  --tsan) run_plain=0; run_asan=0; run_tsan=1 ;;
  "") ;;
  *) echo "usage: $0 [--plain|--asan|--tsan]" >&2; exit 2 ;;
esac

configure_build() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "${extra_cmake_args[@]}" "$@"
  cmake --build "$dir" -j
}

verify() {
  local dir="$1"; shift
  configure_build "$dir" "$@"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

if [[ "$run_plain" == 1 ]]; then
  echo "=== tier-1 verify (plain) ==="
  verify build
fi

if [[ "$run_asan" == 1 ]]; then
  echo "=== tier-1 verify (address;undefined) ==="
  verify build-asan "-DDCRD_SANITIZE=address;undefined"
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "=== ThreadSanitizer pass (ParallelFor + SweepRunner + epoch solve + Flags) ==="
  cmake -B build-tsan -S . "${extra_cmake_args[@]}" "-DDCRD_SANITIZE=thread"
  # Only the suites that actually spawn threads; keeps the nightly short.
  cmake --build build-tsan -j --target sim_test common_test dcrd_test
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    -R 'ParallelFor|SweepRunner|DrSolverOracle|DcrdRouterEpoch|Flags'
fi

echo "=== check.sh: all requested passes green ==="
