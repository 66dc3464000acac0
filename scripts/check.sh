#!/usr/bin/env bash
# Full pre-merge check: configure, build, and run the test suite across
# the plain, AddressSanitizer, ThreadSanitizer, and
# UndefinedBehaviorSanitizer builds. Any failing step fails the script.
#
# Usage:
#   scripts/check.sh            # all four builds
#   scripts/check.sh plain      # just one (plain | asan | tsan | ubsan)
#   CTEST_ARGS="-L net" scripts/check.sh   # pass extra args to ctest
#
# Build trees live at build/ (plain), build-asan/, build-tsan/, and
# build-ubsan/ next to this script's repository root and are reused
# across runs.
#
# Each configuration additionally gates on `ctest -L update`: the
# incremental-update suite (delta format fuzzing, WAL replay, the
# concurrent update-storm e2e) must pass standalone in every build —
# under TSan this is the run that proves readers never see a torn
# database mid-apply. The plain build also reruns the whole suite with
# `ctest --repeat until-fail:5`, so a test that shares scratch state with
# another fails the check rather than passing on a lucky run. The UBSan
# build additionally gates on
# `ctest -L net`: the wire codecs are where attacker-controlled bytes
# meet integer arithmetic (frame headers, slot sizes, the v7
# probe-batch padding math, the LWE u32 dot products), and the net
# suite's truncation/bit-flip fuzzers are exactly the inputs that shake
# out shifts-past-width and wraparound — so that lane must pass
# standalone even when CTEST_ARGS narrows the main run. The plain build
# also gates on `ctest -L perfsmoke` (structural-join timing bound; the
# reactor load smoke: 1k idle + 64 active pipelined connections with
# zero sheds — bench_net_load's quick scenario as a test; the
# out-of-core storage gate: a format-v4 mapped cold attach must stay
# >=3x faster than the v3 eager load on a ~10x corpus with index-only
# residency — perf_storage_test; and the privacy gate: decoys=4 median
# within 3x of decoys=0 over a loopback daemon — perf_privacy_test. All
# of it is meaningless under instrumentation, so only plain gates.)

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
CTEST_ARGS="${CTEST_ARGS:-}"

run_build() {
  local name="$1" dir="$2"
  shift 2
  echo "==> [${name}] configure"
  cmake -S "${ROOT}" -B "${dir}" "$@" >/dev/null
  echo "==> [${name}] build"
  cmake --build "${dir}" -j "${JOBS}"
  echo "==> [${name}] ctest"
  # Sanitizer runs serialize less well; keep parallelism but fail loud.
  # shellcheck disable=SC2086
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" ${CTEST_ARGS})
  echo "==> [${name}] ctest -L update"
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" -L update)
  if [ "${name}" = ubsan ]; then
    # Wire-codec fuzzers under UBSan: attacker bytes vs integer math.
    echo "==> [${name}] ctest -L net"
    (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" -L net)
  fi
  if [ "${name}" = plain ]; then
    # Repeat gate: every test five times over, in parallel, so a test
    # that shares state with another (a fixed scratch path, a port) fails
    # the check instead of passing on a lucky interleaving. The timing
    # gates are left to their serial lane below.
    echo "==> [${name}] ctest --repeat until-fail:5"
    (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" \
                          --repeat until-fail:5 -LE perfsmoke)
    # Perf-smoke gate: the structural-join fast path must stay
    # output-linear (pair_join at 1e5 intervals within its time bound),
    # the reactor must serve 64 active pipelined connections amid a
    # 1k-idle crowd with zero sheds (perf_net_load_test), and the v4
    # mapped cold attach must beat the v3 eager load >=3x on a ~10x
    # corpus while charging only index bytes (perf_storage_test), and
    # decoys=4 must stay under 3x the decoys=0 median over a loopback
    # daemon (perf_privacy_test). Serial — a timing assertion must not
    # share the machine with other tests. Sanitizer builds compile the
    # skip in, so only plain gates.
    echo "==> [${name}] ctest -L perfsmoke"
    (cd "${dir}" && ctest --output-on-failure -L perfsmoke)
  fi
  echo "==> [${name}] OK"
}

want="${1:-all}"
case "${want}" in
  plain|all) run_build plain "${ROOT}/build" ;;&
  asan|all)  run_build asan "${ROOT}/build-asan" -DXCRYPT_SANITIZE=address ;;&
  tsan|all)  run_build tsan "${ROOT}/build-tsan" -DXCRYPT_TSAN=ON ;;&
  ubsan|all) run_build ubsan "${ROOT}/build-ubsan" \
                       -DXCRYPT_SANITIZE=undefined ;;&
  plain|asan|tsan|ubsan|all) ;;
  *) echo "usage: $0 [plain|asan|tsan|ubsan|all]" >&2; exit 2 ;;
esac

echo "all requested checks passed"
