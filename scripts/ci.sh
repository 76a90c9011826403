#!/usr/bin/env bash
# Tier-1 verify in one command: docs check + configure + build + ctest.
# Exits nonzero on the first failure, so CI and tooling can gate on it
# directly. The build runs with -Wall -Wextra promoted to errors
# (FEDTRANS_WERROR=ON), so a new warning fails CI; the docs check
# (scripts/check_docs.sh) fails on pages referencing renamed/removed files
# or symbols. The ctest suite includes the tree-parity, numeric
# partial-aggregation and retry-policy gates (test_fabric), the
# chaos-scenario sweep (test_chaos — fault x topology x Byzantine-attack
# matrix, invariant checks under parallel ctest with pinned
# FEDTRANS_THREADS), the robust-aggregation gates (test_robust), and the
# engine golden (test_engine_golden — every strategy pinned to recorded
# weight/history/cost/accuracy/checkpoint hashes at 1 and 4 threads).
#
# Beyond the main leg, two auxiliary builds gate kernel and fabric hygiene:
#   * an ASan+UBSan build (FEDTRANS_SANITIZE=ON) running the tensor/nn
#     suites — the packed-panel GEMM micro-kernels and the batched im2col
#     lowering are exactly the code where an off-by-one tail read would
#     otherwise go unnoticed — plus the networked code: the wire codecs
#     (test_wire), the federation server over every topology (test_fabric,
#     test_fabric_golden) over the simulated and the socket transport
#     (test_socket_transport), the telemetry layer (test_obs), the engine
#     golden (test_engine_golden) and the checkpoint decoder, which reads
#     bytes from disk (test_checkpoint);
#   * a ThreadSanitizer build (-fsanitize=thread passed through the compile
#     and link flags) running the concurrent code: the federation server,
#     whose sync rounds poll client agents and whose async sessions train
#     their in-flight clients on the shared ThreadPool (test_fabric,
#     test_fabric_golden), the socket transport (test_socket_transport),
#     the pool-parallel kernels (test_backend) and the per-thread telemetry
#     shards (test_obs);
#   * a SIMD-disabled build (FEDTRANS_SIMD=OFF, still -Werror) proving the
#     scalar parity reference compiles warnings-clean on its own.
# Set FEDTRANS_CI_FAST=1 to skip the auxiliary legs.
#
# Usage: scripts/ci.sh [extra ctest args...]
#   BUILD_DIR  build directory   (default: build)
#   JOBS       parallel jobs     (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 2)}

scripts/check_docs.sh
cmake -B "$BUILD_DIR" -S . -DFEDTRANS_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" "$@"

# Multi-process leg: leaf aggregators as forked child processes over real
# Unix-domain sockets (examples/multiproc_federation.cpp). The example
# verifies the cross-process round bitwise against an in-process replay
# and exits nonzero on any divergence; the watchdog timeout turns a hung
# socket (a child that died mid-frame, a listener that never accepts) into
# a CI failure instead of a stuck job.
FEDTRANS_THREADS=4 timeout 300 "$BUILD_DIR"/example_multiproc_federation

# Tracing-enabled adversarial leg: the chaos-scenario sweep (now including
# the Byzantine attack matrix and the robust-aggregation suite), the
# robust-reducer unit/property gates, the parity gates, the flat-fabric
# golden and the engine golden must stay bitwise deterministic with live
# tracing
# (FEDTRANS_TRACE=1 autostarts wall-clock tracing in every test binary;
# test_obs also exercises the virtual clock explicitly). test_chaos/test_robust run with the
# CMake-pinned FEDTRANS_THREADS=4 so their 1-vs-4-thread determinism
# checks see a stable pool regardless of the CI host's core count.
FEDTRANS_TRACE=1 ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -j "$JOBS" -R 'test_(chaos|robust|fabric|fabric_golden|engine_golden|obs)$'

if [ -z "${FEDTRANS_CI_FAST:-}" ]; then
  # ASan+UBSan over the kernel-heavy suites (tensor, dtype, GEMM backends,
  # conv lowerings, layers), the bitwise training golden, whose hashes
  # must hold under the sanitizer build too, the engine golden, and the
  # suites that decode untrusted bytes or move them between endpoints: the
  # wire codecs, the federation server's broadcast/collect paths at every
  # tree depth (with the flat-fabric golden), the socket transport, the
  # checkpoint decoder, and tracing.
  SAN_DIR="$BUILD_DIR-asan"
  cmake -B "$SAN_DIR" -S . -DFEDTRANS_SANITIZE=ON
  cmake --build "$SAN_DIR" -j "$JOBS" --target \
    test_tensor test_gemm_simd test_mixed_precision test_backend \
    test_layers test_layers_extended test_train_golden \
    test_wire test_fabric test_fabric_golden test_obs test_engine_golden \
    test_checkpoint test_socket_transport
  ctest --test-dir "$SAN_DIR" --output-on-failure -j "$JOBS" \
    -R 'test_(tensor|gemm_simd|mixed_precision|backend|layers|layers_extended|train_golden|wire|fabric|fabric_golden|obs|engine_golden|checkpoint|socket_transport)$'

  # ThreadSanitizer over the code that runs on several threads at once:
  # any data race it reports fails the leg (halt_on_error).
  TSAN_DIR="$BUILD_DIR-tsan"
  cmake -B "$TSAN_DIR" -S . -DCMAKE_CXX_FLAGS=-fsanitize=thread \
    -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread
  cmake --build "$TSAN_DIR" -j "$JOBS" --target \
    test_fabric test_fabric_golden test_socket_transport test_backend \
    test_obs
  TSAN_OPTIONS=halt_on_error=1 ctest --test-dir "$TSAN_DIR" \
    --output-on-failure -j "$JOBS" \
    -R 'test_(fabric|fabric_golden|socket_transport|backend|obs)$'

  # Scalar-only build: the always-on parity reference must stay
  # warnings-clean without any SIMD code paths compiled in, and reproduce
  # the scalar-tier training golden.
  NOSIMD_DIR="$BUILD_DIR-nosimd"
  cmake -B "$NOSIMD_DIR" -S . -DFEDTRANS_SIMD=OFF -DFEDTRANS_WERROR=ON
  cmake --build "$NOSIMD_DIR" -j "$JOBS" --target \
    test_gemm_simd test_mixed_precision test_train_golden
  ctest --test-dir "$NOSIMD_DIR" --output-on-failure -j "$JOBS" \
    -R 'test_(gemm_simd|mixed_precision|train_golden)$'
fi
