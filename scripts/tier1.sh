#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): default build + full ctest,
# then a ThreadSanitizer pass over the concurrency-bearing suites
# (thread pool / hogwild trainer / adaptive sampler / TA search /
# serving engine snapshot-swap stress / ingestion write path / network
# front-end), then an UndefinedBehaviorSanitizer pass over the
# persistence/fault suites (serialization, fault injection, the ingest
# journal, online fold-in — the paths that parse untrusted bytes or
# sample from possibly-empty domains) plus the quantized retrieval
# stack (integer scale/zero-point math and the batched serve path).
#
# The ingest suites ride the existing binaries: serving_test carries
# the journal unit tests, the online/offline differential and the
# writer-vs-query-vs-reload stress (TSan + UBSan); net_test carries the
# ingest wire codecs, the server write-path bridge, and the
# multi-reactor front-end (per-reactor ownership, frame-id pipelining,
# the typed refusal of other wire versions, reload+drain stress) under
# BOTH TSan and UBSan; and
# fault_test carries the SIGKILL/truncation/corruption journal harness
# (UBSan only — fault_test forks children and stays out of TSan).
# shard_test carries the scatter-gather serving tier (partitioner,
# threshold merge, N-shard differential, kill/restart failure
# semantics) under BOTH TSan and UBSan.
#
# The query-kind suites (group/reciprocal wire codecs, serve-vs-oracle
# differentials, shard merge certificates, sign-aware training) ride
# recommend_test / serving_test / net_test / shard_test /
# embedding_test, so they run under BOTH sanitizers automatically.
# ebsn_test (dislike/group TSV parsing of untrusted bytes) and
# eval_test (Recall@k / NDCG@k guard math) join the UBSan stage.
#
# An AddressSanitizer pass (build-asan/, GEMREC_SANITIZE=address) runs
# the suites that parse untrusted bytes or own raw buffers — fault,
# net, serving, shard, embedding and obs — so an out-of-bounds read in
# a decoder or a use-after-free in the reactor fails the stage.
#
# Usage: scripts/tier1.sh [--no-tsan] [--no-ubsan] [--no-asan]
#
# The net stage talks loopback TCP only and every test server binds
# port 0 (kernel-assigned ephemeral ports), so parallel CI jobs on one
# host cannot collide on a port.
#
# The TSan stage builds into build-tsan/ with GEMREC_SANITIZE=thread
# and runs the common/embedding/recommend test binaries under
# scripts/tsan.supp, which suppresses only the *intentional* data races
# of hogwild SGD (SgdEdgeStep updates shared embedding rows lock-free
# by design — Recht et al.). Everything else (the pool, the sampler's
# snapshot publication, TA scratch reuse) must be race-free.

set -euo pipefail
cd "$(dirname "$0")/.."

RUN_TSAN=1
RUN_UBSAN=1
RUN_ASAN=1
for arg in "$@"; do
  case "$arg" in
    --no-tsan) RUN_TSAN=0 ;;
    --no-ubsan) RUN_UBSAN=0 ;;
    --no-asan) RUN_ASAN=0 ;;
  esac
done

echo "== tier-1: default build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

if [[ "$RUN_TSAN" == "1" ]]; then
  echo "== tier-1: ThreadSanitizer pass (common/embedding/recommend/serving/obs/shard) =="
  cmake -B build-tsan -S . -DGEMREC_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target \
    common_test embedding_test recommend_test serving_test net_test \
    obs_test shard_test
  export TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp"
  ./build-tsan/tests/common_test
  ./build-tsan/tests/embedding_test
  ./build-tsan/tests/recommend_test
  ./build-tsan/tests/serving_test
  ./build-tsan/tests/net_test
  # Striped lock-free metrics: writers vs the snapshot reader must be
  # race-free (RegistryTest.ConcurrentWritersAndSnapshotReader).
  ./build-tsan/tests/obs_test
  # Scatter-gather tier: the router thread vs SubmitQuery/SubmitStats
  # callers, breaker eviction vs completion callbacks, and ShardGroup's
  # kill/restart against live coordinator traffic.
  ./build-tsan/tests/shard_test
fi

if [[ "$RUN_UBSAN" == "1" ]]; then
  echo "== tier-1: UndefinedBehaviorSanitizer pass (fault/serialization/fold-in) =="
  cmake -B build-ubsan -S . -DGEMREC_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "$(nproc)" --target \
    fault_test embedding_test common_test obs_test recommend_test \
    serving_test net_test shard_test ebsn_test eval_test
  # -fno-sanitize-recover=all: any UB (e.g. sampling an empty domain
  # during fold-in, misaligned loads while parsing corrupt artifacts)
  # aborts the binary and fails this stage.
  ./build-ubsan/tests/fault_test
  ./build-ubsan/tests/embedding_test
  ./build-ubsan/tests/common_test
  # Histogram bucket math (bit shifts at the 64-bit edge) and the
  # stats wire codec parse under UBSan.
  ./build-ubsan/tests/obs_test
  # Quantization arithmetic (scale/zero-point folding, int8/int16 code
  # clamps, packed ordering keys) and the batched serve path: shifts,
  # casts and float->int rounding must all be defined.
  ./build-ubsan/tests/recommend_test
  ./build-ubsan/tests/serving_test
  # Wire header parsing (u64 frame ids, length fields from untrusted
  # bytes) and the reactor pointer<->epoll-tag casts.
  ./build-ubsan/tests/net_test
  # Scatter-gather tier: the splitmix64 pair-hash shifts, the fp32 TA
  # bound trailer parse, and the merge/certificate float comparisons.
  ./build-ubsan/tests/shard_test
  # Signed-record TSV parsing (dislikes.tsv / groups.tsv from untrusted
  # bytes) and the synthetic scenario post-pass.
  ./build-ubsan/tests/ebsn_test
  # Recall@k / NDCG@k guard math: log discounts, clamped depths, and
  # the packed (event, partner) u64 key shifts.
  ./build-ubsan/tests/eval_test
fi

if [[ "$RUN_ASAN" == "1" ]]; then
  echo "== tier-1: AddressSanitizer pass (fault/net/serving/shard/embedding/obs) =="
  cmake -B build-asan -S . -DGEMREC_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$(nproc)" --target \
    fault_test net_test serving_test shard_test embedding_test obs_test
  # Out-of-bounds reads while decoding frames, payloads, journal
  # records and model artifacts, and use-after-free across the
  # reactor/worker completion hand-off, abort the binary.
  ./build-asan/tests/fault_test
  ./build-asan/tests/net_test
  ./build-asan/tests/serving_test
  ./build-asan/tests/shard_test
  ./build-asan/tests/embedding_test
  ./build-asan/tests/obs_test
fi

echo "== tier-1: OK =="
