#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): default build + full ctest,
# configured with -DGEMREC_WERROR=ON so a new compiler warning fails
# the stage, then a ThreadSanitizer pass over the concurrency-bearing suites
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
# a decoder or a use-after-free in the reactor fails the stage. It also
# runs common and recommend, whose multi-row quantized kernels load
# several code rows per step and finish the tail apart, and whose
# batched walk expands 64-row code blocks, the last one short, into
# per-query heaps.
#
# A benchmark-harness stage configures perfbench/ (its own CMake
# project, compiling ../src) into build-perfbench/, builds servebench
# and distributions_test, and runs distributions_test. A src/ API
# change that breaks the benchmark harness fails here rather than in
# the benchmark pipeline. It then smoke-runs every perfbench workload
# for one second (hot_partner, cold_mix, write_mix, sharded_mix):
# each run boots the full serve stack, drives it open-loop over
# loopback and exits nonzero when a sampled answer differs from its
# oracle, so this is tier-1's one run of the whole stack under load.
# The first run builds perfbench into the git-ignored .bench_build/
# and trains its model there (about a minute on 4 cores); later runs
# take roughly 10 s each.
#
# Usage: scripts/tier1.sh [--no-tsan] [--no-ubsan] [--no-asan]
#                         [--no-perfbench]
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
RUN_PERFBENCH=1
for arg in "$@"; do
  case "$arg" in
    --no-tsan) RUN_TSAN=0 ;;
    --no-ubsan) RUN_UBSAN=0 ;;
    --no-asan) RUN_ASAN=0 ;;
    --no-perfbench) RUN_PERFBENCH=0 ;;
    *)
      echo "tier1.sh: unknown argument: $arg" >&2
      echo "usage: scripts/tier1.sh [--no-tsan] [--no-ubsan] [--no-asan]" \
        "[--no-perfbench]" >&2
      exit 2
      ;;
  esac
done

echo "== tier-1: default build + full test suite =="
cmake -B build -S . -DGEMREC_WERROR=ON >/dev/null
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
  # Scatter-gather tier: breaker eviction vs completion callbacks, and
  # ShardGroup's kill/restart against live coordinator traffic. The
  # submitters send their own fan-outs under the coordinator mutex
  # while the router thread drains, sweeps and re-probes around it:
  # that split is lock-ordering surface, so the coordinator and
  # shard-failure suites run three times.
  ./build-tsan/tests/shard_test \
    --gtest_filter='-CoordinatorTest.*:ShardFailureTest.*'
  ./build-tsan/tests/shard_test --gtest_repeat=3 \
    --gtest_filter='CoordinatorTest.*:ShardFailureTest.*'
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
  # Quantization arithmetic (scale/zero-point folding, 11-bit code
  # clamps, packed ordering keys) and the batched serve path: shifts,
  # casts and float->int rounding must all be defined.
  ./build-ubsan/tests/recommend_test
  ./build-ubsan/tests/serving_test
  # Wire header parsing (u64 frame ids, length fields from untrusted
  # bytes) and the reactor pointer<->epoll-tag casts.
  ./build-ubsan/tests/net_test
  # Scatter-gather tier: the shard-id modulo placement, the fp32 TA
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
  echo "== tier-1: AddressSanitizer pass (fault/net/serving/shard/embedding/obs/common/recommend) =="
  cmake -B build-asan -S . -DGEMREC_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$(nproc)" --target \
    fault_test net_test serving_test shard_test embedding_test obs_test \
    common_test recommend_test
  # Out-of-bounds reads while decoding frames, payloads, journal
  # records and model artifacts, and use-after-free across the
  # reactor/worker completion hand-off, abort the binary.
  ./build-asan/tests/fault_test
  ./build-asan/tests/net_test
  ./build-asan/tests/serving_test
  ./build-asan/tests/shard_test
  ./build-asan/tests/embedding_test
  ./build-asan/tests/obs_test
  # The rows kernels' 4-row steps and scalar tails, and the walk's
  # expansion of the last, short code block: an overread past the last
  # code row or block-max row aborts the binary.
  ./build-asan/tests/common_test
  ./build-asan/tests/recommend_test
fi

if [[ "$RUN_PERFBENCH" == "1" ]]; then
  echo "== tier-1: benchmark harness build (perfbench/) =="
  cmake -S perfbench -B build-perfbench >/dev/null
  cmake --build build-perfbench -j "$(nproc)" --target \
    servebench distributions_test
  ./build-perfbench/distributions_test
  echo "== tier-1: perfbench smoke runs (every workload, 1 s each) =="
  for workload in hot_partner cold_mix write_mix sharded_mix; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
      --trace 0 >/dev/null
  done
fi

echo "== tier-1: OK =="
