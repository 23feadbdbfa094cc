// Hot-path before/after report (not a paper table): measures the two
// acceptance metrics of the SIMD/pooling/zero-alloc overhaul and
// writes them to BENCH_hotpath.json next to the frozen seed baselines,
// so regressions against either the seed or the current numbers are
// one diff away.
//
//   1. Training throughput: GEM-A at K = 100 on the Beijing synthetic
//      city (the BM_GemAHighDim/100 workload of
//      perf_training_throughput) — target >= 1.5x the seed's
//      120.4k items/s.
//   2. Online TA latency: top-10 event-partner queries over the
//      unpruned test-event x partner space (the Table-VI workload),
//      with the steady-state heap-allocation count (must be 0).
//   3. Snapshot publish cost on the serving benchmark's city shape
//      (Beijing at 4x scale, K = 32, top-k 20): a build with no
//      previous, a publish after 16 and after 64 changed users, the
//      stage split of each, and the heap bytes one snapshot holds. Full
//      and delta reps alternate, so drift over the run hits both alike,
//      and each median is written with its p25 and p75.
//   4. Group queries on the same city: the exhaustive GroupTopEvents
//      against the served GroupScan, µs per query and the share of
//      events the scan scores exactly, per aggregator.
//
// Run from the repo root so BENCH_hotpath.json lands there:
//   ./build/bench/hotpath_report

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <iostream>
#include <new>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/vec_math.h"
#include "recommend/batch_ta_search.h"
#include "recommend/candidate_index.h"
#include "recommend/quantized_space.h"
#include "recommend/query_kinds.h"
#include "recommend/space_index.h"
#include "recommend/space_transform.h"
#include "recommend/ta_search.h"
#include "serving/snapshot_builder.h"

namespace {

std::atomic<size_t> g_allocations{0};
/// Bytes held by live operator-new blocks (usable sizes).
std::atomic<int64_t> g_live_bytes{0};

void* Track(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void Release(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return Track(std::malloc(size)); }

void* operator new[](std::size_t size) { return Track(std::malloc(size)); }

void* operator new(std::size_t size, std::align_val_t align) {
  return Track(std::aligned_alloc(static_cast<std::size_t>(align), size));
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}

namespace gemrec::bench {
namespace {

// Seed-commit baselines (RelWithDebInfo, default bench scale, single
// core) — frozen here so the JSON always carries the "before" column.
constexpr double kSeedTrainK100ItemsPerSec = 120404.0;
constexpr double kSeedTrainK60ItemsPerSec = 190671.0;
constexpr double kSeedTaTop10Ms = 12.0;

struct TrainResult {
  double items_per_sec = 0.0;
};

TrainResult MeasureTraining(const CityBundle& city, uint32_t dim) {
  auto options = embedding::TrainerOptions::GemA();
  options.dim = dim;
  options.num_samples = 200000;
  embedding::JointTrainer trainer(city.graphs.get(), options);
  trainer.TrainChunk(5000);  // warm-up; builds the adaptive rankings
  constexpr uint64_t kSteps = 100000;
  Stopwatch watch;
  trainer.TrainChunk(kSteps);
  const double elapsed = watch.ElapsedSeconds();
  return TrainResult{static_cast<double>(kSteps) / elapsed};
}

struct TaResult {
  double ms_per_query = 0.0;
  double examined_fraction = 0.0;
  size_t num_pairs = 0;
  size_t queries = 0;
  size_t steady_state_allocations = 0;
};

constexpr size_t kQueries = 100;
constexpr size_t kTopN = 10;

/// The shared retrieval workload: the unpruned Table-VI space plus the
/// 100-query set, built once and measured by both the exact-TA and the
/// quantized batched sections (the trainer keeps the store alive).
struct QuerySpace {
  std::unique_ptr<embedding::JointTrainer> trainer;
  std::unique_ptr<recommend::GemModel> model;
  std::unique_ptr<recommend::TransformedSpace> space;
  std::vector<std::vector<float>> queries;
  std::vector<ebsn::UserId> excludes;
};

QuerySpace BuildQuerySpace(const CityBundle& city) {
  QuerySpace qs;
  qs.trainer =
      TrainEmbedding(city, embedding::TrainerOptions::GemA(), 200000);
  qs.model =
      std::make_unique<recommend::GemModel>(&qs.trainer->store(), "GEM-A");
  const uint32_t num_users = city.dataset().num_users();
  // Unpruned Table-VI space: every test event x every partner.
  const auto pairs = recommend::BuildCandidatePairs(
      *qs.model, city.split->test_events(), recommend::AllUsers(num_users),
      /*top_k=*/0);
  qs.space =
      std::make_unique<recommend::TransformedSpace>(*qs.model, pairs);
  qs.queries.resize(kQueries);
  qs.excludes.resize(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    qs.excludes[i] = static_cast<uint32_t>((i * 17) % num_users);
    qs.space->QueryVector(*qs.model, qs.excludes[i], &qs.queries[i]);
  }
  return qs;
}

TaResult MeasureTaSearch(const QuerySpace& qs) {
  recommend::TaSearch ta(qs.space.get());

  recommend::TaSearch::Scratch scratch;
  std::vector<recommend::SearchHit> hits;
  recommend::SearchStats stats;
  // Warm-up pass grows the scratch and output capacities.
  for (size_t i = 0; i < kQueries; ++i) {
    ta.SearchInto(qs.queries[i], kTopN, qs.excludes[i], &hits, &stats,
                  &scratch);
  }

  TaResult result;
  result.num_pairs = qs.space->num_points();
  result.queries = kQueries;
  const size_t allocs_before = g_allocations.load();
  double examined = 0.0;
  Stopwatch watch;
  for (size_t i = 0; i < kQueries; ++i) {
    ta.SearchInto(qs.queries[i], kTopN, qs.excludes[i], &hits, &stats,
                  &scratch);
    examined += stats.examined_fraction;
  }
  const double elapsed = watch.ElapsedSeconds();
  result.steady_state_allocations = g_allocations.load() - allocs_before;
  result.ms_per_query = elapsed * 1000.0 / static_cast<double>(kQueries);
  result.examined_fraction = examined / static_cast<double>(kQueries);
  return result;
}

struct QuantResult {
  /// ms per query at batch sizes 1 / 8 / 64.
  double ms_b1 = 0.0;
  double ms_b8 = 0.0;
  double ms_b64 = 0.0;
  double examined_fraction = 0.0;  // at batch 64
  /// Share of the event and partner code blocks a query expands, at
  /// batch 64: blocks_expanded / (queries * total blocks).
  double blocks_expanded_fraction = 0.0;
  /// Measured max |approx - exact| over sampled queries x all pairs,
  /// and the max rigorous per-query bound epsilon — the measured value
  /// must sit under the bound.
  double max_abs_err = 0.0;
  double max_epsilon = 0.0;
  size_t steady_state_allocations = 0;
};

double MeasureQuantizationError(const QuerySpace& qs,
                                const recommend::SpaceIndex& index,
                                const recommend::QuantizedSpace& quant,
                                size_t sample_queries,
                                double* max_epsilon) {
  const uint32_t k = quant.latent_dim();
  const uint32_t point_dim = qs.space->point_dim();
  std::vector<int16_t> eq(k), pq(k);
  std::vector<int32_t> edots(index.num_events());
  std::vector<int32_t> pdots(index.num_partners());
  const uint32_t* pe = index.pair_event_idx().data();
  const uint32_t* pp = index.pair_partner_idx().data();
  const float* c_values = quant.c_values().data();
  std::vector<float> point(point_dim);
  double max_err = 0.0;
  *max_epsilon = 0.0;
  for (size_t qi = 0; qi < qs.queries.size(); ++qi) {
    const float* q = qs.queries[qi].data();
    const auto qq = quant.QuantizeQuery(q, eq.data(), pq.data());
    *max_epsilon = std::max(*max_epsilon, static_cast<double>(qq.epsilon));
    if (qi >= sample_queries) continue;  // epsilon from all, err sampled
    for (size_t g = 0; g < edots.size(); ++g) {
      edots[g] = quant.event_blocks().GroupDot(eq.data(), g);
    }
    for (size_t g = 0; g < pdots.size(); ++g) {
      pdots[g] = quant.partner_blocks().GroupDot(pq.data(), g);
    }
    for (size_t p = 0; p < qs.space->num_points(); ++p) {
      const float ecomp =
          qq.event_bias + qq.event_scale * static_cast<float>(edots[pe[p]]);
      const float pcomp = qq.partner_bias +
                          qq.partner_scale * static_cast<float>(pdots[pp[p]]);
      const float approx = ecomp + pcomp + qq.c_weight * c_values[p];
      qs.space->CopyPoint(p, point.data());
      const float exact = Dot(q, point.data(), point_dim);
      max_err = std::max(max_err,
                         static_cast<double>(std::abs(approx - exact)));
    }
  }
  return max_err;
}

QuantResult MeasureQuantizedBatch(const QuerySpace& qs) {
  recommend::SpaceIndex index(qs.space.get());
  recommend::QuantizedSpace quant(&index);
  recommend::BatchTaSearch batch(&quant);

  QuantResult result;
  result.max_abs_err = MeasureQuantizationError(
      qs, index, quant, /*sample_queries=*/4, &result.max_epsilon);

  std::vector<recommend::BatchQuery> bq(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    bq[i] = recommend::BatchQuery{qs.queries[i].data(), kTopN,
                                  qs.excludes[i]};
  }

  recommend::BatchTaSearch::Workspace ws;
  std::vector<std::vector<recommend::SearchHit>> hits(64);
  recommend::BatchSearchStats stats;

  const size_t batch_sizes[] = {1, 8, 64};
  double* slots[] = {&result.ms_b1, &result.ms_b8, &result.ms_b64};
  size_t alloc_total = 0;
  for (int b = 0; b < 3; ++b) {
    const size_t bs = batch_sizes[b];
    // Warm-up pass grows every workspace buffer to capacity.
    for (size_t i = 0; i < kQueries; i += bs) {
      const size_t n = std::min(bs, kQueries - i);
      batch.SearchBatch(bq.data() + i, n, hits.data(), &stats, &ws);
    }
    const size_t allocs_before = g_allocations.load();
    double examined = 0.0;
    size_t blocks_expanded = 0;
    Stopwatch watch;
    for (size_t i = 0; i < kQueries; i += bs) {
      const size_t n = std::min(bs, kQueries - i);
      batch.SearchBatch(bq.data() + i, n, hits.data(), &stats, &ws);
      examined += stats.examined_fraction * static_cast<double>(n);
      blocks_expanded += stats.blocks_expanded;
    }
    const double elapsed = watch.ElapsedSeconds();
    alloc_total += g_allocations.load() - allocs_before;
    *slots[b] = elapsed * 1000.0 / static_cast<double>(kQueries);
    if (bs == 64) {
      result.examined_fraction = examined / static_cast<double>(kQueries);
      const size_t blocks = quant.event_blocks().num_blocks() +
                            quant.partner_blocks().num_blocks();
      result.blocks_expanded_fraction =
          static_cast<double>(blocks_expanded) /
          (static_cast<double>(kQueries) * static_cast<double>(blocks));
    }
  }
  result.steady_state_allocations = alloc_total;
  return result;
}

/// The publish cost BENCH_hotpath.json carried at commit 1bd135f, the
/// last to rank the candidate slices on one thread, as this section
/// measured it at f63c409 on a 4-core x86-64 host with AVX2 — frozen
/// so the JSON always carries the "before" column. The heap figure is
/// 1bd135f's own (it adds the slice norms to f63c409's 12,198,000
/// bytes); the heap count does not depend on the host's speed.
constexpr double kBeforeFullBuildMs = 46.730475;
constexpr double kBeforeDelta16Ms = 8.410528;
constexpr double kBeforeDelta64Ms = 8.675392;
constexpr double kBeforeStageMs[4] = {26.191404, 0.001822, 13.880298,
                                      4.745793};
constexpr double kBeforeDelta16StageMs[4] = {1.569052, 0.001226, 3.942479,
                                             1.687731};
constexpr int64_t kBeforeSnapshotBytes = 12204200;

/// Stages of a snapshot build, in build order.
constexpr const char* kStageNames[4] = {"candidates", "space", "index",
                                        "quantized"};

struct Quartiles {
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
};

Quartiles QuartilesOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return {v[n / 4], v[n / 2], v[3 * n / 4]};
}

struct PublishResult {
  uint32_t num_users = 0;
  size_t pool_size = 0;
  size_t num_pairs = 0;
  Quartiles full_ms;
  Quartiles delta16_ms;
  Quartiles delta64_ms;
  Quartiles full_stage_ms[4];
  Quartiles delta16_stage_ms[4];
  int64_t snapshot_bytes = 0;
};

/// One candidate-space build, stage by stage as ModelSnapshot runs
/// them, with each stage's time.
struct StageBuild {
  std::unique_ptr<recommend::TransformedSpace> space;
  std::unique_ptr<recommend::SpaceIndex> index;
  std::unique_ptr<recommend::QuantizedSpace> quant;
  double ms[4] = {};
};

/// Builds with no previous, or with `previous` as a delta publish would
/// from its previous snapshot: the candidates rank only `dirty_users`
/// again and the index and codes reuse `previous`'s for every other
/// partner slice.
StageBuild BuildStages(const recommend::GemModel& model,
                       const std::vector<ebsn::EventId>& pool,
                       const std::vector<ebsn::UserId>& partners,
                       uint32_t top_k, const StageBuild* previous,
                       const std::vector<uint8_t>* dirty_users) {
  StageBuild build;
  Stopwatch watch;
  auto lap = [&](int stage) {
    build.ms[stage] = watch.ElapsedMillis();
    watch.Reset();
  };
  recommend::CandidateDelta delta;
  if (previous != nullptr) {
    delta = {previous->space.get(), pool.size(), dirty_users};
  }
  recommend::CandidateList list = recommend::BuildCandidateList(
      model, pool, partners, top_k, previous ? &delta : nullptr);
  lap(0);
  build.space = std::make_unique<recommend::TransformedSpace>(
      model, std::move(list.pairs), std::move(list.c));
  lap(1);
  build.index = std::make_unique<recommend::SpaceIndex>(
      build.space.get(), previous ? previous->index.get() : nullptr,
      list.ranked);
  lap(2);
  build.quant = std::make_unique<recommend::QuantizedSpace>(
      build.index.get(), previous ? previous->quant.get() : nullptr,
      list.ranked);
  lap(3);
  return build;
}

/// The serving benchmark's city shape: Beijing at 4x scale with GEM-A
/// at K = 32 trained on one thread, its test events as the pool.
struct ServingCity {
  ServingCity() : city(MakeCity(ebsn::SyntheticConfig::Beijing(4.0))) {
    embedding::TrainerOptions options = embedding::TrainerOptions::GemA();
    options.dim = 32;
    options.num_threads = 1;
    trainer = TrainEmbedding(city, options, 500000);
  }
  const embedding::EmbeddingStore& store() const { return trainer->store(); }
  const std::vector<ebsn::EventId>& pool() const {
    return city.split->test_events();
  }
  uint32_t num_users() const { return city.dataset().num_users(); }

  CityBundle city;
  std::unique_ptr<embedding::JointTrainer> trainer;
};

/// The serving benchmark's top-k events per partner.
constexpr uint32_t kServingTopK = 20;

PublishResult MeasureSnapshotPublish(const ServingCity& serving_city) {
  constexpr int kReps = 41;
  const embedding::EmbeddingStore& store = serving_city.store();
  const std::vector<ebsn::EventId>& pool = serving_city.pool();

  PublishResult result;
  result.num_users = serving_city.num_users();
  result.pool_size = pool.size();
  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = kServingTopK;
  serving::SnapshotBuilder builder(store, pool, result.num_users,
                                   snapshot_options);

  // Each rep times a build with no previous, then a publish after 16
  // and after 64 attendance nudges on random users (Build leaves
  // BuildNext's base alone).
  Rng rng(0x9b11);
  embedding::OnlineUpdateOptions nudge;
  nudge.iterations = 20;
  builder.BuildNext();
  std::vector<double> full, delta16, delta64;
  for (int r = 0; r < kReps; ++r) {
    {
      const int64_t live_before = g_live_bytes.load();
      Stopwatch watch;
      const auto snapshot = builder.Build();
      full.push_back(watch.ElapsedMillis());
      result.snapshot_bytes = g_live_bytes.load() - live_before;
      result.num_pairs = snapshot->num_candidate_pairs();
    }
    for (const size_t dirty : {size_t{16}, size_t{64}}) {
      for (size_t i = 0; i < dirty; ++i) {
        const auto user =
            static_cast<ebsn::UserId>(rng.UniformInt(result.num_users));
        const ebsn::EventId event = pool[rng.UniformInt(pool.size())];
        GEMREC_CHECK(builder.RecordAttendance(user, event, nudge).ok());
      }
      Stopwatch watch;
      builder.BuildNext();
      (dirty == 16 ? delta16 : delta64).push_back(watch.ElapsedMillis());
    }
  }
  result.full_ms = QuartilesOf(full);
  result.delta16_ms = QuartilesOf(delta16);
  result.delta64_ms = QuartilesOf(delta64);

  // Stage split per stage, with no previous and with 16 partners dirty
  // against a previous built with none, in alternating reps.
  const recommend::GemModel model(&store, "GEM-A");
  const std::vector<ebsn::UserId> partners =
      recommend::AllUsers(result.num_users);
  const StageBuild previous =
      BuildStages(model, pool, partners, kServingTopK, nullptr, nullptr);
  std::vector<uint8_t> dirty_users(result.num_users, 0);
  for (int i = 0; i < 16; ++i) dirty_users[rng.UniformInt(result.num_users)] = 1;
  std::vector<double> stages[2][4];
  for (int r = 0; r < kReps; ++r) {
    for (const bool use_delta : {false, true}) {
      const StageBuild build =
          BuildStages(model, pool, partners, kServingTopK,
                      use_delta ? &previous : nullptr, &dirty_users);
      for (int s = 0; s < 4; ++s) stages[use_delta][s].push_back(build.ms[s]);
    }
  }
  for (int s = 0; s < 4; ++s) {
    result.full_stage_ms[s] = QuartilesOf(stages[0][s]);
    result.delta16_stage_ms[s] = QuartilesOf(stages[1][s]);
  }
  return result;
}

struct GroupScanResult {
  size_t queries = 0;
  size_t pool_size = 0;
  /// Per aggregator, indexed by GroupAggregator: µs per query of the
  /// oracle and of the scan, and the scan's mean share of events
  /// scored exactly.
  Quartiles oracle_us[2];
  Quartiles scan_us[2];
  double scored_fraction[2] = {};
  /// Scan answers (items, score bits, bound bits) that differ from
  /// the oracle's.
  size_t mismatches = 0;
};

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Group queries shaped like the serving benchmark's (a uniform user,
/// three distinct other members, top 10) over one snapshot's slice:
/// the exhaustive GroupTopEvents against the served GroupScan, in
/// alternating reps, after a pass that checks every scan answer
/// bitwise against the oracle's.
GroupScanResult MeasureGroupScan(const ServingCity& serving_city) {
  constexpr size_t kGroupQueries = 1000;
  constexpr int kReps = 11;
  serving::SnapshotOptions options;
  options.top_k_events_per_partner = kServingTopK;
  const serving::ModelSnapshot snapshot(serving_city.store(),
                                        serving_city.pool(),
                                        serving_city.num_users(), options);
  const recommend::GemModel& model = snapshot.model();
  struct GroupQuery {
    ebsn::UserId user;
    std::vector<ebsn::UserId> members;
  };
  std::vector<GroupQuery> queries(kGroupQueries);
  Rng rng(0x6a0b);
  for (GroupQuery& q : queries) {
    q.user = static_cast<ebsn::UserId>(
        rng.UniformInt(serving_city.num_users()));
    while (q.members.size() < 3) {
      const auto m = static_cast<ebsn::UserId>(
          rng.UniformInt(serving_city.num_users()));
      if (m != q.user && std::find(q.members.begin(), q.members.end(), m) ==
                             q.members.end()) {
        q.members.push_back(m);
      }
    }
  }

  GroupScanResult result;
  result.queries = kGroupQueries;
  result.pool_size = snapshot.shard_events().size();
  recommend::GroupScanScratch scratch;
  recommend::SearchStats stats;
  size_t returned = 0;  // keeps the timed calls' results live
  for (const auto agg :
       {recommend::GroupAggregator::kSum, recommend::GroupAggregator::kMin}) {
    const int a = static_cast<int>(agg);
    double scored = 0.0;
    for (const GroupQuery& q : queries) {
      float bound = 0.0f;
      const auto want = recommend::GroupTopEvents(
          model, snapshot.shard_events(), q.user, q.members, agg, kTopN,
          &bound);
      const auto got = recommend::GroupScan(
          model, snapshot.shard_events_by_norm(), q.user, q.members, agg,
          kTopN, &scratch, &stats);
      scored += stats.examined_fraction;
      bool same = got.size() == want.size() &&
                  SameBits(stats.unreturned_bound, bound);
      for (size_t i = 0; same && i < got.size(); ++i) {
        same = got[i].event == want[i].event &&
               SameBits(got[i].score, want[i].score);
      }
      result.mismatches += same ? 0 : 1;
    }
    result.scored_fraction[a] = scored / static_cast<double>(kGroupQueries);

    std::vector<double> oracle_us, scan_us;
    for (int r = 0; r < kReps; ++r) {
      Stopwatch watch;
      for (const GroupQuery& q : queries) {
        returned += recommend::GroupTopEvents(model, snapshot.shard_events(),
                                              q.user, q.members, agg, kTopN)
                        .size();
      }
      oracle_us.push_back(watch.ElapsedMicros() / kGroupQueries);
      watch.Reset();
      for (const GroupQuery& q : queries) {
        returned += recommend::GroupScan(model,
                                         snapshot.shard_events_by_norm(),
                                         q.user, q.members, agg, kTopN,
                                         &scratch, &stats)
                        .size();
      }
      scan_us.push_back(watch.ElapsedMicros() / kGroupQueries);
    }
    result.oracle_us[a] = QuartilesOf(oracle_us);
    result.scan_us[a] = QuartilesOf(scan_us);
  }
  GEMREC_CHECK(returned == 2 * 2 * kReps * kGroupQueries * kTopN);
  return result;
}

/// `{"candidates": a, "space": b, ...}`
std::string StageJson(const double ms[4]) {
  std::string out = "{";
  for (int s = 0; s < 4; ++s) {
    out += std::string(s == 0 ? "" : ", ") + "\"" + kStageNames[s] +
           "\": " + std::to_string(ms[s]);
  }
  return out + "}";
}

/// StageJson of one quartile of each stage.
std::string StageJson(const Quartiles q[4], double Quartiles::*which) {
  const double ms[4] = {q[0].*which, q[1].*which, q[2].*which, q[3].*which};
  return StageJson(ms);
}

/// `"name": p50, "name_p25": p25, "name_p75": p75` (no trailing comma).
std::string QuartileJson(const std::string& name, const Quartiles& q) {
  return "\"" + name + "\": " + std::to_string(q.p50) + ",\n    \"" + name +
         "_p25\": " + std::to_string(q.p25) + ",\n    \"" + name +
         "_p75\": " + std::to_string(q.p75);
}

/// The same for stage maps.
std::string StageQuartileJson(const std::string& name, const Quartiles q[4]) {
  return "\"" + name + "\": " + StageJson(q, &Quartiles::p50) +
         ",\n    \"" + name + "_p25\": " + StageJson(q, &Quartiles::p25) +
         ",\n    \"" + name + "_p75\": " + StageJson(q, &Quartiles::p75);
}

void Run() {
  PrintNote("hot-path report: training throughput (GEM-A, K=100) and "
            "TA top-10 latency vs the frozen seed baselines; writes "
            "BENCH_hotpath.json");
  PrintNote(std::string("kernel variant: ") + vec_detail::KernelVariant());

  CityBundle city =
      MakeCity(ebsn::SyntheticConfig::Beijing(BenchScale()));

  const TrainResult k100 = MeasureTraining(city, 100);
  const TrainResult k60 = MeasureTraining(city, 60);
  const QuerySpace qs = BuildQuerySpace(city);
  const TaResult ta = MeasureTaSearch(qs);
  const QuantResult quant = MeasureQuantizedBatch(qs);
  const ServingCity serving_city;
  const PublishResult publish = MeasureSnapshotPublish(serving_city);
  const GroupScanResult group = MeasureGroupScan(serving_city);

  const double speedup_k100 =
      k100.items_per_sec / kSeedTrainK100ItemsPerSec;
  const double speedup_k60 = k60.items_per_sec / kSeedTrainK60ItemsPerSec;
  const double speedup_ta = kSeedTaTop10Ms / ta.ms_per_query;

  std::cout << "\ntraining GEM-A K=100: " << k100.items_per_sec
            << " items/s (seed " << kSeedTrainK100ItemsPerSec << ", "
            << speedup_k100 << "x)\n";
  std::cout << "training GEM-A K=60:  " << k60.items_per_sec
            << " items/s (seed " << kSeedTrainK60ItemsPerSec << ", "
            << speedup_k60 << "x)\n";
  std::cout << "TA top-10 query:      " << ta.ms_per_query << " ms over "
            << ta.num_pairs << " pairs (seed ~" << kSeedTaTop10Ms
            << " ms, " << speedup_ta << "x), examined_frac "
            << ta.examined_fraction << ", steady-state allocations "
            << ta.steady_state_allocations << "\n";
  std::cout << "quantized batched TA: " << quant.ms_b1 << " / "
            << quant.ms_b8 << " / " << quant.ms_b64
            << " ms/query at batch 1/8/64, vs exact " << ta.ms_per_query
            << " ms (" << ta.ms_per_query / quant.ms_b64
            << "x at batch 64), examined_frac "
            << quant.examined_fraction << ", blocks expanded "
            << quant.blocks_expanded_fraction << ", max_abs_err "
            << quant.max_abs_err << " (bound " << quant.max_epsilon
            << "), steady-state allocations "
            << quant.steady_state_allocations << "\n";
  std::cout << "snapshot publish:     full " << publish.full_ms.p50
            << " ms (before " << kBeforeFullBuildMs << "), 16 users "
            << publish.delta16_ms.p50 << " ms (before " << kBeforeDelta16Ms
            << "), 64 users " << publish.delta64_ms.p50 << " ms (before "
            << kBeforeDelta64Ms << ") over " << publish.num_pairs
            << " pairs; stages full "
            << StageJson(publish.full_stage_ms, &Quartiles::p50)
            << ", 16 users "
            << StageJson(publish.delta16_stage_ms, &Quartiles::p50) << "; "
            << publish.snapshot_bytes << " heap bytes per snapshot (before "
            << kBeforeSnapshotBytes << ")\n";
  for (const int a : {0, 1}) {
    std::cout << "group scan "
              << recommend::GroupAggregatorName(
                     static_cast<recommend::GroupAggregator>(a))
              << ":       oracle " << group.oracle_us[a].p50
              << " us/query, scan " << group.scan_us[a].p50
              << " us/query, scored " << group.scored_fraction[a]
              << " of " << group.pool_size << " events\n";
  }
  std::cout << "group scan answers differing from the oracle: "
            << group.mismatches << "\n";

  std::ofstream json("BENCH_hotpath.json");
  json << "{\n"
       << "  \"bench\": \"hotpath\",\n"
       << "  \"kernel_variant\": \"" << vec_detail::KernelVariant()
       << "\",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"training_gema_k100\": {\n"
       << "    \"workload\": \"BM_GemAHighDim/100 (beijing synthetic, "
          "100k timed steps)\",\n"
       << "    \"seed_items_per_sec\": " << kSeedTrainK100ItemsPerSec
       << ",\n"
       << "    \"items_per_sec\": " << k100.items_per_sec << ",\n"
       << "    \"speedup_vs_seed\": " << speedup_k100 << ",\n"
       << "    \"target_speedup\": 1.5\n"
       << "  },\n"
       << "  \"training_gema_k60\": {\n"
       << "    \"seed_items_per_sec\": " << kSeedTrainK60ItemsPerSec
       << ",\n"
       << "    \"items_per_sec\": " << k60.items_per_sec << ",\n"
       << "    \"speedup_vs_seed\": " << speedup_k60 << "\n"
       << "  },\n"
       << "  \"ta_search_top10\": {\n"
       << "    \"workload\": \"unpruned test-event x partner space, "
          "top-10, 100 queries\",\n"
       << "    \"num_pairs\": " << ta.num_pairs << ",\n"
       << "    \"seed_ms_per_query\": " << kSeedTaTop10Ms << ",\n"
       << "    \"ms_per_query\": " << ta.ms_per_query << ",\n"
       << "    \"speedup_vs_seed\": " << speedup_ta << ",\n"
       << "    \"examined_fraction\": " << ta.examined_fraction << ",\n"
       << "    \"steady_state_allocations\": "
       << ta.steady_state_allocations << ",\n"
       << "    \"target_allocations\": 0\n"
       << "  },\n"
       << "  \"quantized_batched_top10\": {\n"
       << "    \"workload\": \"same space/queries as ta_search_top10, "
          "quantized multi-query TA + exact fp32 re-rank\",\n"
       << "    \"ms_per_query_batch1\": " << quant.ms_b1 << ",\n"
       << "    \"ms_per_query_batch8\": " << quant.ms_b8 << ",\n"
       << "    \"ms_per_query_batch64\": " << quant.ms_b64 << ",\n"
       << "    \"target_ms_per_query_batch64\": 0.16,\n"
       << "    \"speedup_vs_exact_ta_batch64\": "
       << ta.ms_per_query / quant.ms_b64 << ",\n"
       << "    \"examined_fraction\": " << quant.examined_fraction << ",\n"
       << "    \"blocks_expanded_fraction\": "
       << quant.blocks_expanded_fraction << ",\n"
       << "    \"quantization_max_abs_err\": " << quant.max_abs_err
       << ",\n"
       << "    \"quantization_epsilon_bound\": " << quant.max_epsilon
       << ",\n"
       << "    \"steady_state_allocations\": "
       << quant.steady_state_allocations << ",\n"
       << "    \"target_allocations\": 0\n"
       << "  },\n"
       << "  \"snapshot_publish\": {\n"
       << "    \"workload\": \"beijing synthetic x4 (" << publish.num_users
       << " users, " << publish.pool_size
       << " pool events), K=32, top-k 20; medians of 41 alternating "
          "full/delta reps, with p25/p75; delta = BuildNext after that "
          "many attendance nudges\",\n"
       << "    \"num_pairs\": " << publish.num_pairs << ",\n"
       << "    \"before_full_build_ms\": " << kBeforeFullBuildMs << ",\n"
       << "    " << QuartileJson("full_build_ms", publish.full_ms) << ",\n"
       << "    \"before_delta_publish_ms_16_users\": " << kBeforeDelta16Ms
       << ",\n"
       << "    "
       << QuartileJson("delta_publish_ms_16_users", publish.delta16_ms)
       << ",\n"
       << "    \"before_delta_publish_ms_64_users\": " << kBeforeDelta64Ms
       << ",\n"
       << "    "
       << QuartileJson("delta_publish_ms_64_users", publish.delta64_ms)
       << ",\n"
       << "    \"before_full_stage_ms\": " << StageJson(kBeforeStageMs)
       << ",\n"
       << "    " << StageQuartileJson("full_stage_ms", publish.full_stage_ms)
       << ",\n"
       << "    \"before_delta_16_users_stage_ms\": "
       << StageJson(kBeforeDelta16StageMs) << ",\n"
       << "    "
       << StageQuartileJson("delta_16_users_stage_ms",
                            publish.delta16_stage_ms)
       << ",\n"
       << "    \"before_snapshot_heap_bytes\": " << kBeforeSnapshotBytes
       << ",\n"
       << "    \"snapshot_heap_bytes\": " << publish.snapshot_bytes << "\n"
       << "  },\n"
       << "  \"group_scan\": {\n"
       << "    \"workload\": \"same city as snapshot_publish ("
       << group.pool_size << " pool events), " << group.queries
       << " group queries per aggregator (a uniform user, 3 distinct other "
          "members, top 10); oracle = GroupTopEvents, scan = GroupScan over "
          "the snapshot's norm-ordered slice; medians of 11 alternating "
          "reps, with p25/p75; scored_fraction = mean share of events "
          "scored exactly\",\n";
  for (const int a : {0, 1}) {
    const std::string name = recommend::GroupAggregatorName(
        static_cast<recommend::GroupAggregator>(a));
    json << "    " << QuartileJson(name + "_oracle_us", group.oracle_us[a])
         << ",\n"
         << "    " << QuartileJson(name + "_scan_us", group.scan_us[a])
         << ",\n"
         << "    \"" << name
         << "_scored_fraction\": " << group.scored_fraction[a] << ",\n";
  }
  json << "    \"answer_mismatches\": " << group.mismatches << "\n"
       << "  }\n"
       << "}\n";
  std::cout << "\nwrote BENCH_hotpath.json\n";
}

}  // namespace
}  // namespace gemrec::bench

int main() {
  gemrec::bench::Run();
  return 0;
}
