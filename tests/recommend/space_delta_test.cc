// SpaceIndex and QuantizedSpace built with a previous index and codes,
// which re-do only the partner slices that were ranked again, must give
// bitwise what the same constructors give with no previous: groups,
// inverse maps, the C order with its C values, quantization parameters,
// codes, block order and block maxes. Covered: a re-ranked pair whose C
// ties a clean pair's, +0 and -0 keys, a re-ranked slice whose values
// did not change, no slice and every slice re-ranked, and seeded random
// subsets that take both partner-code paths (parameters held: clean
// rows' codes copied; parameters moved: every row encoded).
//
// The index reads C only as sort keys and the codes read only the
// rows, so these spaces take picked C values rather than dot products.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "../testing/space_equality.h"
#include "common/rng.h"
#include "recommend/gem_model.h"
#include "recommend/quantized_space.h"
#include "recommend/space_index.h"
#include "recommend/space_transform.h"

namespace gemrec::recommend {
namespace {

using ::gemrec::testing::ExpectSameIndex;
using ::gemrec::testing::ExpectSameQuantization;
using ::gemrec::testing::PartnerParamsKey;

constexpr uint32_t kPartners = 150;  // more than two 64-row code blocks
constexpr uint32_t kEvents = 30;
constexpr uint32_t kDim = 6;
constexpr uint32_t kK = 4;  // pairs per partner slice

/// A partner-major list: slice i holds partner i's kK pairs.
struct List {
  std::vector<CandidatePair> pairs;
  std::vector<float> c;
};

/// C values with many ties, both zeros among them.
float DrawC(Rng* rng) {
  constexpr std::array<float, 7> kValues = {2.0f,  1.5f,   0.5f,  0.0f,
                                            -0.0f, -0.25f, 0.125f};
  return kValues[rng->UniformInt(kValues.size())];
}

/// Gives slice i new events and C values.
void Redraw(List* list, size_t i, Rng* rng) {
  const auto first = static_cast<uint32_t>(rng->UniformInt(kEvents));
  for (uint32_t j = 0; j < kK; ++j) {
    list->pairs[i * kK + j] =
        CandidatePair{(first + 7 * j) % kEvents, static_cast<uint32_t>(i)};
    list->c[i * kK + j] = DrawC(rng);
  }
}

List RandomList(Rng* rng) {
  List list;
  list.pairs.resize(kPartners * kK);
  list.c.resize(kPartners * kK);
  for (size_t i = 0; i < kPartners; ++i) Redraw(&list, i, rng);
  return list;
}

class SpaceDeltaTest : public ::testing::Test {
 protected:
  SpaceDeltaTest()
      : store_(kDim, std::array<uint32_t, 5>{kPartners, kEvents, 1, 1, 1}),
        model_(&store_, "GEM") {
    Rng rng(41);
    store_.MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
    store_.MatrixOf(graph::NodeType::kEvent).FillAbsGaussian(&rng, 0.2, 0.3);
  }

  /// Builds `list`'s space, index and codes with no previous, as the
  /// previous build.
  void BuildPrevious(const List& list) {
    previous_quant_.reset();
    previous_index_.reset();
    previous_space_ =
        std::make_unique<TransformedSpace>(model_, list.pairs, list.c);
    previous_index_ = std::make_unique<SpaceIndex>(previous_space_.get());
    previous_quant_ = std::make_unique<QuantizedSpace>(previous_index_.get());
  }

  /// Builds `next`'s index and codes from the previous build and with
  /// no previous, expects them bitwise equal, and makes `next` the
  /// previous build. Returns whether the partner-half parameters held.
  bool ExpectDeltaEqualsFull(const List& next,
                             const std::vector<uint8_t>& ranked) {
    TransformedSpace space(model_, next.pairs, next.c);
    const SpaceIndex full_index(&space);
    const QuantizedSpace full_quant(&full_index);
    auto index = std::make_unique<SpaceIndex>(&space, previous_index_.get(),
                                              ranked);
    auto quant = std::make_unique<QuantizedSpace>(
        index.get(), previous_quant_.get(), ranked);
    ExpectSameIndex(*index, full_index);
    ExpectSameQuantization(*quant, full_quant);
    const bool held =
        PartnerParamsKey(*quant) == PartnerParamsKey(*previous_quant_);
    BuildPrevious(next);
    return held;
  }

  /// Sets partner u's row to partner `from`'s.
  void CopyRow(uint32_t u, uint32_t from) {
    Matrix& users = store_.MatrixOf(graph::NodeType::kUser);
    for (uint32_t d = 0; d < kDim; ++d) users.At(u, d) = users.At(from, d);
  }

  embedding::EmbeddingStore store_;
  GemModel model_;
  std::unique_ptr<TransformedSpace> previous_space_;
  std::unique_ptr<SpaceIndex> previous_index_;
  std::unique_ptr<QuantizedSpace> previous_quant_;
};

TEST_F(SpaceDeltaTest, RankedPairTiesACleanPair) {
  Rng rng(1);
  List list = RandomList(&rng);
  list.c[5 * kK + 3] = 0.7f;
  list.c[0 * kK + 0] = 0.3f;
  BuildPrevious(list);
  // Slice 2's new pair ties a clean pair of slice 5 (a higher id) and
  // slice 9's ties one of slice 0 (a lower id); ties go to the lower id.
  std::vector<uint8_t> ranked(kPartners, 0);
  ranked[2] = ranked[9] = 1;
  Redraw(&list, 2, &rng);
  Redraw(&list, 9, &rng);
  list.c[2 * kK + 1] = 0.7f;
  list.c[9 * kK + 2] = 0.3f;
  ExpectDeltaEqualsFull(list, ranked);
}

TEST_F(SpaceDeltaTest, SignedZerosKeepTheirSignAndTieByPairId) {
  Rng rng(2);
  List list = RandomList(&rng);
  list.c[1 * kK + 0] = 0.0f;
  list.c[3 * kK + 2] = -0.0f;
  list.c[6 * kK + 1] = 0.0f;
  BuildPrevious(list);
  std::vector<uint8_t> ranked(kPartners, 0);
  ranked[1] = ranked[4] = 1;
  list.c[1 * kK + 0] = -0.0f;
  list.c[4 * kK + 0] = 0.0f;
  list.c[4 * kK + 3] = -0.0f;
  ExpectDeltaEqualsFull(list, ranked);
}

TEST_F(SpaceDeltaTest, RankedSliceWithUnchangedValues) {
  Rng rng(3);
  const List list = RandomList(&rng);
  BuildPrevious(list);
  std::vector<uint8_t> ranked(kPartners, 0);
  ranked[3] = ranked[7] = ranked[kPartners - 1] = 1;
  EXPECT_TRUE(ExpectDeltaEqualsFull(list, ranked));
}

TEST_F(SpaceDeltaTest, NoSliceRanked) {
  Rng rng(4);
  const List list = RandomList(&rng);
  BuildPrevious(list);
  EXPECT_TRUE(
      ExpectDeltaEqualsFull(list, std::vector<uint8_t>(kPartners, 0)));
}

TEST_F(SpaceDeltaTest, EverySliceRanked) {
  Rng rng(5);
  List list = RandomList(&rng);
  BuildPrevious(list);
  for (size_t i = 0; i < kPartners; ++i) Redraw(&list, i, &rng);
  // Every row is ranked again; one moves past every column's max.
  Matrix& users = store_.MatrixOf(graph::NodeType::kUser);
  for (uint32_t d = 0; d < kDim; ++d) users.At(8, d) += 2.0f;
  EXPECT_FALSE(
      ExpectDeltaEqualsFull(list, std::vector<uint8_t>(kPartners, 1)));
}

TEST_F(SpaceDeltaTest, RankedRowsAreEncodedWhenTheParametersHold) {
  // Partner 2's row duplicates another row before and after, so it
  // sets no column's min or max: the parameters hold, the clean rows'
  // codes are copied and partner 2's row must be encoded again.
  CopyRow(2, 0);
  Rng rng(6);
  List list = RandomList(&rng);
  BuildPrevious(list);
  CopyRow(2, 1);
  std::vector<uint8_t> ranked(kPartners, 0);
  ranked[2] = 1;
  Redraw(&list, 2, &rng);
  EXPECT_TRUE(ExpectDeltaEqualsFull(list, ranked));
}

TEST_F(SpaceDeltaTest, SeededRandomSubsets) {
  Rng rng(7);
  List list = RandomList(&rng);
  BuildPrevious(list);
  int held = 0;
  int moved = 0;
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    std::vector<uint8_t> ranked(kPartners, 0);
    const uint64_t count = rng.UniformInt(12);
    for (uint64_t n = 0; n < count; ++n) {
      const auto u = static_cast<uint32_t>(rng.UniformInt(kPartners));
      ranked[u] = 1;
      if (rng.UniformInt(2) == 0) Redraw(&list, u, &rng);
      // A copied row moves a parameter only when u held a column's
      // extreme alone.
      if (rng.UniformInt(2) == 0) {
        CopyRow(u, static_cast<uint32_t>(rng.UniformInt(kPartners)));
      }
    }
    ++(ExpectDeltaEqualsFull(list, ranked) ? held : moved);
    if (HasFailure()) return;
  }
  EXPECT_GT(held, 0);
  EXPECT_GT(moved, 0);
}

TEST(SpaceDeltaDeathTest, SlicesOfAnotherLengthAreRefused) {
  embedding::EmbeddingStore store(
      kDim, std::array<uint32_t, 5>{kPartners, kEvents, 1, 1, 1});
  GemModel model(&store, "GEM");
  const TransformedSpace previous(
      model, {{0, 0}, {1, 0}, {0, 1}, {1, 1}}, {1.0f, 0.5f, 1.0f, 0.5f});
  const SpaceIndex previous_index(&previous);
  // The same pair count, but partner 0's slice took partner 1's pair.
  const TransformedSpace next(
      model, {{0, 0}, {1, 0}, {2, 0}, {1, 1}}, {1.0f, 0.5f, 0.2f, 0.5f});
  const std::vector<uint8_t> ranked = {1, 1};
  EXPECT_DEATH(SpaceIndex(&next, &previous_index, ranked), "changed partner");
}

}  // namespace
}  // namespace gemrec::recommend
