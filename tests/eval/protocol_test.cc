#include "eval/protocol.h"

#include <gtest/gtest.h>

#include "../testing/fixtures.h"
#include "embedding/trainer.h"
#include "eval/ground_truth.h"
#include "recommend/gem_model.h"

namespace gemrec::eval {
namespace {

/// Oracle model: scores (u, x) by whether u actually attends x, and
/// (u, v) by whether they are friends. Must achieve near-perfect
/// accuracy under both protocols.
class OracleModel : public recommend::RecModel {
 public:
  explicit OracleModel(const ebsn::Dataset* dataset)
      : dataset_(dataset) {}
  std::string Name() const override { return "oracle"; }
  float ScoreUserEvent(ebsn::UserId u, ebsn::EventId x) const override {
    return dataset_->Attends(u, x) ? 1.0f : 0.0f;
  }
  float ScoreUserUser(ebsn::UserId u, ebsn::UserId v) const override {
    return dataset_->AreFriends(u, v) ? 1.0f : 0.0f;
  }

 private:
  const ebsn::Dataset* dataset_;
};

/// Anti-oracle: random noise, should sit near the chance baseline.
class RandomModel : public recommend::RecModel {
 public:
  std::string Name() const override { return "random"; }
  float ScoreUserEvent(ebsn::UserId u, ebsn::EventId x) const override {
    return Hash(u * 2654435761u + x * 40503u);
  }
  float ScoreUserUser(ebsn::UserId u, ebsn::UserId v) const override {
    return Hash(u * 97u + v * 31u);
  }

 private:
  static float Hash(uint64_t x) {
    SplitMix64 mixer(x);
    return static_cast<float>(mixer.Next() >> 40) / (1 << 24);
  }
};

class ProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    city_ = new testing::SmallCity(testing::MakeSmallCity(88));
    truth_ = new std::vector<PartnerTriple>(
        BuildPartnerGroundTruth(city_->dataset(), *city_->split));
  }
  static void TearDownTestSuite() {
    delete truth_;
    delete city_;
    truth_ = nullptr;
    city_ = nullptr;
  }
  static testing::SmallCity* city_;
  static std::vector<PartnerTriple>* truth_;
};

testing::SmallCity* ProtocolTest::city_ = nullptr;
std::vector<PartnerTriple>* ProtocolTest::truth_ = nullptr;

TEST_F(ProtocolTest, OracleAchievesPerfectEventAccuracy) {
  OracleModel oracle(&city_->dataset());
  ProtocolOptions options;
  options.max_cases = 200;
  const auto result = EvaluateColdStartEvents(oracle, city_->dataset(),
                                              *city_->split, options);
  EXPECT_GT(result.num_cases, 0u);
  // Positive scores 1, negatives score 0 -> rank 1 always.
  EXPECT_DOUBLE_EQ(result.At(1), 1.0);
  EXPECT_DOUBLE_EQ(result.At(20), 1.0);
}

TEST_F(ProtocolTest, RandomModelIsNearChanceOnEvents) {
  RandomModel random;
  ProtocolOptions options;
  options.max_cases = 300;
  const auto result = EvaluateColdStartEvents(random, city_->dataset(),
                                              *city_->split, options);
  // With a small test-event pool the chance level of top-10 is about
  // 10 / |test events|; bound it with generous slack.
  const double chance =
      10.0 / static_cast<double>(city_->split->test_events().size());
  EXPECT_LT(result.At(10), chance + 0.15);
}

TEST_F(ProtocolTest, AccuracyIsMonotoneInN) {
  RandomModel random;
  ProtocolOptions options;
  options.max_cases = 200;
  const auto result = EvaluateColdStartEvents(random, city_->dataset(),
                                              *city_->split, options);
  for (size_t i = 1; i < result.cutoffs.size(); ++i) {
    EXPECT_GE(result.accuracy[i], result.accuracy[i - 1]);
  }
}

TEST_F(ProtocolTest, OracleAchievesPerfectPartnerAccuracy) {
  ASSERT_FALSE(truth_->empty());
  OracleModel oracle(&city_->dataset());
  ProtocolOptions options;
  options.max_cases = 100;
  const auto result =
      EvaluateEventPartner(oracle, city_->dataset(), *city_->split,
                           *truth_, options);
  EXPECT_GT(result.num_cases, 0u);
  // Positive triple scores 3 (attend + attend + friends); negative
  // triples score at most 2.
  EXPECT_DOUBLE_EQ(result.At(1), 1.0);
}

TEST_F(ProtocolTest, RandomModelIsNearChanceOnPartners) {
  ASSERT_FALSE(truth_->empty());
  RandomModel random;
  ProtocolOptions options;
  options.max_cases = 100;
  const auto result =
      EvaluateEventPartner(random, city_->dataset(), *city_->split,
                           *truth_, options);
  EXPECT_LT(result.At(10), 0.3);
}

TEST_F(ProtocolTest, MaxCasesBoundsEvaluation) {
  OracleModel oracle(&city_->dataset());
  ProtocolOptions options;
  options.max_cases = 17;
  const auto result = EvaluateColdStartEvents(oracle, city_->dataset(),
                                              *city_->split, options);
  EXPECT_LE(result.num_cases, 17u);
}

TEST_F(ProtocolTest, DeterministicForSameSeed) {
  RandomModel random;
  ProtocolOptions options;
  options.max_cases = 100;
  const auto a = EvaluateColdStartEvents(random, city_->dataset(),
                                         *city_->split, options);
  const auto b = EvaluateColdStartEvents(random, city_->dataset(),
                                         *city_->split, options);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.num_cases, b.num_cases);
}

TEST_F(ProtocolTest, CustomCutoffsRespected) {
  OracleModel oracle(&city_->dataset());
  ProtocolOptions options;
  options.cutoffs = {3, 7};
  options.max_cases = 20;
  const auto result = EvaluateColdStartEvents(oracle, city_->dataset(),
                                              *city_->split, options);
  EXPECT_EQ(result.cutoffs, (std::vector<size_t>{3, 7}));
  EXPECT_NO_FATAL_FAILURE(result.At(3));
}

TEST(AccuracyResultDeathTest, MissingCutoffIsFatal) {
  AccuracyResult r;
  r.cutoffs = {1, 5};
  r.accuracy = {0.1, 0.2};
  EXPECT_DEATH(r.At(10), "was not evaluated");
}

TEST(ProtocolSplitTest, ValidationSplitIsUsedNotTest) {
  // Evaluating the same model on validation vs test gives different
  // case counts (validation is half the size of test by the 1:2
  // split), proving the protocol actually switches pools.
  auto city = testing::MakeSmallCity(778);
  embedding::TrainerOptions options = embedding::TrainerOptions::GemA();
  options.dim = 16;
  options.num_samples = 40000;
  embedding::JointTrainer trainer(city.graphs.get(), options);
  trainer.Train();
  recommend::GemModel model(&trainer.store(), "m");

  ProtocolOptions validation_protocol;
  validation_protocol.target_split = ebsn::Split::kValidation;
  const auto validation_result = EvaluateColdStartEvents(
      model, city.dataset(), *city.split, validation_protocol);
  ProtocolOptions test_protocol;
  const auto test_result = EvaluateColdStartEvents(
      model, city.dataset(), *city.split, test_protocol);
  EXPECT_GT(validation_result.num_cases, 0u);
  EXPECT_GT(test_result.num_cases, validation_result.num_cases);
}

TEST(ProtocolDeathTest, TrainingSplitEvaluationRejected) {
  auto city = testing::MakeSmallCity(780);
  embedding::TrainerOptions options = embedding::TrainerOptions::GemA();
  options.dim = 8;
  options.num_samples = 100;
  embedding::JointTrainer trainer(city.graphs.get(), options);
  trainer.Train();
  recommend::GemModel model(&trainer.store(), "m");
  ProtocolOptions protocol;
  protocol.target_split = ebsn::Split::kTraining;
  EXPECT_DEATH(EvaluateColdStartEvents(model, city.dataset(),
                                       *city.split, protocol),
               "meaningless");
}

}  // namespace
}  // namespace gemrec::eval
