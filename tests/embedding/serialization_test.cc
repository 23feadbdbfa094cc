#include "embedding/serialization.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

namespace gemrec::embedding {
namespace {

class SerializationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("gemrec_store_" + std::to_string(::getpid()) + ".bin"))
                .string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path_;
};

EmbeddingStore MakeStore() {
  EmbeddingStore store(8, {10, 20, 3, 33, 50});
  Rng rng(5);
  store.InitGaussian(&rng, 0.1);
  return store;
}

TEST_F(SerializationTest, RoundTripPreservesEverything) {
  EmbeddingStore original = MakeStore();
  ASSERT_TRUE(SaveEmbeddingStore(original, path_).ok());
  auto loaded = LoadEmbeddingStore(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->dim(), original.dim());
  for (size_t t = 0; t < EmbeddingStore::kNumTypes; ++t) {
    const auto type = static_cast<graph::NodeType>(t);
    ASSERT_EQ(loaded->CountOf(type), original.CountOf(type));
    // Compare logical entries, not raw storage: the on-disk format is
    // dense while in-memory rows carry alignment padding.
    const Matrix& a = loaded->MatrixOf(type);
    const Matrix& b = original.MatrixOf(type);
    for (size_t r = 0; r < a.rows(); ++r) {
      for (size_t c = 0; c < a.cols(); ++c) {
        ASSERT_EQ(a.At(r, c), b.At(r, c)) << "t=" << t << " r=" << r;
      }
    }
  }
}

TEST_F(SerializationTest, MissingFileFails) {
  auto result = LoadEmbeddingStore(path_ + ".does_not_exist");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(SerializationTest, BadMagicRejected) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "NOTGEMRECDATA and some more bytes to make it non-trivial";
  }
  auto result = LoadEmbeddingStore(path_);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializationTest, TruncatedPayloadRejected) {
  EmbeddingStore original = MakeStore();
  ASSERT_TRUE(SaveEmbeddingStore(original, path_).ok());
  // Chop off the tail of the file.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size / 2);
  auto result = LoadEmbeddingStore(path_);
  EXPECT_FALSE(result.ok());
}

TEST_F(SerializationTest, SaveToUnwritablePathFails) {
  EmbeddingStore original = MakeStore();
  EXPECT_FALSE(
      SaveEmbeddingStore(original, "/nonexistent_dir_xyz/store.bin")
          .ok());
}

TEST_F(SerializationTest, EmptyTypeCountsSurvive) {
  EmbeddingStore store(4, {0, 5, 0, 1, 0});
  ASSERT_TRUE(SaveEmbeddingStore(store, path_).ok());
  auto loaded = LoadEmbeddingStore(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->CountOf(graph::NodeType::kUser), 0u);
  EXPECT_EQ(loaded->CountOf(graph::NodeType::kEvent), 5u);
}

void ExpectBitExact(const EmbeddingStore& a, const EmbeddingStore& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (size_t t = 0; t < EmbeddingStore::kNumTypes; ++t) {
    const auto type = static_cast<graph::NodeType>(t);
    ASSERT_EQ(a.CountOf(type), b.CountOf(type)) << "t=" << t;
    for (uint32_t r = 0; r < a.CountOf(type); ++r) {
      ASSERT_EQ(0, std::memcmp(a.VectorOf(type, r), b.VectorOf(type, r),
                               a.dim() * sizeof(float)))
          << "t=" << t << " r=" << r;
    }
  }
}

TEST_F(SerializationTest, RoundTripIsBitExactAcrossShapes) {
  // Property sweep: dims that exercise every padding relationship of
  // the in-memory stride (1, sub-stride, exact stride, stride+1, two
  // strides+change) crossed with count sets including zero-count types
  // and the all-empty store. Gaussian floats (denormal-ish tails, full
  // mantissas) must survive save->load with identical bit patterns.
  const uint32_t dims[] = {1, 3, 8, 9, 17};
  const std::array<uint32_t, 5> count_sets[] = {
      {0, 0, 0, 0, 0}, {1, 0, 0, 0, 0}, {0, 7, 0, 2, 0},
      {4, 3, 2, 1, 5}, {2, 3, 0, 33, 20}};
  uint64_t seed = 100;
  for (const uint32_t dim : dims) {
    for (const auto& counts : count_sets) {
      EmbeddingStore store(dim, counts);
      Rng rng(++seed);
      store.InitGaussian(&rng, 0.37);
      ASSERT_TRUE(SaveEmbeddingStore(store, path_).ok());
      ASSERT_EQ(std::filesystem::file_size(path_), SerializedSizeV2(store))
          << "dim=" << dim;
      auto loaded = LoadEmbeddingStore(path_);
      ASSERT_TRUE(loaded.ok())
          << "dim=" << dim << ": " << loaded.status().ToString();
      ExpectBitExact(*loaded, store);
      // And a second generation: save the loaded store; the bytes must
      // be identical to the first file (stable, canonical encoding).
      const std::string second = path_ + ".second";
      ASSERT_TRUE(SaveEmbeddingStore(*loaded, second).ok());
      std::ifstream f1(path_, std::ios::binary), f2(second, std::ios::binary);
      const std::vector<char> b1((std::istreambuf_iterator<char>(f1)),
                                 std::istreambuf_iterator<char>());
      const std::vector<char> b2((std::istreambuf_iterator<char>(f2)),
                                 std::istreambuf_iterator<char>());
      EXPECT_EQ(b1, b2) << "dim=" << dim;
      std::filesystem::remove(second);
    }
  }
}

/// The golden fixtures in tests/data/ hold the store below, written
/// once by each format generation. Values follow t*100 + r*10 + c +
/// 0.25 — exactly representable floats, so equality is exact.
EmbeddingStore GoldenStore() {
  EmbeddingStore store(5, {2, 3, 0, 1, 4});
  for (size_t t = 0; t < EmbeddingStore::kNumTypes; ++t) {
    Matrix& m = store.MatrixOf(static_cast<graph::NodeType>(t));
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t c = 0; c < m.cols(); ++c) {
        m.At(r, c) = 100.0f * static_cast<float>(t) +
                     10.0f * static_cast<float>(r) +
                     static_cast<float>(c) + 0.25f;
      }
    }
  }
  return store;
}

TEST_F(SerializationTest, GoldenV2FixtureLoads) {
  const std::string golden =
      std::string(GEMREC_TEST_DATA_DIR) + "/store_v2_golden.bin";
  auto loaded = LoadEmbeddingStore(golden);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitExact(*loaded, GoldenStore());
}

TEST_F(SerializationTest, GoldenV1FixtureIsRejected) {
  // GEMREC02 strictness pin: the retired checksum-free GEMREC01 format
  // is refused by its magic, never loaded.
  const std::string golden =
      std::string(GEMREC_TEST_DATA_DIR) + "/store_v1_golden.bin";
  auto loaded = LoadEmbeddingStore(golden);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializationTest, WriterMatchesGoldenV2ByteForByte) {
  // Locks the wire format: any writer change that alters the encoding
  // (field order, endianness, checksum definition) fails here instead
  // of silently versioning the format. Bump GEMREC03 rather than
  // regenerate the fixture.
  ASSERT_TRUE(SaveEmbeddingStore(GoldenStore(), path_).ok());
  std::ifstream fresh(path_, std::ios::binary);
  std::ifstream golden(
      std::string(GEMREC_TEST_DATA_DIR) + "/store_v2_golden.bin",
      std::ios::binary);
  ASSERT_TRUE(golden.good());
  const std::vector<char> fresh_bytes(
      (std::istreambuf_iterator<char>(fresh)),
      std::istreambuf_iterator<char>());
  const std::vector<char> golden_bytes(
      (std::istreambuf_iterator<char>(golden)),
      std::istreambuf_iterator<char>());
  ASSERT_EQ(fresh_bytes.size(), golden_bytes.size());
  EXPECT_EQ(fresh_bytes, golden_bytes);
}

}  // namespace
}  // namespace gemrec::embedding
