// Fault injection for the model-artifact path (ISSUE 3 tentpole):
// every way a crash, full disk, or bad sector can mangle a GEMREC02
// file is simulated here, and the loader must answer each with a
// non-OK Status — never a silently-corrupt store. The kill-mid-save
// test additionally proves the atomic temp-file/rename protocol: a
// writer dying at an arbitrary instruction leaves the previous
// artifact bit-exactly intact.

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/atomic_file.h"
#include "embedding/serialization.h"

namespace gemrec::embedding {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kDim = 4;
// Includes a zero-count section (location) so boundary math covers
// empty matrices.
constexpr std::array<uint32_t, 5> kCounts = {3, 4, 0, 2, 5};

EmbeddingStore MakeStore(float salt) {
  EmbeddingStore store(kDim, kCounts);
  for (size_t t = 0; t < EmbeddingStore::kNumTypes; ++t) {
    Matrix& m = store.MatrixOf(static_cast<graph::NodeType>(t));
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t c = 0; c < m.cols(); ++c) {
        m.At(r, c) = salt + 100.0f * static_cast<float>(t) +
                     10.0f * static_cast<float>(r) +
                     0.5f * static_cast<float>(c);
      }
    }
  }
  return store;
}

void ExpectStoresBitExact(const EmbeddingStore& a, const EmbeddingStore& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (size_t t = 0; t < EmbeddingStore::kNumTypes; ++t) {
    const auto type = static_cast<graph::NodeType>(t);
    ASSERT_EQ(a.CountOf(type), b.CountOf(type)) << "type " << t;
    for (size_t r = 0; r < a.MatrixOf(type).rows(); ++r) {
      ASSERT_EQ(0, std::memcmp(a.VectorOf(type, static_cast<uint32_t>(r)),
                               b.VectorOf(type, static_cast<uint32_t>(r)),
                               a.dim() * sizeof(float)))
          << "type " << t << " row " << r;
    }
  }
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("gemrec_fault_" + std::to_string(::getpid()) + "_" +
            info->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "model.bin").string();
  }
  void TearDown() override {
    AtomicFile::SetWriteLimitForTesting(-1);
    AtomicFile::SetWriteObserverForTesting(nullptr);
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  size_t CountTmpFiles() const {
    size_t n = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().filename().string().find(".tmp.") !=
          std::string::npos) {
        ++n;
      }
    }
    return n;
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(FaultInjectionTest, TruncationAtEveryByteIsRejected) {
  const EmbeddingStore store = MakeStore(1.0f);
  ASSERT_TRUE(SaveEmbeddingStore(store, path_).ok());
  const std::vector<uint8_t> good = ReadFileBytes(path_);
  ASSERT_EQ(good.size(), SerializedSizeV2(store))
      << "writer and size formula disagree — section boundary math is off";

  // Every prefix length, which subsumes truncation at each section
  // boundary (header end, each matrix section end, footer start).
  const std::string corrupt = (dir_ / "truncated.bin").string();
  for (size_t len = 0; len < good.size(); ++len) {
    WriteFileBytes(corrupt,
                   std::vector<uint8_t>(good.begin(), good.begin() + len));
    const auto result = LoadEmbeddingStore(corrupt);
    ASSERT_FALSE(result.ok()) << "truncation to " << len
                              << " bytes loaded successfully";
  }
  // The untouched file still loads, bit-exactly.
  auto reloaded = LoadEmbeddingStore(path_);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectStoresBitExact(*reloaded, store);
}

TEST_F(FaultInjectionTest, EveryByteFlipIsRejected) {
  const EmbeddingStore store = MakeStore(2.0f);
  ASSERT_TRUE(SaveEmbeddingStore(store, path_).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path_);

  const std::string corrupt = (dir_ / "flipped.bin").string();
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0xFF;
    WriteFileBytes(corrupt, bytes);
    const auto result = LoadEmbeddingStore(corrupt);
    ASSERT_FALSE(result.ok())
        << "byte " << i << " flipped but the store loaded";
    bytes[i] ^= 0xFF;
  }
}

TEST_F(FaultInjectionTest, SingleBitFlipsInEverySectionAreRejected) {
  const EmbeddingStore store = MakeStore(3.0f);
  ASSERT_TRUE(SaveEmbeddingStore(store, path_).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path_);

  // One representative byte per region — header magic, dim, counts,
  // header crc, first/last payload byte of each non-empty section,
  // each section crc, footer crc — at every bit position.
  std::vector<size_t> offsets = {0, 9, 13, 33};
  size_t cursor = 36;
  for (size_t t = 0; t < EmbeddingStore::kNumTypes; ++t) {
    const size_t payload =
        static_cast<size_t>(kCounts[t]) * kDim * sizeof(float);
    if (payload > 0) {
      offsets.push_back(cursor);
      offsets.push_back(cursor + payload - 1);
    }
    offsets.push_back(cursor + payload);  // section crc
    cursor += payload + 4;
  }
  offsets.push_back(bytes.size() - 1);  // footer crc

  const std::string corrupt = (dir_ / "bitflip.bin").string();
  for (const size_t offset : offsets) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[offset] ^= static_cast<uint8_t>(1 << bit);
      WriteFileBytes(corrupt, bytes);
      ASSERT_FALSE(LoadEmbeddingStore(corrupt).ok())
          << "offset " << offset << " bit " << bit;
      bytes[offset] ^= static_cast<uint8_t>(1 << bit);
    }
  }
}

TEST_F(FaultInjectionTest, TrailingGarbageIsRejected) {
  const EmbeddingStore store = MakeStore(4.0f);
  ASSERT_TRUE(SaveEmbeddingStore(store, path_).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path_);
  bytes.push_back(0x00);
  WriteFileBytes(path_, bytes);
  const auto result = LoadEmbeddingStore(path_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FaultInjectionTest, ShortWriteLeavesPreviousArtifactIntact) {
  const EmbeddingStore old_store = MakeStore(5.0f);
  ASSERT_TRUE(SaveEmbeddingStore(old_store, path_).ok());
  const std::vector<uint8_t> old_bytes = ReadFileBytes(path_);

  const EmbeddingStore new_store = MakeStore(6.0f);
  const size_t full = SerializedSizeV2(new_store);
  for (const size_t limit :
       {size_t{0}, size_t{7}, size_t{36}, size_t{100}, full - 1}) {
    AtomicFile::SetWriteLimitForTesting(static_cast<int64_t>(limit));
    const Status save = SaveEmbeddingStore(new_store, path_);
    AtomicFile::SetWriteLimitForTesting(-1);
    ASSERT_FALSE(save.ok()) << "limit " << limit;
    EXPECT_EQ(save.code(), StatusCode::kIoError);
    // The destination is byte-identical to the previous artifact and
    // no temporary litters the directory.
    EXPECT_EQ(ReadFileBytes(path_), old_bytes) << "limit " << limit;
    EXPECT_EQ(CountTmpFiles(), 0u) << "limit " << limit;
    auto loaded = LoadEmbeddingStore(path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectStoresBitExact(*loaded, old_store);
  }
  // With the limit lifted the same save goes through.
  ASSERT_TRUE(SaveEmbeddingStore(new_store, path_).ok());
  auto loaded = LoadEmbeddingStore(path_);
  ASSERT_TRUE(loaded.ok());
  ExpectStoresBitExact(*loaded, new_store);
}

TEST_F(FaultInjectionTest, KillMidSaveKeepsPreviousArtifact) {
  const EmbeddingStore old_store = MakeStore(7.0f);
  ASSERT_TRUE(SaveEmbeddingStore(old_store, path_).ok());
  const std::vector<uint8_t> old_bytes = ReadFileBytes(path_);

  // The child dies by SIGKILL partway through writing the temporary —
  // after the header and some payload, before the rename. No cleanup
  // code of any kind runs in the child.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    AtomicFile::SetWriteObserverForTesting([](size_t bytes_written) {
      if (bytes_written >= 100) raise(SIGKILL);
    });
    const EmbeddingStore new_store = MakeStore(8.0f);
    (void)SaveEmbeddingStore(new_store, path_);
    _exit(0);  // unreachable if the kill fired
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child exited normally; the kill never fired";
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // Crash artifact: the child's temporary may remain; the destination
  // must be byte-identical to the pre-crash artifact.
  EXPECT_EQ(ReadFileBytes(path_), old_bytes);
  EXPECT_EQ(CountTmpFiles(), 1u)
      << "expected exactly the dead child's temporary";
  auto loaded = LoadEmbeddingStore(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectStoresBitExact(*loaded, old_store);

  // Recovery: a later writer replaces the artifact normally; the stale
  // temporary (different pid suffix) never interferes.
  const EmbeddingStore new_store = MakeStore(8.0f);
  ASSERT_TRUE(SaveEmbeddingStore(new_store, path_).ok());
  auto replaced = LoadEmbeddingStore(path_);
  ASSERT_TRUE(replaced.ok());
  ExpectStoresBitExact(*replaced, new_store);
}

TEST_F(FaultInjectionTest, LegacyV1TruncationAndGarbageAreRejected) {
  // GEMREC02 is the only model format: the retired checksum-free
  // GEMREC01 layout is refused whole, truncated or garbage-extended —
  // never half-loaded.
  std::vector<uint8_t> bytes = ReadFileBytes(
      std::string(GEMREC_TEST_DATA_DIR) + "/store_v1_golden.bin");
  ASSERT_GT(bytes.size(), 32u);

  const std::string corrupt = (dir_ / "v1corrupt.bin").string();
  for (const size_t len : {size_t{4}, size_t{10}, size_t{31},
                           bytes.size() / 2, bytes.size() - 1}) {
    WriteFileBytes(corrupt,
                   std::vector<uint8_t>(bytes.begin(), bytes.begin() + len));
    EXPECT_FALSE(LoadEmbeddingStore(corrupt).ok()) << "length " << len;
  }
  bytes.push_back(0xAB);
  WriteFileBytes(corrupt, bytes);
  const auto result = LoadEmbeddingStore(corrupt);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gemrec::embedding
