#include "embedding/serialization.h"

#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/atomic_file.h"
#include "common/crc32c.h"
#include "common/logging.h"

namespace gemrec::embedding {
namespace {

constexpr char kMagicV2[8] = {'G', 'E', 'M', 'R', 'E', 'C', '0', '2'};

// GEMREC02 layout constants (see serialization.h / DESIGN.md §10).
constexpr size_t kHeaderBytes = sizeof(kMagicV2) + 4 + 4 * EmbeddingStore::kNumTypes;  // 32
constexpr size_t kCrcBytes = 4;
constexpr uint32_t kMaxDim = 100000;

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "mixed-endian hosts are not supported");

void AppendU32Le(std::vector<uint8_t>* buf, uint32_t v) {
  buf->push_back(static_cast<uint8_t>(v));
  buf->push_back(static_cast<uint8_t>(v >> 8));
  buf->push_back(static_cast<uint8_t>(v >> 16));
  buf->push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t ReadU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// Encodes `n` floats as little-endian binary32 into `dst` (4n bytes).
/// On little-endian hosts the representation is the raw memory.
void EncodeFloatsLe(const float* src, size_t n, uint8_t* dst) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, src, n * sizeof(float));
  } else {
    for (size_t i = 0; i < n; ++i) {
      uint32_t bits;
      std::memcpy(&bits, &src[i], sizeof(bits));
      dst[4 * i] = static_cast<uint8_t>(bits);
      dst[4 * i + 1] = static_cast<uint8_t>(bits >> 8);
      dst[4 * i + 2] = static_cast<uint8_t>(bits >> 16);
      dst[4 * i + 3] = static_cast<uint8_t>(bits >> 24);
    }
  }
}

void DecodeFloatsLe(const uint8_t* src, size_t n, float* dst) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, src, n * sizeof(float));
  } else {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t bits = ReadU32Le(src + 4 * i);
      std::memcpy(&dst[i], &bits, sizeof(bits));
    }
  }
}

Result<EmbeddingStore> LoadV2(std::ifstream& in, const std::string& path,
                              const char magic[8]) {
  // Header: the magic already consumed plus dim/counts/header_crc.
  std::array<uint8_t, kHeaderBytes + kCrcBytes> header{};
  std::memcpy(header.data(), magic, sizeof(kMagicV2));
  in.read(reinterpret_cast<char*>(header.data() + sizeof(kMagicV2)),
          static_cast<std::streamsize>(header.size() - sizeof(kMagicV2)));
  if (!in.good()) {
    return Status::IoError("truncated header (file shorter than " +
                           std::to_string(header.size()) + " bytes): " +
                           path);
  }
  const uint32_t stored_header_crc = ReadU32Le(header.data() + kHeaderBytes);
  const uint32_t header_crc = Crc32c(header.data(), kHeaderBytes);
  if (stored_header_crc != header_crc) {
    return Status::IoError("header checksum mismatch in " + path +
                           " (corrupt dim/count fields?)");
  }
  const uint32_t dim = ReadU32Le(header.data() + sizeof(kMagicV2));
  if (dim == 0 || dim > kMaxDim) {
    return Status::InvalidArgument("bad dimension in " + path);
  }
  std::array<uint32_t, EmbeddingStore::kNumTypes> counts{};
  for (size_t t = 0; t < counts.size(); ++t) {
    counts[t] = ReadU32Le(header.data() + sizeof(kMagicV2) + 4 + 4 * t);
  }

  EmbeddingStore store(dim, counts);
  std::array<uint32_t, EmbeddingStore::kNumTypes + 1> section_crcs{};
  section_crcs[0] = header_crc;
  std::vector<uint8_t> row_buf(static_cast<size_t>(dim) * sizeof(float));
  for (size_t t = 0; t < EmbeddingStore::kNumTypes; ++t) {
    const auto type = static_cast<graph::NodeType>(t);
    Matrix& m = store.MatrixOf(type);
    uint32_t crc = 0;
    for (size_t r = 0; r < m.rows(); ++r) {
      in.read(reinterpret_cast<char*>(row_buf.data()),
              static_cast<std::streamsize>(row_buf.size()));
      if (!in.good()) {
        return Status::IoError(
            std::string("truncated payload in ") +
            graph::NodeTypeName(type) + " section (row " +
            std::to_string(r) + " of " + std::to_string(m.rows()) +
            "): " + path);
      }
      crc = ExtendCrc32c(crc, row_buf.data(), row_buf.size());
      DecodeFloatsLe(row_buf.data(), m.cols(), m.Row(r));
    }
    uint8_t crc_bytes[kCrcBytes];
    in.read(reinterpret_cast<char*>(crc_bytes), kCrcBytes);
    if (!in.good()) {
      return Status::IoError(std::string("truncated checksum after ") +
                             graph::NodeTypeName(type) + " section: " +
                             path);
    }
    if (ReadU32Le(crc_bytes) != crc) {
      return Status::IoError(std::string("checksum mismatch in ") +
                             graph::NodeTypeName(type) + " section: " +
                             path);
    }
    section_crcs[t + 1] = crc;
  }

  std::vector<uint8_t> crc_words;
  crc_words.reserve(section_crcs.size() * 4);
  for (const uint32_t crc : section_crcs) AppendU32Le(&crc_words, crc);
  uint8_t footer_bytes[kCrcBytes];
  in.read(reinterpret_cast<char*>(footer_bytes), kCrcBytes);
  if (!in.good()) {
    return Status::IoError("truncated footer checksum: " + path);
  }
  if (ReadU32Le(footer_bytes) !=
      Crc32c(crc_words.data(), crc_words.size())) {
    return Status::IoError("footer checksum mismatch in " + path);
  }
  if (in.peek() != std::char_traits<char>::eof()) {
    return Status::InvalidArgument("trailing garbage after footer in " +
                                   path);
  }
  return store;
}

}  // namespace

size_t SerializedSizeV2(const EmbeddingStore& store) {
  size_t size = kHeaderBytes + kCrcBytes;
  for (size_t t = 0; t < EmbeddingStore::kNumTypes; ++t) {
    const auto type = static_cast<graph::NodeType>(t);
    size += static_cast<size_t>(store.CountOf(type)) * store.dim() *
                sizeof(float) +
            kCrcBytes;
  }
  return size + kCrcBytes;  // footer
}

Status SaveEmbeddingStore(const EmbeddingStore& store,
                          const std::string& path) {
  GEMREC_ASSIGN_OR_RETURN(AtomicFile file, AtomicFile::Create(path));

  std::vector<uint8_t> header;
  header.reserve(kHeaderBytes + kCrcBytes);
  header.insert(header.end(), kMagicV2, kMagicV2 + sizeof(kMagicV2));
  AppendU32Le(&header, store.dim());
  for (size_t t = 0; t < EmbeddingStore::kNumTypes; ++t) {
    AppendU32Le(&header,
                store.CountOf(static_cast<graph::NodeType>(t)));
  }
  std::array<uint32_t, EmbeddingStore::kNumTypes + 1> section_crcs{};
  section_crcs[0] = Crc32c(header.data(), header.size());
  AppendU32Le(&header, section_crcs[0]);
  GEMREC_RETURN_IF_ERROR(file.Append(header.data(), header.size()));

  // Row-wise so the dense little-endian on-disk layout is independent
  // of the in-memory aligned row stride.
  std::vector<uint8_t> row_buf(static_cast<size_t>(store.dim()) *
                               sizeof(float));
  std::vector<uint8_t> crc_word;
  for (size_t t = 0; t < EmbeddingStore::kNumTypes; ++t) {
    const Matrix& m = store.MatrixOf(static_cast<graph::NodeType>(t));
    uint32_t crc = 0;
    for (size_t r = 0; r < m.rows(); ++r) {
      EncodeFloatsLe(m.Row(r), m.cols(), row_buf.data());
      crc = ExtendCrc32c(crc, row_buf.data(), row_buf.size());
      GEMREC_RETURN_IF_ERROR(file.Append(row_buf.data(), row_buf.size()));
    }
    section_crcs[t + 1] = crc;
    crc_word.clear();
    AppendU32Le(&crc_word, crc);
    GEMREC_RETURN_IF_ERROR(file.Append(crc_word.data(), crc_word.size()));
  }

  std::vector<uint8_t> crc_words;
  crc_words.reserve(section_crcs.size() * 4);
  for (const uint32_t crc : section_crcs) AppendU32Le(&crc_words, crc);
  crc_word.clear();
  AppendU32Le(&crc_word, Crc32c(crc_words.data(), crc_words.size()));
  GEMREC_RETURN_IF_ERROR(file.Append(crc_word.data(), crc_word.size()));

  return file.Commit();
}

Result<EmbeddingStore> LoadEmbeddingStore(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in.good()) {
    return Status::IoError("truncated magic (file shorter than 8 bytes): " +
                           path);
  }
  if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) {
    return LoadV2(in, path, magic);
  }
  return Status::InvalidArgument("bad magic in " + path +
                                 " (not a GEMREC02 artifact)");
}

}  // namespace gemrec::embedding
