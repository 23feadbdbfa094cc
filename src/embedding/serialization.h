#ifndef GEMREC_EMBEDDING_SERIALIZATION_H_
#define GEMREC_EMBEDDING_SERIALIZATION_H_

#include <string>

#include "common/status.h"
#include "embedding/embedding_store.h"

namespace gemrec::embedding {

/// Binary persistence for trained embedding stores, so a model trained
/// offline (hours) can be shipped to the online recommender without
/// retraining — and reloaded indefinitely by `gemrec serve` without
/// ever feeding a torn or bit-rotted file into a snapshot.
///
/// Current wire format, GEMREC02 (all integers little-endian; floats
/// are IEEE-754 binary32, little-endian; full byte layout in
/// DESIGN.md §10):
///
///   magic "GEMREC02"                              8 bytes
///   u32 dim | 5 x u32 count                      24 bytes
///   u32 header_crc   — CRC32C of bytes [0, 32)    4 bytes
///   5 x node-type section:
///     count*dim f32 payload (dense rows)
///     u32 section_crc — CRC32C of that payload    4 bytes
///   u32 footer_crc — CRC32C of the 6 CRC words    4 bytes
///   (strict EOF: trailing bytes are an error)
///
/// Durability: SaveEmbeddingStore never writes in place. Bytes go to
/// `<path>.tmp.<pid>`, are fsynced and renamed over `path` (see
/// common/atomic_file.h), so a crash mid-save leaves the previous
/// artifact intact and readers never observe a partial file.
///
/// Versioning policy: the 8-byte magic carries the version, and
/// GEMREC02 is the only one. Any other magic — including the retired
/// checksum-free "GEMREC01" — is rejected with InvalidArgument.
Status SaveEmbeddingStore(const EmbeddingStore& store,
                          const std::string& path);

/// Loads a store written by SaveEmbeddingStore (GEMREC02).
///
/// Every failure mode returns a precise non-OK Status instead of a
/// corrupt store: bad magic, truncation (at any byte), header/section/
/// footer checksum mismatch, and trailing garbage after the footer.
Result<EmbeddingStore> LoadEmbeddingStore(const std::string& path);

/// Size in bytes of a GEMREC02 file for a store of this shape — the
/// fault harness uses it to enumerate section boundaries.
size_t SerializedSizeV2(const EmbeddingStore& store);

}  // namespace gemrec::embedding

#endif  // GEMREC_EMBEDDING_SERIALIZATION_H_
