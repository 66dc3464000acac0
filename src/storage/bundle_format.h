#ifndef XCRYPT_STORAGE_BUNDLE_FORMAT_H_
#define XCRYPT_STORAGE_BUNDLE_FORMAT_H_

// Internals of the bundle image formats, shared by the eager serializer
// (storage/serializer.cc) and the mmap reader (storage/mmap_bundle.cc).
// Not part of the public storage API.
//
// Format v4 ("mmap-friendly") layout:
//
//   magic u32 | version u32 | name str | generation u64
//   section_count u32
//   section_count x { id u32 | reserved u32 | offset u64 | length u64 }
//   ...section bodies at their recorded absolute offsets...
//
// Section bodies are little-endian with fixed-width records wherever the
// reader wants random access:
//
//   kSkeleton       v3 document encoding (count + variable-width nodes)
//   kBlockIndex     count u32, count x {id i32, gen u32, off u64, len u64}
//                   (off/len into kBlockPayloads, relative to its start)
//   kBlockPayloads  raw concatenated ciphertext — never parsed, only
//                   sliced; the demand-paged bulk of the image
//   kMarkers        count u32, count x i32
//   kDsi            token_count u32, per token: str + n u32 + n x 16B
//   kBlockReps      count u32, count x {id i32, min f64, max f64}
//   kValueIndexes   index_count u32, per index: {token str, off u64,
//                   count u32}; entry arrays of count x {key i64,
//                   block i32} at off (relative to section start)
//   kPublicMap      count u32, count x {min f64, max f64, node i32}

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "index/btree.h"
#include "index/dsi_table.h"
#include "xml/document.h"

namespace xcrypt {
namespace storage_internal {

constexpr uint32_t kBundleMagic = 0x58435231;  // "XCR1"
constexpr uint32_t kFormatV3 = 3;
constexpr uint32_t kFormatV4 = 4;

enum SectionId : uint32_t {
  kSkeleton = 1,
  kBlockIndex = 2,
  kBlockPayloads = 3,
  kMarkers = 4,
  kDsi = 5,
  kBlockReps = 6,
  kValueIndexes = 7,
  kPublicMap = 8,
};

struct SectionEntry {
  uint32_t id = 0;
  uint64_t offset = 0;  ///< absolute byte offset into the image
  uint64_t length = 0;
};

/// Parsed v4 prologue: identity plus the validated section table. Every
/// section is bounds-checked against the image size, required sections
/// are present exactly once, and no two sections overlap — after
/// ParseV4Layout succeeds, slicing any section is safe without further
/// checks.
struct V4Layout {
  std::string name;
  uint64_t generation = 0;
  std::vector<SectionEntry> sections;

  const SectionEntry* Find(uint32_t id) const;
};

Result<V4Layout> ParseV4Layout(const uint8_t* data, size_t size);

/// Document encoding shared by every format version.
void WriteDocument(BinaryWriter& w, const Document& doc);
Result<Document> ReadDocument(BinaryReader& r);

void WriteInterval(BinaryWriter& w, const Interval& iv);
Interval ReadInterval(BinaryReader& r);

/// One kBlockIndex record, fully validated against the payload section
/// length: offset + length never reaches past the payloads.
struct BlockRef {
  int32_t id = 0;
  uint32_t generation = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
};

Result<std::vector<BlockRef>> ParseBlockIndex(const uint8_t* data, size_t size,
                                              uint64_t payloads_length);

Status ParseMarkers(const uint8_t* data, size_t size, int32_t node_count,
                    std::vector<NodeId>* out);
Status ParseDsi(const uint8_t* data, size_t size, DsiTable* out);
Status ParseBlockReps(const uint8_t* data, size_t size, BlockTable* out);
Status ParsePublicMap(const uint8_t* data, size_t size, int32_t node_count,
                      std::map<Interval, NodeId>* out);

/// One kValueIndexes directory row. After ParseValueIndexDirectory
/// succeeds, the entry array of every row lies inside the section, so
/// ParseValueIndexEntries cannot fail.
struct ValueIndexRef {
  std::string token;
  uint64_t offset = 0;  ///< relative to the section start
  uint32_t count = 0;
};

Result<std::vector<ValueIndexRef>> ParseValueIndexDirectory(
    const uint8_t* data, size_t size);
std::vector<BTreeEntry> ParseValueIndexEntries(const uint8_t* section_data,
                                               const ValueIndexRef& ref);

}  // namespace storage_internal
}  // namespace xcrypt

#endif  // XCRYPT_STORAGE_BUNDLE_FORMAT_H_
