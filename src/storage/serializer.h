#ifndef XCRYPT_STORAGE_SERIALIZER_H_
#define XCRYPT_STORAGE_SERIALIZER_H_

#include <string>

#include "common/status.h"
#include "core/encryptor.h"
#include "core/metadata.h"

namespace xcrypt {

/// What the client actually ships to the service provider (Figure 1):
/// the encrypted database η(D) plus the metadata M. The server can be
/// reconstructed from this bundle alone — no keys, no plaintext.
struct HostedBundle {
  EncryptedDatabase database;
  Metadata metadata;
  /// Self-declared database name (may be empty). A catalog routes by filename stem and rejects images whose declared
  /// name disagrees with that routing (pass `expected_name` below).
  std::string name;
  /// Owner-assigned bundle generation: bumped on re-upload so
  /// a catalog can tell a genuinely newer bundle from a same-age rewrite.
  uint64_t generation = 0;
};

/// On-disk image formats SerializeBundle can emit.
///  - kV3: the sequential stream format — smallest header, must be parsed
///    front to back, the whole image deserializes eagerly.
///  - kV4: the mmap-friendly format — a section table up front with
///    fixed-width offsets/lengths, index sections readable in place, and
///    block ciphertext in one raw payload region that a mapped reader
///    demand-pages instead of decoding (storage/mmap_bundle.h).
/// Both read back through DeserializeBundle; v4 additionally opens
/// zero-copy through MmapBundleReader.
enum class BundleFormat { kV3, kV4 };

/// Serializes a hosted bundle into a self-contained binary image
/// (magic + version header, little-endian fixed-width integers,
/// length-prefixed strings). The image contains only server-visible
/// state: ciphertext blocks, the pruned skeleton, the DSI/block tables,
/// and the OPESS B-tree entries. Client-only fields (per-block plaintext
/// sizes) are deliberately omitted. `name`/`generation` identify the
/// bundle to a multi-tenant catalog (format v3+).
Bytes SerializeBundle(const EncryptedDatabase& database,
                      const Metadata& metadata,
                      const std::string& name = std::string(),
                      uint64_t generation = 0,
                      BundleFormat format = BundleFormat::kV3);

/// Parses an image produced by SerializeBundle — v3 or v4. Fails with
/// Corruption on truncated or malformed input and with Unsupported on any
/// other version (older v2 images included). When
/// `expected_name` is non-empty and the image declares a different
/// non-empty name, the image is rejected with InvalidArgument: a catalog
/// that routes by filename stem must not silently serve a bundle under a
/// name its owner never published it as.
Result<HostedBundle> DeserializeBundle(
    const Bytes& image, const std::string& expected_name = std::string());

/// Header fields readable without parsing the whole image.
struct BundleHeader {
  uint32_t version = 0;
  std::string name;
  uint64_t generation = 0;
};

/// Reads just the magic/version/name/generation prefix of a bundle file
/// (v3 and v4 share it byte for byte). Cheap (a few hundred bytes of
/// I/O) — used by catalog freshness probes that must not deserialize
/// whole multi-megabyte images per poll.
Result<BundleHeader> ReadBundleHeader(const std::string& path);

/// Convenience file wrappers.
Status SaveBundle(const EncryptedDatabase& database, const Metadata& metadata,
                  const std::string& path,
                  const std::string& name = std::string(),
                  uint64_t generation = 0,
                  BundleFormat format = BundleFormat::kV3);
Result<HostedBundle> LoadBundle(
    const std::string& path,
    const std::string& expected_name = std::string());

}  // namespace xcrypt

#endif  // XCRYPT_STORAGE_SERIALIZER_H_
