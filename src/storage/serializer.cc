#include "storage/serializer.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>
#include <utility>

#include "common/binary_io.h"
#include "index/btree.h"
#include "storage/bundle_format.h"

namespace xcrypt {

namespace {

namespace si = storage_internal;

/// v3: each block carries its generation (wire v3 cache coherence), and
/// the image carries its own database name and bundle generation right
/// after the header, so a multi-tenant catalog can identify and
/// version-track a bundle without trusting the filename.
/// v4: section-table layout for mmap'd hosting (storage/bundle_format.h).
/// Older images are refused as Unsupported.
constexpr uint32_t kMaxVersion = si::kFormatV4;
constexpr uint32_t kMinVersion = si::kFormatV3;

using Writer = BinaryWriter;
using Reader = BinaryReader;

Bytes SerializeBundleV3(const EncryptedDatabase& database,
                        const Metadata& metadata, const std::string& name,
                        uint64_t generation) {
  Bytes out;
  Writer w(&out);
  w.U32(si::kBundleMagic);
  w.U32(si::kFormatV3);
  w.Str(name);
  w.U64(generation);

  // --- database ---
  si::WriteDocument(w, database.skeleton);
  w.U32(static_cast<uint32_t>(database.blocks.size()));
  for (const EncryptedBlock& b : database.blocks) {
    w.I32(b.id);
    w.U32(b.generation);
    w.Blob(b.ciphertext);
    // plaintext_bytes is client-only knowledge: not serialized.
  }
  w.U32(static_cast<uint32_t>(database.marker_of_block.size()));
  for (NodeId id : database.marker_of_block) w.I32(id);

  // --- metadata ---
  w.U32(static_cast<uint32_t>(metadata.dsi_table.entries().size()));
  for (const auto& [token, list] : metadata.dsi_table.entries()) {
    w.Str(token);
    w.U32(static_cast<uint32_t>(list.size()));
    for (const Interval& iv : list) si::WriteInterval(w, iv);
  }
  w.U32(static_cast<uint32_t>(metadata.block_table.entries().size()));
  for (const auto& [id, rep] : metadata.block_table.entries()) {
    w.I32(id);
    si::WriteInterval(w, rep);
  }
  w.U32(static_cast<uint32_t>(metadata.value_indexes.size()));
  for (const auto& [token, tree] : metadata.value_indexes) {
    w.Str(token);
    const auto entries = tree.RangeScan(std::numeric_limits<int64_t>::min(),
                                        std::numeric_limits<int64_t>::max());
    w.U32(static_cast<uint32_t>(entries.size()));
    for (const BTreeEntry& e : entries) {
      w.I64(e.key);
      w.I32(e.block_id);
    }
  }
  w.U32(static_cast<uint32_t>(metadata.public_interval_to_node.size()));
  for (const auto& [iv, node] : metadata.public_interval_to_node) {
    si::WriteInterval(w, iv);
    w.I32(node);
  }
  return out;
}

Bytes SerializeBundleV4(const EncryptedDatabase& database,
                        const Metadata& metadata, const std::string& name,
                        uint64_t generation) {
  // Build each section body standalone, then lay them out behind the
  // section table. Order on disk: index sections first (the bytes a cold
  // attach actually touches stay clustered), payloads last.
  struct Section {
    uint32_t id;
    Bytes body;
  };
  std::vector<Section> sections;
  auto section = [&](uint32_t id) -> Writer {
    sections.push_back({id, Bytes()});
    return Writer(&sections.back().body);
  };

  {
    Writer w = section(si::kSkeleton);
    si::WriteDocument(w, database.skeleton);
  }
  Bytes payloads;
  {
    Writer w = section(si::kBlockIndex);
    w.U32(static_cast<uint32_t>(database.blocks.size()));
    uint64_t off = 0;
    for (const EncryptedBlock& b : database.blocks) {
      w.I32(b.id);
      w.U32(b.generation);
      w.U64(off);
      w.U64(b.ciphertext.size());
      payloads.insert(payloads.end(), b.ciphertext.begin(),
                      b.ciphertext.end());
      off += b.ciphertext.size();
    }
  }
  {
    Writer w = section(si::kMarkers);
    w.U32(static_cast<uint32_t>(database.marker_of_block.size()));
    for (NodeId id : database.marker_of_block) w.I32(id);
  }
  {
    Writer w = section(si::kDsi);
    w.U32(static_cast<uint32_t>(metadata.dsi_table.entries().size()));
    for (const auto& [token, list] : metadata.dsi_table.entries()) {
      w.Str(token);
      w.U32(static_cast<uint32_t>(list.size()));
      for (const Interval& iv : list) si::WriteInterval(w, iv);
    }
  }
  {
    Writer w = section(si::kBlockReps);
    w.U32(static_cast<uint32_t>(metadata.block_table.entries().size()));
    for (const auto& [id, rep] : metadata.block_table.entries()) {
      w.I32(id);
      si::WriteInterval(w, rep);
    }
  }
  {
    // Directory up front (token -> offset/count), entry arrays behind it,
    // so a mapped reader parses one B-tree without touching the others.
    Writer w = section(si::kValueIndexes);
    uint64_t dir_len = 4;
    for (const auto& [token, tree] : metadata.value_indexes) {
      (void)tree;
      dir_len += 4 + token.size() + 8 + 4;
    }
    std::vector<std::pair<std::string, std::vector<BTreeEntry>>> scans;
    for (const auto& [token, tree] : metadata.value_indexes) {
      scans.emplace_back(
          token, tree.RangeScan(std::numeric_limits<int64_t>::min(),
                                std::numeric_limits<int64_t>::max()));
    }
    w.U32(static_cast<uint32_t>(scans.size()));
    uint64_t off = dir_len;
    for (const auto& [token, entries] : scans) {
      w.Str(token);
      w.U64(off);
      w.U32(static_cast<uint32_t>(entries.size()));
      off += static_cast<uint64_t>(entries.size()) * 12;
    }
    for (const auto& [token, entries] : scans) {
      for (const BTreeEntry& e : entries) {
        w.I64(e.key);
        w.I32(e.block_id);
      }
    }
  }
  {
    Writer w = section(si::kPublicMap);
    w.U32(static_cast<uint32_t>(metadata.public_interval_to_node.size()));
    for (const auto& [iv, node] : metadata.public_interval_to_node) {
      si::WriteInterval(w, iv);
      w.I32(node);
    }
  }
  sections.push_back({si::kBlockPayloads, std::move(payloads)});

  Bytes out;
  Writer w(&out);
  w.U32(si::kBundleMagic);
  w.U32(si::kFormatV4);
  w.Str(name);
  w.U64(generation);
  w.U32(static_cast<uint32_t>(sections.size()));
  uint64_t offset = out.size() + sections.size() * 24;
  for (const Section& s : sections) {
    w.U32(s.id);
    w.U32(0);  // reserved
    w.U64(offset);
    w.U64(s.body.size());
    offset += s.body.size();
  }
  for (const Section& s : sections) {
    out.insert(out.end(), s.body.begin(), s.body.end());
  }
  return out;
}

Result<HostedBundle> DeserializeV4(const Bytes& image) {
  auto layout = si::ParseV4Layout(image.data(), image.size());
  if (!layout.ok()) return layout.status();
  auto span = [&](uint32_t id) -> const si::SectionEntry& {
    return *layout->Find(id);  // presence validated by ParseV4Layout
  };

  HostedBundle bundle;
  bundle.name = layout->name;
  bundle.generation = layout->generation;

  {
    const si::SectionEntry& s = span(si::kSkeleton);
    Reader r(image.data() + s.offset, s.length);
    auto skeleton = si::ReadDocument(r);
    if (!skeleton.ok()) return skeleton.status();
    if (!r.AtEnd()) return Status::Corruption("trailing bytes in skeleton");
    bundle.database.skeleton = std::move(*skeleton);
  }
  const int32_t node_count = bundle.database.skeleton.node_count();

  const si::SectionEntry& payloads = span(si::kBlockPayloads);
  {
    const si::SectionEntry& s = span(si::kBlockIndex);
    auto refs =
        si::ParseBlockIndex(image.data() + s.offset, s.length, payloads.length);
    if (!refs.ok()) return refs.status();
    bundle.database.blocks.reserve(refs->size());
    for (const si::BlockRef& ref : *refs) {
      EncryptedBlock block;
      block.id = ref.id;
      block.generation = ref.generation;
      const uint8_t* begin = image.data() + payloads.offset + ref.offset;
      block.ciphertext.assign(begin, begin + ref.length);
      bundle.database.blocks.push_back(std::move(block));
    }
  }
  {
    const si::SectionEntry& s = span(si::kMarkers);
    XCRYPT_RETURN_NOT_OK(si::ParseMarkers(image.data() + s.offset, s.length,
                                          node_count,
                                          &bundle.database.marker_of_block));
  }
  {
    const si::SectionEntry& s = span(si::kDsi);
    XCRYPT_RETURN_NOT_OK(si::ParseDsi(image.data() + s.offset, s.length,
                                      &bundle.metadata.dsi_table));
  }
  {
    const si::SectionEntry& s = span(si::kBlockReps);
    XCRYPT_RETURN_NOT_OK(si::ParseBlockReps(image.data() + s.offset, s.length,
                                            &bundle.metadata.block_table));
  }
  {
    const si::SectionEntry& s = span(si::kValueIndexes);
    auto dir = si::ParseValueIndexDirectory(image.data() + s.offset, s.length);
    if (!dir.ok()) return dir.status();
    for (const si::ValueIndexRef& ref : *dir) {
      BPlusTree tree;
      tree.BulkLoad(si::ParseValueIndexEntries(image.data() + s.offset, ref));
      bundle.metadata.value_indexes.emplace(ref.token, std::move(tree));
    }
  }
  {
    const si::SectionEntry& s = span(si::kPublicMap);
    XCRYPT_RETURN_NOT_OK(
        si::ParsePublicMap(image.data() + s.offset, s.length, node_count,
                           &bundle.metadata.public_interval_to_node));
  }
  return bundle;
}

}  // namespace

Bytes SerializeBundle(const EncryptedDatabase& database,
                      const Metadata& metadata, const std::string& name,
                      uint64_t generation, BundleFormat format) {
  return format == BundleFormat::kV4
             ? SerializeBundleV4(database, metadata, name, generation)
             : SerializeBundleV3(database, metadata, name, generation);
}

Result<HostedBundle> DeserializeBundle(const Bytes& image,
                                       const std::string& expected_name) {
  Reader r(image);
  if (r.U32() != si::kBundleMagic) return Status::Corruption("bad magic");
  const uint32_t version = r.U32();
  if (version < kMinVersion || version > kMaxVersion) {
    return Status::Unsupported("bundle version " + std::to_string(version));
  }

  HostedBundle bundle;
  if (version == si::kFormatV4) {
    auto parsed = DeserializeV4(image);
    if (!parsed.ok()) return parsed.status();
    bundle = std::move(*parsed);
  }
  if (version == si::kFormatV3) {
    bundle.name = r.Str();
    bundle.generation = r.U64();
    if (r.failed()) return Status::Corruption("truncated bundle header");
  }
  if (!expected_name.empty() && !bundle.name.empty() &&
      bundle.name != expected_name) {
    // A mis-filed image must not be served under the catalog's routing
    // name: queries for one tenant would silently hit another's data.
    return Status::InvalidArgument("bundle declares name '" + bundle.name +
                                   "' but was loaded as '" + expected_name +
                                   "'");
  }
  if (version == si::kFormatV4) return bundle;

  auto skeleton = si::ReadDocument(r);
  if (!skeleton.ok()) return skeleton.status();
  bundle.database.skeleton = std::move(*skeleton);

  const uint32_t num_blocks = r.U32();
  if (!r.CanHold(num_blocks, 12)) {
    return Status::Corruption("bad block count");
  }
  bundle.database.blocks.reserve(num_blocks);
  for (uint32_t i = 0; i < num_blocks && !r.failed(); ++i) {
    EncryptedBlock block;
    block.id = r.I32();
    block.generation = r.U32();
    block.ciphertext = r.Blob();
    bundle.database.blocks.push_back(std::move(block));
  }
  const uint32_t num_markers = r.U32();
  if (!r.CanHold(num_markers, 4)) {
    return Status::Corruption("bad marker count");
  }
  bundle.database.marker_of_block.reserve(num_markers);
  for (uint32_t i = 0; i < num_markers && !r.failed(); ++i) {
    const NodeId id = r.I32();
    if (id < kNullNode || id >= bundle.database.skeleton.node_count()) {
      return Status::Corruption("marker node out of range");
    }
    bundle.database.marker_of_block.push_back(id);
  }

  const uint32_t num_tokens = r.U32();
  for (uint32_t i = 0; i < num_tokens && !r.failed(); ++i) {
    const std::string token = r.Str();
    const uint32_t num_intervals = r.U32();
    if (!r.CanHold(num_intervals, 16)) {
      return Status::Corruption("bad DSI interval count");
    }
    for (uint32_t j = 0; j < num_intervals && !r.failed(); ++j) {
      bundle.metadata.dsi_table.Add(token, si::ReadInterval(r));
    }
  }
  bundle.metadata.dsi_table.Seal();

  const uint32_t num_reps = r.U32();
  for (uint32_t i = 0; i < num_reps && !r.failed(); ++i) {
    const int id = r.I32();
    bundle.metadata.block_table.Add(id, si::ReadInterval(r));
  }

  const uint32_t num_indexes = r.U32();
  for (uint32_t i = 0; i < num_indexes && !r.failed(); ++i) {
    const std::string token = r.Str();
    const uint32_t num_entries = r.U32();
    if (!r.CanHold(num_entries, 12)) {
      return Status::Corruption("bad value-index entry count");
    }
    std::vector<BTreeEntry> entries;
    entries.reserve(num_entries);
    for (uint32_t j = 0; j < num_entries && !r.failed(); ++j) {
      BTreeEntry e;
      e.key = r.I64();
      e.block_id = r.I32();
      entries.push_back(e);
    }
    BPlusTree tree;
    tree.BulkLoad(std::move(entries));
    bundle.metadata.value_indexes.emplace(token, std::move(tree));
  }

  const uint32_t num_public = r.U32();
  for (uint32_t i = 0; i < num_public && !r.failed(); ++i) {
    const Interval iv = si::ReadInterval(r);
    const NodeId node = r.I32();
    if (node < 0 || node >= bundle.database.skeleton.node_count()) {
      return Status::Corruption("public node out of range");
    }
    bundle.metadata.public_interval_to_node[iv] = node;
  }

  if (r.failed()) return Status::Corruption("truncated bundle");
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in bundle");
  return bundle;
}

Status SaveBundle(const EncryptedDatabase& database, const Metadata& metadata,
                  const std::string& path, const std::string& name,
                  uint64_t generation, BundleFormat format) {
  const Bytes image =
      SerializeBundle(database, metadata, name, generation, format);
  // Write-then-rename: a catalog daemon hot-reloading `path` must only
  // ever see the previous image or this one, never a half-written file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot open " + tmp + " for writing");
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    if (!out) {
      std::remove(tmp.c_str());
      return Status::Internal("short write to " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot replace " + path + ": " + ec.message());
  }
  return Status::Ok();
}

Result<HostedBundle> LoadBundle(const std::string& path,
                                const std::string& expected_name) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  Bytes image(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(image.data()), size);
  if (!in) return Status::Corruption("short read from " + path);
  return DeserializeBundle(image, expected_name);
}

Result<BundleHeader> ReadBundleHeader(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  // Magic + version + a length-prefixed name (catalog names are short)
  // + generation comfortably fit in this prefix (v3 and v4 share it).
  Bytes prefix(512);
  in.read(reinterpret_cast<char*>(prefix.data()),
          static_cast<std::streamsize>(prefix.size()));
  prefix.resize(static_cast<size_t>(in.gcount()));

  Reader r(prefix);
  if (r.U32() != si::kBundleMagic) return Status::Corruption("bad magic");
  BundleHeader header;
  header.version = r.U32();
  if (r.failed()) return Status::Corruption("truncated bundle header");
  if (header.version < kMinVersion || header.version > kMaxVersion) {
    return Status::Unsupported("bundle version " +
                               std::to_string(header.version));
  }
  header.name = r.Str();
  header.generation = r.U64();
  if (r.failed()) return Status::Corruption("truncated bundle header");
  return header;
}

}  // namespace xcrypt
